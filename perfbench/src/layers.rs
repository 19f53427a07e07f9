//! Per-layer measurements the workloads share: the restart lane, the
//! prepare probe, and the durability counters of a measured window.

use crate::common::{median_took, open, timed, BenchResult, Outcome, Took};
use crate::countlog::{CountingLog, LogCounts};
use crate::metrics::PER_LAYER;
use crate::stats::{median, percentile_us};
use crate::trace::Tracer;
use bcq_core::prelude::SpcQuery;
use bcq_service::{LogStorage, MemLog, Server, ServerConfig, WalStats};
use std::sync::Arc;
use std::time::Instant;

/// Sets every per-layer metric to 0; workloads then overwrite the ones
/// their layers move.
pub fn zero_per_layer(out: &mut Outcome) {
    for d in PER_LAYER {
        out.set(d.name, 0.0);
    }
}

/// The median of nanosecond samples in µs, or 0 with too few samples.
pub fn p50_us(mut samples_ns: Vec<u64>) -> f64 {
    percentile_us(&mut samples_ns, 0.5).unwrap_or(0.0)
}

/// The restart lane: `Server::open` over what a dropped server left in
/// `base`, timed `n` times.
pub struct Restarts {
    /// Times of each `Server::open`.
    pub took: Vec<Took>,
    /// Time each open spent reading the log and snapshot (s; tracing only).
    pub read_secs: Vec<f64>,
    /// The server the last open returned.
    pub server: Server,
}

impl Restarts {
    /// Median restart times.
    pub fn median(&self) -> Took {
        median_took(&self.took)
    }

    /// Records `durability.log_read_s` and `durability.replay_s`.
    pub fn record_layers(&self, out: &mut Outcome) {
        let wall: Vec<f64> = self.took.iter().map(|t| t.wall_s).collect();
        record_recovery(out, &wall, &self.read_secs);
    }
}

/// Records `durability.log_read_s` (median time reading the log and
/// snapshot) and `durability.replay_s` (median rest of `Server::open`)
/// from restarts that took `secs` of wall time, of which `read_secs`
/// reading.
pub fn record_recovery(out: &mut Outcome, secs: &[f64], read_secs: &[f64]) {
    let replay: Vec<f64> = secs.iter().zip(read_secs).map(|(t, r)| t - r).collect();
    out.set("durability.log_read_s", median(read_secs).unwrap_or(0.0));
    out.set("durability.replay_s", median(&replay).unwrap_or(0.0));
}

/// Reopens `base` `n` (≥ 1) times, dropping each server before the next
/// open.
pub fn restart(base: &Arc<MemLog>, n: usize, tracer: &Arc<Tracer>) -> BenchResult<Restarts> {
    let mut took = Vec::new();
    let mut read_secs = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let log = Arc::new(CountingLog::new(
            Arc::clone(base) as Arc<dyn LogStorage>,
            Arc::clone(tracer),
        ));
        let _span = tracer.request("durability.recover");
        let (server, t) = timed(|| open(Arc::clone(&log)).map_err(|e| format!("restart: {e}")))?;
        took.push(t);
        read_secs.push(log.counts().read_ns as f64 / 1e9);
        last = Some(server);
    }
    Ok(Restarts {
        took,
        read_secs,
        server: last.expect("at least one restart"),
    })
}

/// `core.prepare_us`: the median time of `Server::prepare` on a fresh
/// server (empty plan cache) over `server`'s current data, across `n`
/// fresh servers and every template.
pub fn prepare_us(server: &Server, templates: &[SpcQuery], n: usize) -> BenchResult<f64> {
    let mut samples = Vec::new();
    for _ in 0..n {
        let mut db = (*server.snapshot()).clone();
        db.set_wal(None); // a probe: nothing it does may reach the log
        let fresh = Server::new(db, server.access().clone(), ServerConfig::default());
        for t in templates {
            let start = Instant::now();
            fresh
                .prepare(t)
                .map_err(|e| format!("prepare {}: {e}", t.name()))?;
            samples.push(start.elapsed().as_nanos() as u64);
        }
    }
    Ok(p50_us(samples))
}

/// Records the durability counters of a measured window in which `acks`
/// writes were acknowledged (every per-ack ratio reads 0 when none were).
pub fn record_durability(
    out: &mut Outcome,
    delta: &LogCounts,
    syncs: &[(u64, u64)],
    acks: u64,
    wal: (WalStats, WalStats),
) {
    let per_ack = |v: u64| {
        if acks == 0 {
            0.0
        } else {
            v as f64 / acks as f64
        }
    };
    out.set("durability.appends_per_ack", per_ack(delta.appends));
    out.set(
        "durability.append_bytes_per_ack",
        per_ack(delta.append_bytes),
    );
    out.set("durability.syncs_per_ack", per_ack(delta.syncs));
    out.set(
        "durability.sync_p50_us",
        p50_us(syncs.iter().map(|&(ns, _)| ns).collect()),
    );
    let open: Vec<f64> = syncs.iter().map(|&(_, n)| n as f64).collect();
    out.set(
        "durability.streams_open_at_sync",
        median(&open).unwrap_or(0.0),
    );
    let (w0, w1) = wal;
    let batches = w1.group_batches - w0.group_batches;
    let records = w1.group_records - w0.group_records;
    out.set(
        "durability.group_batch_mean",
        if batches == 0 {
            0.0
        } else {
            records as f64 / batches as f64
        },
    );
}
