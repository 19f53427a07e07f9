//! The `ingest` workload: every TPCH relation bulk-loaded into an empty
//! durable server, chunk by chunk, then a timed restart that replays the
//! whole load from the log.

use crate::common::{
    bulk_load_source, median_took, open, secs, timed_setups, wall_clock_line, BenchResult, Config,
    Outcome, Took,
};
use crate::countlog::CountingLog;
use crate::host;
use crate::layers;
use crate::stats::{median, percentile_us};
use crate::trace::Tracer;
use bcq_exec::ResultSet;
use bcq_service::{LogStorage, MemLog, Server};
use bcq_workload::{tpch, RowSource};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// An empty durable server and the log under it.
struct Empty {
    server: Arc<Server>,
    base: Arc<MemLog>,
    log: Arc<CountingLog>,
}

/// The workload's set-up: an empty durable server over a fresh log.
fn empty(tracer: &Arc<Tracer>) -> BenchResult<Empty> {
    let base = Arc::new(MemLog::new());
    let log = Arc::new(CountingLog::new(
        Arc::clone(&base) as Arc<dyn LogStorage>,
        Arc::clone(tracer),
    ));
    let server = open(Arc::clone(&log)).map_err(|e| format!("open empty server: {e}"))?;
    Ok(Empty {
        server: Arc::new(server),
        base,
        log,
    })
}

/// Totals of the load-and-restart cycles of one phase.
#[derive(Debug, Default)]
struct Tally {
    cycles: u64,
    rows: u64,
    load_ns: u64,
    /// Per cycle: rows per second of its loads, CPU µs per row loaded,
    /// and the p50 and p99 of its chunk latencies (µs).
    cycle_rows_per_s: Vec<f64>,
    cycle_cpu_us_per_row: Vec<f64>,
    cycle_p50_us: Vec<f64>,
    cycle_p99_us: Vec<f64>,
    gen_ns: u64,
    push_ns: u64,
    /// Time in `bulk_load` after the loader closure, minus log syncs.
    build_ns: u64,
    append_bytes: u64,
    chunk_ns: Vec<u64>,
    recovery: Vec<Took>,
    read_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

/// The answers of every effectively bounded TPCH workload query.
fn answers(server: &Arc<Server>) -> BenchResult<Vec<ResultSet>> {
    let mut session = server.session();
    tpch::queries()
        .iter()
        .filter(|w| w.expect_effectively_bounded)
        .map(|w| {
            let resp = session
                .query(&w.query, &BTreeMap::new())
                .map_err(|e| format!("{}: {e}", w.query.name()))?;
            resp.rows()
                .cloned()
                .ok_or_else(|| format!("{}: did not finish", w.query.name()))
        })
        .collect()
}

/// Per-relation row counts of a server, for `sources`' relations.
fn row_counts(server: &Server, sources: &[Box<dyn RowSource>]) -> Vec<u64> {
    let snap = server.snapshot();
    sources
        .iter()
        .map(|s| snap.table(s.rel()).len() as u64)
        .collect()
}

/// One cycle: load every source into `e`, check, drop the server, and
/// time its restart.
fn cycle(
    cfg: &Config,
    sources: &[Box<dyn RowSource>],
    e: Empty,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
    t: &mut Tally,
) -> BenchResult<()> {
    let want: Vec<u64> = sources.iter().map(|s| s.total_rows()).collect();
    let log0 = e.log.counts();
    let (rows0, load0, chunks0) = (t.rows, t.load_ns, t.chunk_ns.len());
    let mut cpu_ns = 0;
    for src in sources {
        t.attempted += 1;
        let sync0 = e.log.counts().sync_ns;
        let cpu0 = host::thread_cpu_ns()?;
        let loaded = bulk_load_source(&e.server, src.as_ref(), cfg.chunk_rows, tracer);
        cpu_ns += host::thread_cpu_ns()? - cpu0;
        match loaded {
            Ok(l) => {
                let sync_ns = e.log.counts().sync_ns - sync0;
                t.rows += l.rows;
                t.load_ns += l.total_ns;
                t.gen_ns += l.gen_ns;
                t.push_ns += l.push_ns;
                t.build_ns += l.after_ns.saturating_sub(sync_ns);
                t.chunk_ns.extend(l.chunk_ns);
            }
            Err(err) => {
                t.failed += 1;
                t.first_error
                    .get_or_insert_with(|| format!("bulk_load: {err}"));
            }
        }
    }
    t.append_bytes += e.log.counts().since(&log0).append_bytes;
    t.cycle_rows_per_s
        .push((t.rows - rows0) as f64 / secs(t.load_ns - load0));
    t.cycle_cpu_us_per_row
        .push(cpu_ns as f64 / 1e3 / (t.rows - rows0).max(1) as f64);
    let mut chunks = t.chunk_ns[chunks0..].to_vec();
    let (p50, p99) = (
        percentile_us(&mut chunks, 0.5),
        percentile_us(&mut chunks, 0.99),
    );
    out.check(
        format!("ingest: cycle {} chunks support a p50 and a p99", t.cycles),
        p50.is_some() && p99.is_some(),
        format!("{} chunks of {} rows", chunks.len(), cfg.chunk_rows),
    );
    t.cycle_p50_us.push(p50.unwrap_or(0.0));
    t.cycle_p99_us.push(p99.unwrap_or(0.0));
    let loaded = row_counts(&e.server, sources);
    out.check(
        format!(
            "ingest: cycle {} row counts equal total_rows() after the load",
            t.cycles
        ),
        loaded == want,
        format!("{} rows", loaded.iter().sum::<u64>()),
    );
    let before = answers(&e.server)?;
    let base = e.base;
    drop(e.server);
    t.attempted += 1;
    let restarts = layers::restart(&base, 1, tracer)?;
    t.recovery.extend(&restarts.took);
    t.read_s.extend(&restarts.read_secs);
    let recovered = row_counts(&restarts.server, sources);
    out.check(
        format!(
            "ingest: cycle {} row counts equal total_rows() after recovery",
            t.cycles
        ),
        recovered == want,
        format!("{} rows", recovered.iter().sum::<u64>()),
    );
    let server = Arc::new(restarts.server);
    let after = answers(&server)?;
    out.check(
        format!(
            "ingest: cycle {} bounded query answers equal before and after recovery",
            t.cycles
        ),
        after == before,
        format!("{} queries", before.len()),
    );
    t.cycles += 1;
    Ok(())
}

/// Runs the load-and-restart cycles of a phase of length `len`; the
/// first cycle loads into `first`, later ones into fresh set-ups.
fn phase(
    cfg: &Config,
    sources: &[Box<dyn RowSource>],
    first: Empty,
    len: Duration,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> BenchResult<Tally> {
    let mut t = Tally::default();
    let mut next = Some(first);
    while t.cycles < cfg.ingest_loads(len) {
        let e = match next.take() {
            Some(e) => e,
            None => empty(tracer)?,
        };
        cycle(cfg, sources, e, tracer, out, &mut t)?;
    }
    Ok(t)
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Arc<Tracer>) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let (setup, setup_took) = timed_setups(cfg.ingest_setups, || empty(tracer))?;
    let sources = tpch::sources(cfg.ingest_sf, cfg.seed);
    let (plain_len, traced_len) = cfg.phases();

    let plain = phase(cfg, &sources, setup, plain_len, tracer, &mut out)?;
    let rows_per_s = median(&plain.cycle_rows_per_s).unwrap_or(0.0);
    out.set("setup_s", median_took(&setup_took).cpu_s);
    out.set(
        "cpu_us_per_op",
        median(&plain.cycle_cpu_us_per_row).unwrap_or(0.0),
    );
    out.set("op_p50_us", median(&plain.cycle_p50_us).unwrap_or(0.0));
    out.set("recovery_s", median_took(&plain.recovery).cpu_s);
    let mut tallies = vec![plain];

    if cfg.trace {
        layers::zero_per_layer(&mut out);
        tracer.set_enabled(true);
        let t = phase(cfg, &sources, empty(tracer)?, traced_len, tracer, &mut out)?;
        tracer.set_enabled(false);
        let per_cycle = |ns: u64| secs(ns) / t.cycles as f64;
        let (gen, push, build) = (
            per_cycle(t.gen_ns),
            per_cycle(t.push_ns),
            per_cycle(t.build_ns),
        );
        let load = per_cycle(t.load_ns);
        out.set("workload.gen_s", gen);
        out.set("storage.bulk_push_s", push);
        out.set("storage.index_build_s", build);
        out.set(
            "durability.wal_bytes_per_row",
            t.append_bytes as f64 / t.rows as f64,
        );
        let wall: Vec<f64> = t.recovery.iter().map(|r| r.wall_s).collect();
        layers::record_recovery(&mut out, &wall, &t.read_s);
        let spans = tracer.spans();
        let append = secs(
            crate::trace::durations(&spans, "durability.append")
                .iter()
                .sum(),
        ) / t.cycles as f64;
        let sync = secs(
            crate::trace::durations(&spans, "durability.sync")
                .iter()
                .sum(),
        ) / t.cycles as f64;
        out.report.push(format!(
            "ledger ingest: bulk_load per load {load:.3} s = generation {gen:.3} + push {push:.3} \
             [of which log append {append:.3}] + index build {build:.3} + log sync {sync:.3} \
             + unattributed {:.3}; recovery {:.3} s = log read {:.3} + replay {:.3}",
            load - gen - push - build - sync,
            out.metrics["durability.log_read_s"] + out.metrics["durability.replay_s"],
            out.metrics["durability.log_read_s"],
            out.metrics["durability.replay_s"],
        ));
        out.report.push(format!(
            "tracing overhead ingest: rows/s traced {:.0} vs untraced {rows_per_s:.0}",
            median(&t.cycle_rows_per_s).unwrap_or(0.0)
        ));
        tallies.push(t);
    }
    for t in &tallies {
        out.attempted += t.attempted;
        out.failed += t.failed;
        if let Some(e) = &t.first_error {
            out.report.push(format!("ingest: first error: {e}"));
        }
    }
    out.report.push(format!(
        "ingest: SF {} = {} rows per load, {} untraced loads",
        cfg.ingest_sf,
        sources.iter().map(|s| s.total_rows()).sum::<u64>(),
        tallies[0].cycles,
    ));
    let p99 = median(&tallies[0].cycle_p99_us);
    out.report.push(wall_clock_line(
        "ingest",
        &format!("rows/s {rows_per_s:.0}"),
        p99,
        &setup_took,
        &tallies[0].recovery,
    ));
    Ok(out)
}
