//! The `read` workload: network `EXEC` of three bounded templates over
//! TPCH, from closed-loop clients on loopback.

use crate::common::{
    binding, bound_ratio, median_took, secs, serving_setup, templates, timed_setups,
    wall_clock_line, BenchResult, Config, Outcome, Rng, ServingData, CUST_PARAM,
};
use crate::host;
use crate::layers::{self, p50_us};
use crate::stats::{describe_us, Slices};
use crate::trace::{self, Tracer};
use bcq_core::prelude::{SpcQuery, Value};
use bcq_exec::{baseline, BaselineOptions};
use bcq_service::{NetClient, NetServer, PreparedQuery, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One client's tally over a measured phase.
#[derive(Debug, Default)]
struct Tally {
    /// Every successful `EXEC`: `(end, round trip)`, ns since the phase
    /// began.
    exec: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Kept answers: `(template, customer, rows)`.
    kept: Vec<(usize, u64, Vec<Vec<Value>>)>,
    /// In-process probe totals (traced phase only).
    fetched: u64,
    rows: u64,
    worst_bound_ratio: f64,
}

impl Tally {
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(format!("{what}: {e}"));
        }
    }

    fn merge(&mut self, o: Tally) {
        self.exec.extend(o.exec);
        self.attempted += o.attempted;
        self.failed += o.failed;
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
        self.kept.extend(o.kept);
        self.fetched += o.fetched;
        self.rows += o.rows;
        self.worst_bound_ratio = self.worst_bound_ratio.max(o.worst_bound_ratio);
    }
}

/// What a request's in-process probe compares the network path with.
struct Probe<'a> {
    tracer: &'a Tracer,
    prepared: Vec<Arc<PreparedQuery>>,
}

/// One closed-loop client until `deadline`.
fn client(
    cfg: &Config,
    data: &ServingData,
    addr: SocketAddr,
    tpls: &[SpcQuery],
    stream: u64,
    (begin, deadline): (Instant, Instant),
    probe: Option<&Probe<'_>>,
) -> Tally {
    let (server, customers) = (&data.server, data.customers());
    let mut t = Tally::default();
    let mut rng = Rng::new(cfg.seed, stream);
    let mut conn = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            t.attempted += 1;
            t.fail("connect", e);
            return t;
        }
    };
    let mut session = server.session();
    let mut n = 0u64;
    while Instant::now() < deadline {
        let which = rng.below(tpls.len() as u64) as usize;
        let cust = rng.below(customers);
        let _req = probe.and_then(|p| p.tracer.request("read.request"));
        t.attempted += 1;
        let start = Instant::now();
        let answer = {
            let _s = probe.and_then(|p| p.tracer.span("net.exec"));
            conn.exec(tpls[which].name(), &[(CUST_PARAM, Value::Int(cust as i64))])
        };
        match answer {
            Ok(rows) => {
                let end = Instant::now();
                t.exec.push((
                    (end - begin).as_nanos() as u64,
                    (end - start).as_nanos() as u64,
                ));
                if n.is_multiple_of(cfg.check_every) {
                    t.kept.push((which, cust, rows));
                }
            }
            Err(e) => t.fail("EXEC", e),
        }
        n += 1;
        let Some(p) = probe else { continue };
        t.attempted += 3;
        {
            let _s = p.tracer.span("net.ping");
            if let Err(e) = conn.ping() {
                t.fail("PING", e);
            }
        }
        let bind = binding(cust);
        {
            let _s = p.tracer.span("service.session_query");
            if let Err(e) = session.query(&tpls[which], &bind) {
                t.fail("Session::query", e);
            }
        }
        let resp = {
            let _s = p.tracer.span("exec.execute");
            server.execute(&p.prepared[which], &bind)
        };
        match resp {
            Ok(r) => {
                let fetched = r.stats.meter.tuples_fetched;
                t.fetched += fetched;
                t.rows += r.rows().map_or(0, |rs| rs.len() as u64);
                t.worst_bound_ratio = t
                    .worst_bound_ratio
                    .max(bound_ratio(&p.prepared[which], fetched));
            }
            Err(e) => t.fail("Server::execute", e),
        }
    }
    t
}

/// One connection's CPU and the front end that serves it.
///
/// Each connection is a client thread and a server connection thread
/// that strictly alternate, so both are pinned to one CPU: each hand-off
/// is then a local switch rather than a cross-CPU wakeup, whose latency
/// on a virtual machine follows the hypervisor's steal time. Connections
/// get CPUs in turn, so two connections on two CPUs still run in
/// parallel. Every connection has its own `NetServer` (all over the same
/// `Server`) because a connection thread runs where its accept thread
/// does.
struct Lane {
    cpu: usize,
    net: NetServer,
}

/// Binds one front end per connection, each from a thread pinned to the
/// connection's CPU.
fn lanes(cfg: &Config, server: &Arc<Server>, tpls: &[SpcQuery]) -> BenchResult<Vec<Lane>> {
    let cpus = host::allowed_cpus()?;
    (0..cfg.read_clients)
        .map(|i| {
            let cpu = cpus[i % cpus.len()];
            let server = Arc::clone(server);
            let tpls = tpls.to_vec();
            std::thread::spawn(move || -> BenchResult<Lane> {
                host::pin_to_cpu(cpu)?;
                let net = NetServer::bind(server, &tpls, "127.0.0.1:0")
                    .map_err(|e| format!("bind: {e}"))?;
                Ok(Lane { cpu, net })
            })
            .join()
            .map_err(|_| "binding thread panicked".to_string())?
        })
        .collect()
}

/// Runs one client per lane for `len`; returns their merged tally and the
/// phase's wall time (ns).
fn phase(
    cfg: &Config,
    data: &ServingData,
    lanes: &[Lane],
    tpls: &[SpcQuery],
    len: Duration,
    probe: Option<&Probe<'_>>,
    phase_no: u64,
) -> (Tally, u64) {
    let start = Instant::now();
    let deadline = start + len;
    let mut all = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0u64..)
            .zip(lanes)
            .map(|(c, lane)| {
                let (cpu, addr) = (lane.cpu, lane.net.addr());
                s.spawn(move || {
                    if let Err(e) = host::pin_to_cpu(cpu) {
                        let mut t = Tally {
                            attempted: 1,
                            ..Tally::default()
                        };
                        t.fail("pin client", e);
                        return t;
                    }
                    let window = (start, deadline);
                    client(cfg, data, addr, tpls, phase_no * 64 + c, window, probe)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(t) => all.merge(t),
                Err(_) => all.fail("client thread", "panicked"),
            }
        }
    });
    (all, start.elapsed().as_nanos() as u64)
}

/// Checks kept answers against the baseline oracle, and that each
/// request stays within its plan's static bound. Returns the worst
/// fetched/bound ratio.
fn check_answers(
    out: &mut Outcome,
    server: &Server,
    tpls: &[SpcQuery],
    kept: &[(usize, u64, Vec<Vec<Value>>)],
) -> BenchResult<f64> {
    let snap = server.snapshot();
    let mut mismatches = 0usize;
    let mut first = String::new();
    let mut worst = 0.0f64;
    for (which, cust, rows) in kept {
        let bind = binding(*cust);
        let ground = tpls[*which].instantiate(&bind);
        let oracle = baseline(&snap, &ground, server.access(), BaselineOptions::default())
            .map_err(|e| format!("baseline: {e}"))?;
        let want: Option<Vec<Vec<Value>>> = oracle
            .result()
            .map(|rs| rs.rows().iter().map(|r| r.to_vec()).collect());
        if want.as_ref() != Some(rows) {
            mismatches += 1;
            if first.is_empty() {
                first = format!("{} cust={cust}", tpls[*which].name());
            }
        }
        let prepared = server
            .prepare(&tpls[*which])
            .map_err(|e| format!("prepare: {e}"))?
            .query;
        let resp = server
            .execute(&prepared, &bind)
            .map_err(|e| format!("execute: {e}"))?;
        worst = worst.max(bound_ratio(&prepared, resp.stats.meter.tuples_fetched));
    }
    out.check(
        "read: EXEC answers equal the baseline oracle",
        mismatches == 0 && !kept.is_empty(),
        format!(
            "{} sampled answers, {mismatches} mismatched {first}",
            kept.len()
        ),
    );
    out.check(
        "read: tuples fetched within cost_bound()",
        worst <= 1.0,
        format!("worst fetched/bound {worst:.4}"),
    );
    Ok(worst)
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Arc<Tracer>) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    let tpls = templates();
    let (data, setup) = timed_setups(cfg.setups, || serving_setup(cfg, cfg.serving_sf, tracer))?;
    let lanes = lanes(cfg, &data.server, &tpls)?;
    let (plain_len, traced_len) = cfg.phases();

    let cpu0 = host::process_cpu_ns()?;
    let (plain, plain_ns) = phase(cfg, &data, &lanes, &tpls, plain_len, None, 0);
    let cpu_ns = host::process_cpu_ns()? - cpu0;
    let mut kept = plain.kept.clone();
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    let slices = Slices::new(plain.exec.iter().copied(), plain_ns, cfg.slice_ns);
    let (p50, p99) = (slices.percentile_us(0.5), slices.percentile_us(0.99));
    out.set("setup_s", median_took(&setup).cpu_s);
    out.set(
        "cpu_us_per_op",
        cpu_ns as f64 / 1e3 / plain.exec.len().max(1) as f64,
    );
    out.set("op_p50_us", p50.unwrap_or(0.0));
    let plain_lat: Vec<u64> = plain.exec.iter().map(|e| e.1).collect();

    let mut traced = None;
    if cfg.trace {
        layers::zero_per_layer(&mut out);
        let prepared = tpls
            .iter()
            .map(|t| data.server.prepare(t).map(|p| p.query))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("prepare: {e}"))?;
        let probe = Probe { tracer, prepared };
        let cache0 = data.server.cache_stats();
        let log0 = data.log.counts();
        let wal0 = data.server.wal_stats().unwrap_or_default();
        tracer.set_enabled(true);
        let (t, t_ns) = phase(cfg, &data, &lanes, &tpls, traced_len, Some(&probe), 1);
        tracer.set_enabled(false);
        let cache1 = data.server.cache_stats();
        out.attempted += t.attempted;
        out.failed += t.failed;
        kept.extend(t.kept.iter().cloned());
        if let Some(e) = &t.first_error {
            out.report.push(format!("read: first traced error: {e}"));
        }

        let spans = tracer.spans();
        let exec = p50_us(trace::durations(&spans, "net.exec"));
        let ping = p50_us(trace::durations(&spans, "net.ping"));
        let query = p50_us(trace::durations(&spans, "service.session_query"));
        let execute = p50_us(trace::durations(&spans, "exec.execute"));
        out.set("net.ping_rtt_p50_us", ping);
        out.set("service.session_query_p50_us", query);
        out.set("exec.execute_p50_us", execute);
        out.set("net.unattributed_us", exec - ping - query);
        let lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
        if lookups > 0 {
            out.set(
                "service.plan_cache_hit_ratio",
                (cache1.hits - cache0.hits) as f64 / lookups as f64,
            );
            out.set(
                "service.revalidations_per_read",
                (cache1.revalidations - cache0.revalidations) as f64 / lookups as f64,
            );
        }
        if t.rows > 0 {
            out.set("exec.fetched_per_row", t.fetched as f64 / t.rows as f64);
        }
        out.set("exec.fetched_over_bound_max", t.worst_bound_ratio);
        out.set(
            "core.prepare_us",
            layers::prepare_us(&data.server, &tpls, cfg.prepare_servers)?,
        );
        let wal1 = data.server.wal_stats().unwrap_or_default();
        layers::record_durability(
            &mut out,
            &data.log.counts().since(&log0),
            &data.log.sync_samples(),
            0,
            (wal0, wal1),
        );
        out.report.push(format!(
            "ledger read: EXEC round trip p50 {exec:.2} us = transport (PING p50) {ping:.2} \
             + Session::query p50 {query:.2} [exec: Server::execute p50 {execute:.2}; \
             service: plan-cache lookup and the rest {:.2}] + unattributed {:.2} \
             (codec, bind map, formatting, wakeups)",
            query - execute,
            exec - ping - query
        ));
        traced = Some((t, t_ns, exec));
    }
    for lane in lanes {
        lane.net.shutdown();
    }

    let worst = check_answers(&mut out, &data.server, &tpls, &kept)?;
    if cfg.trace {
        let m = out.metrics["exec.fetched_over_bound_max"];
        out.set("exec.fetched_over_bound_max", m.max(worst));
    }
    out.check(
        "read: every one-second slice supports a p50 and a p99",
        p50.is_some() && p99.is_some(),
        format!(
            "{} EXEC round trips in {} slices",
            plain.exec.len(),
            slices.len()
        ),
    );
    if let Some((t, t_ns, exec)) = traced {
        let plain_p50 = p50_us(plain_lat.clone());
        out.report.push(format!(
            "tracing overhead read: EXEC p50 traced {exec:.2} - untraced {plain_p50:.2} = {:.2} us; \
             EXEC/s traced {:.0} vs untraced {:.0} (traced requests also run the probes)",
            exec - plain_p50,
            t.exec.len() as f64 / secs(t_ns),
            plain.exec.len() as f64 / secs(plain_ns)
        ));
    }

    // The restart lane: snapshot restore, no log to replay.
    let rows = |snap: &bcq_storage::Database| -> Vec<usize> {
        (0..snap.num_relations())
            .map(|r| snap.table(bcq_core::prelude::RelId(r)).len())
            .collect()
    };
    let rows_before = rows(&data.server.snapshot());
    let base = Arc::clone(&data.base);
    drop(data);
    tracer.set_enabled(cfg.trace);
    let restarts = layers::restart(&base, cfg.restarts, tracer)?;
    tracer.set_enabled(false);
    out.set("recovery_s", restarts.median().cpu_s);
    if cfg.trace {
        restarts.record_layers(&mut out);
    }
    let rows_after = rows(&restarts.server.snapshot());
    out.check(
        "read: restart restores every row",
        rows_after == rows_before,
        format!("{} rows", rows_after.iter().sum::<usize>()),
    );
    out.report.push(format!(
        "read: {} connections (client and server thread of each pinned to one CPU), \
         {} EXEC, {} kept answers checked",
        cfg.read_clients,
        plain.exec.len(),
        kept.len()
    ));
    out.report
        .push(format!("read: untraced EXEC {}", describe_us(&plain_lat)));
    let rate = format!("EXEC/s {:.0}", slices.rate_per_s().unwrap_or(0.0));
    out.report
        .push(wall_clock_line("read", &rate, p99, &setup, &restarts.took));
    if let Some(e) = plain.first_error {
        out.report.push(format!("read: first error: {e}"));
    }
    Ok(out)
}
