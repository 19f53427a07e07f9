//! The `write` workload: seeded new-order transactions from one network
//! session against a durable server, then a timed restart that restores
//! the set-up snapshot and replays the run's writes.

use crate::common::{
    binding, bound_ratio, median_took, rel, serving_setup, templates, timed_setups,
    wall_clock_line, BenchResult, Config, Outcome, Rng, ServingData, CUST_PARAM,
};
use crate::host;
use crate::layers::{self, p50_us};
use crate::stats::{describe_us, Slices};
use crate::trace::{self, Tracer};
use bcq_core::prelude::{SpcQuery, Value};
use bcq_service::{NetClient, NetServer, PreparedQuery, Server, Session};
use bcq_storage::validate;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounds the generator keeps so that `D |= A` holds by construction:
/// `o_custkey → o_orderkey` (64), `(o_custkey, o_orderdate) → o_orderkey`
/// (4), `l_orderkey → lineitem` (7); every other value is drawn inside its
/// bounded domain, exactly as `bcq_workload::tpch` draws it.
const MAX_ORDERS_PER_CUST: u32 = 64;
const MAX_ORDERS_PER_CUST_DATE: u32 = 4;
const MAX_LINES: u64 = 7;
const DATES: u64 = 2_406;
const SHIP_DATES: u64 = 2_600;

/// One new-order transaction.
struct Txn {
    cust: u64,
    okey: u64,
    order: Vec<Value>,
    lines: Vec<Vec<Value>>,
}

/// The seeded transaction stream.
struct TxnGen {
    rng: Rng,
    next_okey: u64,
    parts: u64,
    suppliers: u64,
    customers: u64,
    per_cust: Vec<u32>,
    per_cust_date: HashMap<(u64, u64), u32>,
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

impl TxnGen {
    /// Starts after the orders already stored in `data`, counting them
    /// against the per-customer bounds.
    fn new(cfg: &Config, data: &ServingData) -> TxnGen {
        let snap = data.server.snapshot();
        let mut per_cust = vec![0u32; data.customers() as usize];
        let mut per_cust_date = HashMap::new();
        let mut max_okey = 0u64;
        for row in snap.value_rows(rel("orders")) {
            let (Value::Int(okey), Value::Int(cust), Value::Int(date)) =
                (&row[0], &row[1], &row[4])
            else {
                continue;
            };
            max_okey = max_okey.max(*okey as u64);
            per_cust[*cust as usize] += 1;
            *per_cust_date
                .entry((*cust as u64, *date as u64))
                .or_insert(0) += 1;
        }
        TxnGen {
            rng: Rng::new(cfg.seed, 0x5752),
            next_okey: max_okey + 1,
            parts: data.rows[rel("part").0],
            suppliers: data.rows[rel("supplier").0],
            customers: data.customers(),
            per_cust,
            per_cust_date,
        }
    }

    fn cat(&mut self, n: u64) -> Value {
        int(self.rng.below(n))
    }

    /// The next transaction, or `None` once no customer has room left.
    fn next(&mut self) -> Option<Txn> {
        let (cust, date) = (0..1000).find_map(|_| {
            let c = self.rng.below(self.customers);
            let d = self.rng.below(DATES);
            let room = self.per_cust[c as usize] < MAX_ORDERS_PER_CUST
                && self.per_cust_date.get(&(c, d)).copied().unwrap_or(0) < MAX_ORDERS_PER_CUST_DATE;
            room.then_some((c, d))
        })?;
        self.per_cust[cust as usize] += 1;
        *self.per_cust_date.entry((cust, date)).or_insert(0) += 1;
        let okey = self.next_okey;
        self.next_okey += 1;
        let order = vec![
            int(okey),
            int(cust),
            self.cat(3),
            self.cat(1000),
            int(date),
            self.cat(5),
            int(okey % 1000),
            Value::Int(0),
            self.cat(100),
        ];
        let n = 1 + self.rng.below(MAX_LINES);
        let lines = (0..n)
            .map(|ln| {
                let ship = (date + 1 + self.rng.below(120)) % SHIP_DATES;
                vec![
                    int(okey),
                    int(self.rng.below(self.parts)),
                    int(self.rng.below(self.suppliers)),
                    int(ln),
                    int(1 + self.rng.below(50)),
                    self.cat(1000),
                    self.cat(11),
                    self.cat(9),
                    self.cat(3),
                    self.cat(2),
                    int(ship),
                    int((ship + 14) % SHIP_DATES),
                    int((ship + 21) % SHIP_DATES),
                    self.cat(4),
                    self.cat(7),
                    self.cat(100),
                ]
            })
            .collect();
        Some(Txn {
            cust,
            okey,
            order,
            lines,
        })
    }
}

/// A phase's tally.
#[derive(Debug, Default)]
struct Tally {
    /// Network INSERT acks: `(end, latency)`, ns since the phase began.
    acks: Vec<(u64, u64)>,
    /// Completed transactions: `(end, duration)`, ns since the phase began.
    done: Vec<(u64, u64)>,
    /// Network readback round trips (ns).
    readback_ns: Vec<u64>,
    /// In-process `Server::insert` calls (ns; traced phase).
    insert_ns: Vec<u64>,
    inserts: u64,
    readbacks: u64,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Readbacks that did not contain the order just inserted.
    missing: u64,
    /// Every acknowledged row: `(relation, row)`.
    acked: Vec<(&'static str, Vec<Value>)>,
    worst_bound_ratio: f64,
}

impl Tally {
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(format!("{what}: {e}"));
        }
    }
}

/// How a transaction reaches the server.
enum Path<'a> {
    /// Through the network front end, reading back with `EXEC` of the
    /// template.
    Net(&'a mut NetClient, &'a SpcQuery),
    /// In process, through `Server::insert` and `Session::query`.
    Local(&'a Server, &'a mut Session, &'a SpcQuery, &'a PreparedQuery),
}

/// Runs one transaction; returns whether every step succeeded.
fn run_txn(t: &mut Tally, txn: Txn, path: Path<'_>, begin: Instant, tracer: &Tracer) -> bool {
    let rows = std::iter::once(("orders", txn.order))
        .chain(txn.lines.into_iter().map(|l| ("lineitem", l)));
    let found = match path {
        Path::Net(conn, tpl) => {
            for (rel_name, row) in rows {
                t.attempted += 1;
                let start = Instant::now();
                let ack = {
                    let _s = tracer.span("net.insert");
                    conn.insert(rel_name, &row)
                };
                match ack {
                    Ok(_) => {
                        let end = Instant::now();
                        t.acks.push((
                            (end - begin).as_nanos() as u64,
                            (end - start).as_nanos() as u64,
                        ));
                        t.inserts += 1;
                        t.acked.push((rel_name, row));
                    }
                    Err(e) => {
                        t.fail("INSERT", e);
                        return false;
                    }
                }
            }
            t.attempted += 1;
            let start = Instant::now();
            let answer = {
                let _s = tracer.span("net.exec");
                conn.exec(tpl.name(), &[(CUST_PARAM, Value::Int(txn.cust as i64))])
            };
            let found = match answer {
                Ok(rows) => {
                    t.readback_ns.push(start.elapsed().as_nanos() as u64);
                    rows.iter().any(|r| r.first() == Some(&int(txn.okey)))
                }
                Err(e) => {
                    t.fail("EXEC", e);
                    return false;
                }
            };
            if tracer.enabled() {
                t.attempted += 1;
                let _s = tracer.span("net.ping");
                if let Err(e) = conn.ping() {
                    t.fail("PING", e);
                }
            }
            found
        }
        Path::Local(server, session, tpl, prepared) => {
            for (rel_name, row) in rows {
                t.attempted += 1;
                let start = Instant::now();
                let ack = {
                    let _s = tracer.span("service.insert");
                    server.insert(rel_name, &row)
                };
                match ack {
                    Ok(_) => {
                        t.insert_ns.push(start.elapsed().as_nanos() as u64);
                        t.inserts += 1;
                        t.acked.push((rel_name, row));
                    }
                    Err(e) => {
                        t.fail("Server::insert", e);
                        return false;
                    }
                }
            }
            t.attempted += 1;
            let answer = {
                let _s = tracer.span("service.session_query");
                session.query(tpl, &binding(txn.cust))
            };
            match answer {
                Ok(resp) => {
                    let ratio = bound_ratio(prepared, resp.stats.meter.tuples_fetched);
                    t.worst_bound_ratio = t.worst_bound_ratio.max(ratio);
                    resp.rows().is_some_and(|rs| rs.contains(&[int(txn.okey)]))
                }
                Err(e) => {
                    t.fail("Session::query", e);
                    return false;
                }
            }
        }
    };
    t.readbacks += 1;
    if !found {
        t.missing += 1;
    }
    true
}

/// Runs `txns` transactions; when tracing, every other transaction goes
/// in process instead of over the network. Returns the tally and the
/// phase's wall time (ns).
fn phase(
    gen: &mut TxnGen,
    conn: &mut NetClient,
    server: &Arc<Server>,
    tpl: &SpcQuery,
    txns: u64,
    tracer: &Tracer,
) -> BenchResult<(Tally, u64)> {
    let mut t = Tally::default();
    let prepared = server
        .prepare(tpl)
        .map_err(|e| format!("prepare: {e}"))?
        .query;
    let mut local = server.session();
    let begin = Instant::now();
    for n in 0..txns {
        let txn = gen
            .next()
            .ok_or("the transaction stream ran out of customers with room")?;
        let _req = tracer.request("write.txn");
        let path = if tracer.enabled() && n % 2 == 1 {
            Path::Local(server, &mut local, tpl, &prepared)
        } else {
            Path::Net(conn, tpl)
        };
        let start = Instant::now();
        if run_txn(&mut t, txn, path, begin, tracer) {
            let end = Instant::now();
            t.done.push((
                (end - begin).as_nanos() as u64,
                (end - start).as_nanos() as u64,
            ));
        }
    }
    Ok((t, begin.elapsed().as_nanos() as u64))
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Arc<Tracer>) -> BenchResult<Outcome> {
    let mut out = Outcome::default();
    // One session is one client thread and one server connection thread
    // that strictly alternate, so the load can use one CPU at a time. On
    // one CPU each hand-off is a local switch; across CPUs it waits for a
    // cross-CPU wakeup, whose latency on a virtual machine follows the
    // hypervisor's steal time (p99 ack 0.9–2.6 ms across CPUs vs 58 µs on
    // one, measured at 16–20% steal on a 2-vCPU host).
    let cpu = host::allowed_cpus()?[0];
    host::pin_to_cpu(cpu)?;
    out.report
        .push(format!("write: every thread pinned to CPU {cpu}"));
    let tpls = templates();
    let readback = &tpls[0];
    let (data, setup) = timed_setups(cfg.setups, || serving_setup(cfg, cfg.serving_sf, tracer))?;
    let rows_before: u64 = data.rows.iter().sum();
    let mut gen = TxnGen::new(cfg, &data);
    let net = NetServer::bind(Arc::clone(&data.server), &tpls, "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let mut conn = NetClient::connect(net.addr()).map_err(|e| format!("connect: {e}"))?;
    let (plain_len, traced_len) = cfg.phases();
    let txns = |len: Duration| (len.as_secs_f64() * cfg.write_txns_per_s).ceil() as u64;

    let cpu0 = host::process_cpu_ns()?;
    let (plain, plain_ns) = phase(
        &mut gen,
        &mut conn,
        &data.server,
        readback,
        txns(plain_len),
        tracer,
    )?;
    let cpu_ns = host::process_cpu_ns()? - cpu0;
    let ack_slices = Slices::new(plain.acks.iter().copied(), plain_ns, cfg.slice_ns);
    let (p50, p99) = (
        ack_slices.percentile_us(0.5),
        ack_slices.percentile_us(0.99),
    );
    let txn_slices = Slices::new(plain.done.iter().copied(), plain_ns, cfg.slice_ns);
    out.set("setup_s", median_took(&setup).cpu_s);
    out.set(
        "cpu_us_per_op",
        cpu_ns as f64 / 1e3 / plain.done.len().max(1) as f64,
    );
    out.set("op_p50_us", p50.unwrap_or(0.0));
    let plain_acks: Vec<u64> = plain.acks.iter().map(|a| a.1).collect();
    let mut tallies = vec![plain];

    if cfg.trace {
        layers::zero_per_layer(&mut out);
        let cache0 = data.server.cache_stats();
        let log0 = data.log.counts();
        let wal0 = data.server.wal_stats().unwrap_or_default();
        let cow0 = data.server.snapshot().cow_cells_cloned();
        tracer.set_enabled(true);
        let (t, _) = phase(
            &mut gen,
            &mut conn,
            &data.server,
            readback,
            txns(traced_len),
            tracer,
        )?;
        tracer.set_enabled(false);
        let cache1 = data.server.cache_stats();
        let wal1 = data.server.wal_stats().unwrap_or_default();
        let cow1 = data.server.snapshot().cow_cells_cloned();
        let delta = data.log.counts().since(&log0);

        let spans = tracer.spans();
        let ping = p50_us(trace::durations(&spans, "net.ping"));
        let net_insert = p50_us(trace::durations(&spans, "net.insert"));
        let local_insert = p50_us(t.insert_ns.clone());
        out.set("net.ping_rtt_p50_us", ping);
        out.set(
            "service.session_query_p50_us",
            p50_us(trace::durations(&spans, "service.session_query")),
        );
        out.set("service.insert_p50_us", local_insert);
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
        out.set(
            "core.prepare_us",
            layers::prepare_us(&data.server, &tpls, cfg.prepare_servers)?,
        );
        if t.inserts > 0 {
            out.set(
                "storage.cow_cells_per_write",
                (cow1 - cow0) as f64 / t.inserts as f64,
            );
        }
        layers::record_durability(
            &mut out,
            &delta,
            &data.log.sync_samples(),
            t.inserts,
            (wal0, wal1),
        );
        let per_ack = |name: &str| {
            let total: u64 = trace::durations(&spans, name).iter().sum();
            total as f64 / 1e3 / t.inserts.max(1) as f64
        };
        let (append, sync) = (per_ack("durability.append"), per_ack("durability.sync"));
        out.report.push(format!(
            "ledger write: INSERT ack p50 over the network {net_insert:.2} us = in-process \
             Server::insert p50 {local_insert:.2} [durability per ack: append {append:.2} + \
             sync {sync:.2}; service and storage: the rest] + network {:.2} (PING p50 {ping:.2})",
            net_insert - local_insert
        ));
        let plain_p50 = p50_us(plain_acks.clone());
        out.report.push(format!(
            "tracing overhead write: INSERT ack p50 traced {net_insert:.2} - untraced \
             {plain_p50:.2} = {:.2} us",
            net_insert - plain_p50
        ));
        tallies.push(t);
    }
    drop(conn);
    net.shutdown();

    let (mut readbacks, mut missing) = (0, 0);
    for t in &tallies {
        out.attempted += t.attempted;
        out.failed += t.failed;
        readbacks += t.readbacks;
        missing += t.missing;
        if let Some(e) = &t.first_error {
            out.report.push(format!("write: first error: {e}"));
        }
    }
    out.check(
        "write: every readback holds the order just inserted",
        missing == 0 && readbacks > 0,
        format!("{readbacks} readbacks, {missing} without their order"),
    );
    // Every customer's readback after the run, on top of the traced
    // phase's in-process readbacks: customers now hold up to 64 orders.
    let prepared = data
        .server
        .prepare(readback)
        .map_err(|e| format!("prepare: {e}"))?
        .query;
    let mut worst = tallies
        .iter()
        .map(|t| t.worst_bound_ratio)
        .fold(0.0, f64::max);
    for cust in 0..data.customers() {
        let resp = data
            .server
            .execute(&prepared, &binding(cust))
            .map_err(|e| format!("execute: {e}"))?;
        worst = worst.max(bound_ratio(&prepared, resp.stats.meter.tuples_fetched));
    }
    if cfg.trace {
        out.set("exec.fetched_over_bound_max", worst);
    }
    out.check(
        "write: tuples fetched within cost_bound()",
        worst <= 1.0,
        format!("worst fetched/bound {worst:.4} over every customer's readback after the run"),
    );
    out.check(
        "write: every one-second slice supports a p50 and a p99",
        p50.is_some() && p99.is_some() && !txn_slices.is_empty(),
        format!("{} acks in {} slices", plain_acks.len(), ack_slices.len()),
    );

    // The restart lane: snapshot restore plus replay of the run's writes.
    let base = Arc::clone(&data.base);
    drop(data);
    tracer.set_enabled(cfg.trace);
    let restarts = layers::restart(&base, cfg.restarts, tracer)?;
    tracer.set_enabled(false);
    out.set("recovery_s", restarts.median().cpu_s);
    if cfg.trace {
        restarts.record_layers(&mut out);
    }
    let snap = restarts.server.snapshot();
    let acked: Vec<&(&str, Vec<Value>)> = tallies.iter().flat_map(|t| &t.acked).collect();
    let mut lost = 0usize;
    for (rel_name, row) in &acked {
        if !snap.contains_row(rel(rel_name), row).unwrap_or(false) {
            lost += 1;
        }
    }
    out.check(
        "write: every acknowledged row survives the restart",
        lost == 0 && snap.total_tuples() as u64 == rows_before + acked.len() as u64,
        format!(
            "{} acked, {lost} lost, {} rows after restart",
            acked.len(),
            snap.total_tuples()
        ),
    );
    let mut db = (*snap).clone();
    db.set_wal(None);
    let violations = validate(&mut db, restarts.server.access());
    out.check(
        "write: D |= A after the restart",
        violations.is_empty(),
        violations
            .first()
            .map_or_else(|| "no violation".to_string(), |v| v.to_string()),
    );
    out.report.push(format!(
        "write: {} transactions, {} INSERT acks, {readbacks} readbacks",
        tallies.iter().map(|t| t.done.len()).sum::<usize>(),
        acked.len(),
    ));
    out.report.push(format!(
        "write: untraced INSERT ack {}",
        describe_us(&plain_acks)
    ));
    let rate = format!(
        "transactions/s {:.0}",
        txn_slices.rate_per_s().unwrap_or(0.0)
    );
    out.report
        .push(wall_clock_line("write", &rate, p99, &setup, &restarts.took));
    out.report.push(format!(
        "write: untraced readback EXEC {}",
        describe_us(&tallies[0].readback_ns)
    ));
    Ok(out)
}
