//! What the workloads share: run configuration, the seeded generator,
//! the query templates, durable server set-up, and the run outcome.

use crate::countlog::CountingLog;
use crate::trace::Tracer;
use bcq_core::prelude::{RelId, SpcQuery, Value};
use bcq_service::{
    DurabilityConfig, LogStorage, MemLog, PreparedQuery, Server, ServerConfig, ServiceError,
    SyncPolicy,
};
use bcq_workload::{tpch, RowSource};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's error type: a message naming what failed.
pub type BenchResult<T> = Result<T, String>;

/// Sizes and repetitions of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of the TPCH data and of the key and transaction streams.
    pub seed: u64,
    /// Measured seconds per run (split between the untraced and the
    /// traced phase when tracing).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// TPCH scale factor of the serving data (`read`, `write`).
    pub serving_sf: f64,
    /// TPCH scale factor of one bulk load (`ingest`).
    pub ingest_sf: f64,
    /// Bulk loads per second of `seconds` (`ingest` runs a fixed number of
    /// loads: the first load of a process runs on cold memory, so a count
    /// that varied with the host's speed would move the median).
    pub ingest_loads_per_s: f64,
    /// Rows per bulk-load chunk (`ingest`).
    pub chunk_rows: usize,
    /// Set-ups made per run; `setup_s` is their median.
    pub setups: usize,
    /// Set-ups made per `ingest` run: an empty server opens in about
    /// 0.15 ms, so the median takes more repeats to settle.
    pub ingest_setups: usize,
    /// New-order transactions per second of `seconds` (`write` runs a
    /// fixed amount of work, so that its restart replays the same log and
    /// its memory peak is the same whatever the host's speed).
    pub write_txns_per_s: f64,
    /// Restarts timed per run; `recovery_s` is their median.
    pub restarts: usize,
    /// Client connections of the `read` workload.
    pub read_clients: usize,
    /// Fresh servers that each prepare every template (`core.prepare_us`).
    pub prepare_servers: usize,
    /// Every `check_every`-th request's answer is kept and checked.
    pub check_every: u64,
    /// Length of the slices a measured phase is cut into (ns; see
    /// [`crate::stats::Slices`]).
    pub slice_ns: u64,
}

impl Config {
    /// The configuration the benchmark command runs.
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            seed,
            seconds,
            trace,
            serving_sf: 10.0,
            ingest_sf: 40.0,
            ingest_loads_per_s: 0.2,
            chunk_rows: 512,
            setups: 5,
            ingest_setups: 25,
            write_txns_per_s: 3000.0,
            restarts: 5,
            read_clients: crate::host::nproc().clamp(1, 2),
            prepare_servers: 10,
            check_every: 1024,
            slice_ns: 1_000_000_000,
        }
    }

    /// A seconds-long run over tiny data, for the benchmark's own tests.
    pub fn tiny(seed: u64, trace: bool) -> Config {
        Config {
            serving_sf: 0.5,
            ingest_sf: 0.5,
            chunk_rows: 4,
            setups: 2,
            restarts: 2,
            prepare_servers: 7,
            check_every: 4,
            write_txns_per_s: 10_000.0,
            slice_ns: 250_000_000,
            ..Config::full(seed, 0.6, trace)
        }
    }

    /// Bulk loads of an `ingest` phase of length `len` (at least one).
    pub fn ingest_loads(&self, len: Duration) -> u64 {
        ((len.as_secs_f64() * self.ingest_loads_per_s).round() as u64).max(1)
    }

    /// Seconds of the untraced phase, and of the traced one (0 when
    /// untraced).
    pub fn phases(&self) -> (Duration, Duration) {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            (half, half)
        } else {
            (Duration::from_secs_f64(self.seconds), Duration::ZERO)
        }
    }
}

/// SplitMix64: a small seeded generator for keys and transactions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The parameter every template is keyed by.
pub const CUST_PARAM: &str = "cust";

/// The three parameterised, effectively bounded read templates, each
/// keyed by a customer: their orders; the parts on those orders
/// (orders ⋈ lineitem); the nations supplying those parts (orders ⋈
/// lineitem ⋈ supplier).
pub fn templates() -> Vec<SpcQuery> {
    let q = |name: &str| SpcQuery::builder(tpch::catalog(), name);
    vec![
        q("cust_orders")
            .atom("orders", "o")
            .eq_param(("o", "o_custkey"), CUST_PARAM)
            .project(("o", "o_orderkey"))
            .build()
            .expect("static template"),
        q("cust_parts")
            .atom("orders", "o")
            .atom("lineitem", "l")
            .eq_param(("o", "o_custkey"), CUST_PARAM)
            .eq(("l", "l_orderkey"), ("o", "o_orderkey"))
            .project(("o", "o_orderkey"))
            .project(("l", "l_partkey"))
            .build()
            .expect("static template"),
        q("cust_supp_nations")
            .atom("orders", "o")
            .atom("lineitem", "l")
            .atom("supplier", "s")
            .eq_param(("o", "o_custkey"), CUST_PARAM)
            .eq(("l", "l_orderkey"), ("o", "o_orderkey"))
            .eq(("s", "s_suppkey"), ("l", "l_suppkey"))
            .project(("s", "s_nationkey"))
            .build()
            .expect("static template"),
    ]
}

/// The binding map of one customer key.
pub fn binding(cust: u64) -> BTreeMap<String, Value> {
    BTreeMap::from([(CUST_PARAM.to_string(), Value::Int(cust as i64))])
}

/// The durability settings of every durable workload.
pub fn durability() -> DurabilityConfig {
    DurabilityConfig {
        policy: SyncPolicy::Always,
        keep_snapshots: 2,
    }
}

/// Opens a durable TPCH server over `log` (recovering what it holds).
pub fn open(log: Arc<CountingLog>) -> Result<Server, ServiceError> {
    let (server, _report, _views) = Server::open(
        log as Arc<dyn LogStorage>,
        tpch::access_schema(),
        ServerConfig::default(),
        durability(),
        &[],
    )?;
    Ok(server)
}

/// Per-chunk timings of one [`bulk_load_source`] call.
#[derive(Debug, Clone, Default)]
pub struct LoadTimes {
    /// Rows loaded.
    pub rows: u64,
    /// Wall time of the whole `Server::bulk_load` call (ns).
    pub total_ns: u64,
    /// Time in `RowSource::fill_chunk` (ns).
    pub gen_ns: u64,
    /// Time in `BulkLoader::push_chunk_columns` (ns).
    pub push_ns: u64,
    /// Time in `bulk_load` after the loader closure returned (ns): the
    /// index build plus the closing WAL sync.
    pub after_ns: u64,
    /// Per chunk: generation plus push (ns).
    pub chunk_ns: Vec<u64>,
}

/// Streams one TPCH source into `server` through `Server::bulk_load`,
/// chunk by chunk, timing each layer from outside.
pub fn bulk_load_source(
    server: &Server,
    src: &dyn RowSource,
    chunk_rows: usize,
    tracer: &Tracer,
) -> Result<LoadTimes, ServiceError> {
    let rel_name = tpch::catalog().relation(src.rel()).name().to_string();
    let mut t = LoadTimes::default();
    let _load = tracer.request("storage.bulk_load");
    let start = Instant::now();
    let mut closure_end = start;
    server.bulk_load(&rel_name, |loader| {
        let total = src.total_rows();
        loader.reserve_rows(total as usize);
        let mut cols: Vec<Vec<Value>> = (0..src.arity())
            .map(|_| Vec::with_capacity(chunk_rows))
            .collect();
        let mut at = 0u64;
        while at < total {
            let n = chunk_rows.min((total - at) as usize);
            cols.iter_mut().for_each(Vec::clear);
            let c0 = Instant::now();
            {
                let _gen = tracer.span("workload.fill_chunk");
                src.fill_chunk(at, n, &mut cols);
            }
            let c1 = Instant::now();
            {
                let _push = tracer.span("storage.push_chunk");
                loader.push_chunk_columns(&cols);
            }
            let c2 = Instant::now();
            t.gen_ns += (c1 - c0).as_nanos() as u64;
            t.push_ns += (c2 - c1).as_nanos() as u64;
            t.chunk_ns.push((c2 - c0).as_nanos() as u64);
            at += n as u64;
        }
        t.rows = total;
        closure_end = Instant::now();
    })?;
    let end = Instant::now();
    t.total_ns = (end - start).as_nanos() as u64;
    t.after_ns = (end - closure_end).as_nanos() as u64;
    Ok(t)
}

/// A durable server holding TPCH at one scale factor, checkpointed.
pub struct ServingData {
    /// The server.
    pub server: Arc<Server>,
    /// The storage under its log (reopened on restart).
    pub base: Arc<MemLog>,
    /// The counting wrapper the server was opened over.
    pub log: Arc<CountingLog>,
    /// Rows per relation, in catalog order.
    pub rows: Vec<u64>,
}

impl ServingData {
    /// Customers in the data (keys `0..customers`).
    pub fn customers(&self) -> u64 {
        self.rows[rel("customer").0]
    }
}

/// The relation id of a TPCH relation name.
pub fn rel(name: &str) -> RelId {
    tpch::catalog()
        .rel_id(name)
        .expect("static TPCH relation name")
}

/// Builds the serving data: opens an empty durable server over a fresh
/// in-memory log, bulk-loads TPCH at `sf` from `seed`, and checkpoints.
pub fn serving_setup(cfg: &Config, sf: f64, tracer: &Arc<Tracer>) -> BenchResult<ServingData> {
    let base = Arc::new(MemLog::new());
    let log = Arc::new(CountingLog::new(
        Arc::clone(&base) as Arc<dyn LogStorage>,
        Arc::clone(tracer),
    ));
    let server = open(Arc::clone(&log)).map_err(|e| format!("open empty server: {e}"))?;
    let mut rows = Vec::new();
    for src in tpch::sources(sf, cfg.seed) {
        bulk_load_source(
            &server,
            src.as_ref(),
            bcq_workload::source::DEFAULT_CHUNK_ROWS,
            tracer,
        )
        .map_err(|e| format!("bulk load: {e}"))?;
        rows.push(src.total_rows());
    }
    server
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(ServingData {
        server: Arc::new(server),
        base,
        log,
        rows,
    })
}

/// Wall and CPU time of one piece of work done on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Took {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds the thread ran on a CPU: wall time minus waiting, and minus
    /// any time a hypervisor stole from the virtual CPU.
    pub cpu_s: f64,
}

/// Runs `f` on the calling thread and times it.
pub fn timed<T>(f: impl FnOnce() -> BenchResult<T>) -> BenchResult<(T, Took)> {
    let (cpu0, start) = (crate::host::thread_cpu_ns()?, Instant::now());
    let out = f()?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = secs(crate::host::thread_cpu_ns()? - cpu0);
    Ok((out, Took { wall_s, cpu_s }))
}

/// Medians of the wall and CPU times of `took`.
pub fn median_took(took: &[Took]) -> Took {
    let of = |f: fn(&Took) -> f64| crate::stats::median(&took.iter().map(f).collect::<Vec<_>>());
    Took {
        wall_s: of(|t| t.wall_s).unwrap_or(0.0),
        cpu_s: of(|t| t.cpu_s).unwrap_or(0.0),
    }
}

/// The report line of a run's wall-clock figures, which a hypervisor's
/// steal moves and so are not among the gated metrics: throughput and p99
/// latency (medians over slices), and set-up and restart in wall and CPU
/// time.
pub fn wall_clock_line(
    workload: &str,
    rate: &str,
    p99_us: Option<f64>,
    setup: &[Took],
    restarts: &[Took],
) -> String {
    let (s, r) = (median_took(setup), median_took(restarts));
    format!(
        "{workload}: wall clock: {rate}, op p99 {} us; set-up {:.3} s wall / {:.3} s CPU; \
         restart {:.3} s wall / {:.3} s CPU",
        p99_us.map_or_else(|| "-".to_string(), |p| format!("{p:.2}")),
        s.wall_s,
        s.cpu_s,
        r.wall_s,
        r.cpu_s
    )
}

/// Runs `set_up` `n` (≥ 1) times, dropping each result before the next
/// run; returns the last result and every run's times.
pub fn timed_setups<T>(
    n: usize,
    mut set_up: impl FnMut() -> BenchResult<T>,
) -> BenchResult<(T, Vec<Took>)> {
    let mut took = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (v, t) = timed(&mut set_up)?;
        last = Some(v);
        took.push(t);
    }
    Ok((last.expect("at least one set-up"), took))
}

/// Tuples fetched over the plan's static bound (`|D_Q| ≤ M` holds iff
/// this is ≤ 1); infinite when the plan has no bound.
pub fn bound_ratio(p: &PreparedQuery, fetched: u64) -> f64 {
    match p.cost_bound() {
        Some(b) if b > 0 => fetched as f64 / b as f64,
        _ => f64::INFINITY,
    }
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// Evidence: counts compared, or the first mismatch.
    pub detail: String,
}

impl Check {
    /// A verdict.
    pub fn new(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Metric name → value (end-to-end from the untraced phase, per-layer
    /// from the traced one).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (ledger, notes).
    pub report: Vec<String>,
}

impl Outcome {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, passed, detail));
    }
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}
