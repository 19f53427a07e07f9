//! An outside-in benchmark of the bounded-cq serving lanes: network
//! reads, durable writes, bulk ingest and recovery.
//!
//! Each workload drives only public entry points of the repository's
//! crates (`bcq_service`, `bcq_storage`, `bcq_workload`, `bcq_exec`),
//! checks that what they return is correct, and reports end-to-end
//! metrics from an untraced run or per-layer metrics from a traced one,
//! where the benchmark times each call it makes into a layer and keeps
//! the spans in memory ([`trace`]). See `README.md` next to this crate.

pub mod common;
pub mod countlog;
pub mod host;
pub mod ingest;
pub mod layers;
pub mod metrics;
pub mod read;
pub mod report;
pub mod stats;
pub mod trace;
pub mod write;

use common::{BenchResult, Config, Outcome};
use std::sync::Arc;
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["read", "write", "ingest"];

/// Runs workload `name` under `cfg`.
pub fn run(name: &str, cfg: &Config, tracer: &Arc<Tracer>) -> BenchResult<Outcome> {
    let mut out = match name {
        "read" => read::run(cfg, tracer),
        "write" => write::run(cfg, tracer),
        "ingest" => ingest::run(cfg, tracer),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }?;
    let rss = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    out.set("peak_rss_mb", rss);
    Ok(out)
}
