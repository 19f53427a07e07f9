//! A tiny run of every workload, untraced and traced, passes every
//! correctness check and reports every metric it must print.

use bcq_perfbench::common::Config;
use bcq_perfbench::metrics::printed;
use bcq_perfbench::trace::Tracer;
use bcq_perfbench::{report, run, WORKLOADS};
use std::sync::Arc;

fn tiny_run(workload: &str, trace: bool) {
    let cfg = Config::tiny(11, trace);
    let tracer = Arc::new(Tracer::new());
    let out = run(workload, &cfg, &tracer).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let failed: Vec<_> = out.checks.iter().filter(|c| !c.passed).collect();
    assert!(failed.is_empty(), "{workload} (trace {trace}): {failed:?}");
    assert!(!out.checks.is_empty());
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.report);
    assert!(out.attempted > 0);
    let line = report::result_line(&cfg, &out).unwrap();
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    for d in printed(trace) {
        assert!(
            line.contains(&format!("\"{}\"", d.name)),
            "{workload}: {} missing",
            d.name
        );
    }
    if trace {
        assert!(out.metrics["exec.fetched_over_bound_max"] <= 1.0);
        assert!(!tracer.spans().is_empty(), "{workload}: no spans recorded");
    } else {
        for d in bcq_perfbench::metrics::END_TO_END {
            let name = d.name;
            assert!(out.metrics[name] > 0.0, "{workload}: {name} is 0");
        }
    }
}

#[test]
fn read_tiny() {
    tiny_run(WORKLOADS[0], false);
    tiny_run(WORKLOADS[0], true);
}

#[test]
fn write_tiny() {
    tiny_run(WORKLOADS[1], false);
    tiny_run(WORKLOADS[1], true);
}

#[test]
fn ingest_tiny() {
    tiny_run(WORKLOADS[2], false);
    tiny_run(WORKLOADS[2], true);
}

#[test]
fn read_serves_no_durability_traffic() {
    let tracer = Arc::new(Tracer::new());
    let out = run("read", &Config::tiny(3, true), &tracer).unwrap();
    for name in [
        "durability.appends_per_ack",
        "durability.append_bytes_per_ack",
        "durability.syncs_per_ack",
        "storage.cow_cells_per_write",
        "service.insert_p50_us",
    ] {
        assert_eq!(out.metrics[name], 0.0, "{name}");
    }
    assert_eq!(out.metrics["service.plan_cache_hit_ratio"], 1.0);
    assert_eq!(out.metrics["service.revalidations_per_read"], 0.0);
}
