//! The metric catalogue: every metric the benchmark prints, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names
//! (a test keeps the two in step).

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off. Their meaning per
/// workload is in the benchmark's README. Times of work done on a CPU
/// (`setup_s`, `cpu_us_per_op`, `recovery_s`) are CPU time, which a
/// hypervisor's steal does not inflate; wall-clock throughput and tail
/// latency, which it does, are printed in the report lines.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("cpu_us_per_op", "us"),
    def("op_p50_us", "us"),
    def("recovery_s", "s"),
    def("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, measured in the traced run. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("net.ping_rtt_p50_us", "us"),
    def("net.unattributed_us", "us"),
    def("service.session_query_p50_us", "us"),
    def("service.plan_cache_hit_ratio", "ratio"),
    def("service.revalidations_per_read", "ratio"),
    def("service.insert_p50_us", "us"),
    def("core.prepare_us", "us"),
    def("exec.execute_p50_us", "us"),
    def("exec.fetched_per_row", "ratio"),
    def("exec.fetched_over_bound_max", "ratio"),
    def("storage.cow_cells_per_write", "count"),
    def("storage.bulk_push_s", "s"),
    def("storage.index_build_s", "s"),
    def("durability.appends_per_ack", "count"),
    def("durability.append_bytes_per_ack", "B"),
    def("durability.syncs_per_ack", "count"),
    def("durability.sync_p50_us", "us"),
    def("durability.streams_open_at_sync", "count"),
    def("durability.group_batch_mean", "count"),
    def("durability.wal_bytes_per_row", "B"),
    def("durability.log_read_s", "s"),
    def("durability.replay_s", "s"),
    def("workload.gen_s", "s"),
];

/// The metrics a run prints: per-layer when traced, else end-to-end.
pub fn printed(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
    /// string matching (the file's layout is one metric per line).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .lines()
            .filter_map(|l| {
                let field = |f: &str| {
                    let at = l.find(&format!("\"{f}\": \""))? + f.len() + 5;
                    let len = l[at..].find('"')?;
                    Some(l[at..at + len].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(
                section(json, key),
                want,
                "{key} differs from BENCHMARK.json"
            );
        }
    }
}
