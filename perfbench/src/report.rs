//! Output: the run's context line, its report lines, and the final
//! one-line JSON result.

use crate::common::{Config, Outcome};
use crate::host;
use crate::metrics::printed;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// The context every result records: seed, code, host, and where the
/// log lives, plus the failure accounting and every check's verdict.
pub fn context_line(workload: &str, cfg: &Config, out: &Outcome, steal_share: f64) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let error_frac = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"check\": {}, \"passed\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.passed,
                json_str(&c.detail)
            )
        })
        .collect();
    let fields = [
        ("workload", json_str(workload)),
        ("seed", cfg.seed.to_string()),
        ("seconds", format!("{}", cfg.seconds)),
        ("trace", cfg.trace.to_string()),
        ("git_commit", json_str(&host::git_commit())),
        ("source", json_str(&host::source_digest(&root))),
        ("cpu", json_str(&host::cpu_model())),
        ("nproc", host::nproc().to_string()),
        ("kernel", json_str(&host::kernel())),
        ("steal_share", format!("{steal_share}")),
        ("wal_storage", json_str(host::WAL_STORAGE)),
        ("flush_policy", json_str(host::FLUSH_POLICY)),
        ("serving_sf", format!("{}", cfg.serving_sf)),
        ("ingest_sf", format!("{}", cfg.ingest_sf)),
        ("chunk_rows", cfg.chunk_rows.to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("error_frac", format!("{error_frac}")),
        ("checks", format!("[{}]", checks.join(", "))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line: `correct`, `attempted`, `failed`, and every
/// metric the run prints (per-layer when traced, else end-to-end).
pub fn result_line(cfg: &Config, out: &Outcome) -> Result<String, String> {
    if out.attempted == 0 {
        return Err("no operation was attempted".to_string());
    }
    let mut metrics = Vec::new();
    for d in printed(cfg.trace) {
        let v = out
            .metrics
            .get(d.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(d.name),
            json_num(v)?,
            json_str(d.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn result_line_needs_every_metric() {
        let cfg = Config::tiny(1, false);
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        assert!(result_line(&cfg, &out).is_err());
        for d in END_TO_END {
            out.set(d.name, 0.25);
        }
        let line = result_line(&cfg, &out).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        out.set("setup_s", f64::NAN);
        assert!(result_line(&cfg, &out).is_err());
    }
}
