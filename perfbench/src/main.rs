//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read|write|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines, a JSON context line, and as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero when a correctness check fails or the run cannot complete.

use bcq_perfbench::common::Config;
use bcq_perfbench::trace::{self, Tracer};
use bcq_perfbench::{report, run, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where the traced run writes its spans: under the build directory, which
/// holds only generated files.
fn span_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    dir.join("perfbench")
        .join(format!("spans-{workload}-{seed}.tsv"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::full(args.seed, args.seconds, args.trace);
    let tracer = Arc::new(Tracer::new());
    let started = std::time::Instant::now();
    let ticks = bcq_perfbench::host::cpu_ticks();
    let out = match run(&args.workload, &cfg, &tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &out.report {
        println!("{line}");
    }
    for c in out.checks.iter().filter(|c| !c.passed) {
        eprintln!("perfbench: check failed: {}: {}", c.name, c.detail);
    }
    if cfg.trace {
        let path = span_path(&args.workload, args.seed);
        match tracer.write_tsv(&path) {
            Ok(()) => {
                let spans = tracer.spans();
                println!("spans: {} ({} spans)", path.display(), spans.len());
                let us = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e3;
                for (name, dur, own) in trace::by_name(&spans) {
                    println!(
                        "span {name}: n {} total {:.0} us, self {:.0} us",
                        dur.len(),
                        us(&dur),
                        us(&own)
                    );
                }
            }
            Err(e) => {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("elapsed: {:.1} s", started.elapsed().as_secs_f64());
    let steal = match (ticks, bcq_perfbench::host::cpu_ticks()) {
        (Some(a), Some(b)) => bcq_perfbench::host::steal_share(a, b),
        _ => 0.0,
    };
    println!(
        "context: {}",
        report::context_line(&args.workload, &cfg, &out, steal)
    );
    match report::result_line(&cfg, &out) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
