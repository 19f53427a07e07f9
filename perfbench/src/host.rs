//! What every result records about where and on what it ran.

use std::path::Path;

/// Where the write-ahead log lives in every durable workload: the
/// repository's in-memory [`bcq_service::MemLog`], so no device latency
/// enters the durable lanes (see the benchmark's README).
pub const WAL_STORAGE: &str = "memory (bcq_service::MemLog; no filesystem)";

/// The flush policy of every durable workload.
pub const FLUSH_POLICY: &str = "SyncPolicy::Always (sync before every ack)";

/// CPU model, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel release, from `/proc/sys/kernel/osrelease`.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The git commit of the working directory, or `"none"` outside a git
/// checkout (exported source trees have no history; see
/// [`source_digest`] for what identifies them).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest of every file under `crates/` (paths and contents, in
/// path order), so results from a source tree without git history still
/// name the code they measured.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(rel) = f.strip_prefix(root) {
            eat(rel.to_string_lossy().as_bytes());
        }
        if let Ok(bytes) = std::fs::read(f) {
            eat(&bytes);
        }
    }
    format!("fnv1a64:{h:016x} ({} files)", files.len())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

/// Cumulative CPU time `(steal, total)` in clock ticks, from the first
/// line of `/proc/stat`: steal is time the hypervisor ran something else
/// while this machine's virtual CPUs were ready to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings, machine-wide.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

/// The CPUs this thread may run on, from `Cpus_allowed_list` (e.g.
/// `0-3,6`), in ascending order.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("reading /proc/thread-self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/thread-self/status")?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let bad = || format!("unexpected Cpus_allowed_list entry {part:?}");
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (
            lo.parse().map_err(|_| bad())?,
            hi.parse().map_err(|_| bad())?,
        );
        cpus.extend(lo..=hi);
    }
    if cpus.is_empty() {
        return Err("empty Cpus_allowed_list".to_string());
    }
    Ok(cpus)
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// `cpu` (with `taskset`).
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    // "/proc/thread-self" links to "<pid>/task/<tid>".
    let link = std::fs::read_link("/proc/thread-self")
        .map_err(|e| format!("reading /proc/thread-self: {e}"))?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("unexpected /proc/thread-self link")?
        .to_string();
    let status = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !status.success() {
        return Err(format!("taskset exited with {status}"));
    }
    Ok(())
}

/// CPU time the calling thread has run, in ns, from
/// `/proc/thread-self/schedstat`. Time a hypervisor stole from the
/// virtual CPU is not in it.
pub fn thread_cpu_ns() -> Result<u64, String> {
    // The kernel brings a running thread's total up to date only when it
    // passes through the scheduler; without this yield a tickless kernel
    // reports the total as of the thread's last switch, which can be
    // seconds stale.
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| "no CPU time in /proc/thread-self/schedstat".to_string())
}

/// User plus system CPU time of every thread this process has run,
/// exited ones included, in ns, from `/proc/self/stat` (whose clock ticks
/// are 1/100 s on Linux). Stolen time is not in it.
pub fn process_cpu_ns() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) * 10_000_000)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
