//! Everything the benchmark reads from the host: the wall clock, the
//! peak resident set and the description printed with every report.

use std::path::Path;
use std::time::Instant;

use simcore::jobj;
use simcore::json::Json;

/// The wall clock. The simulator crates ban it (`clippy.toml`); this
/// benchmark exists to measure host time, so it takes the documented
/// opt-out in this one place.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU model name from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The system description every report carries: CPU model, core count,
/// compiler and commit.
pub fn context() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    jobj! {
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "rustc": env!("HOSTBENCH_RUSTC"),
        "commit": git_commit(),
    }
}
