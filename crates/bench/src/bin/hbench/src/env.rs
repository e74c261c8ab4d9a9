//! What a result was measured on: cores, workers, build flags, toolchain,
//! commit — and the process's own peak memory and thread count.

use serde_json::{json, Value};
use std::process::Command;

/// Logical cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deployment workers: every core but the one generating load.
pub fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// A `kB` field of `/proc/self/status`, or a plain count such as `Threads`.
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS watermark, so that a workload run after another in
/// one process (`run --all`, the tests) reports its own peak. Where the
/// kernel refuses, the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Live threads of this process.
pub fn threads() -> f64 {
    proc_status("Threads").unwrap_or(0.0)
}

/// The environment block every result file carries.
pub fn record(seed: u64, seconds: f64, smoke: bool) -> Value {
    json!({
        "nproc": nproc(),
        "workers": workers(),
        "simd": cfg!(feature = "simd"),
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_status_reads_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1.0);
        assert!(workers() >= 1 && workers() <= nproc());
    }

    #[test]
    fn a_missing_program_reads_unknown() {
        assert_eq!(command_line("hbench-no-such-program", &[]), "unknown");
    }
}
