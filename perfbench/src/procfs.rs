//! Resource accounting from `/proc/self` and the file system.

use std::fs;
use std::path::Path;

fn status_field_kb(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:") as f64 / 1024.0
}

/// Threads in this process.
pub fn threads() -> u64 {
    status_field_kb("Threads:")
}

/// Open file descriptors of this process.
pub fn fds() -> u64 {
    fs::read_dir("/proc/self/fd")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `nproc`: the parallelism this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resource readings at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub peak_rss_mb: f64,
    pub threads: u64,
    pub fds: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        peak_rss_mb: peak_rss_mb(),
        threads: threads(),
        fds: fds(),
    }
}
