//! Host fingerprint and process resource readings (Linux `/proc`).

use crate::api;

/// Where and how a result was measured; written next to every result.
pub struct Fingerprint {
    pub nproc: usize,
    pub simd: String,
    pub git_head: String,
    pub profile: &'static str,
    pub seed: u64,
}

impl Fingerprint {
    pub fn take(seed: u64) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            simd: api::simd_level(),
            git_head: git_head(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
        }
    }
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside
/// a git checkout (the lookup never climbs into an enclosing repo).
fn git_head() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds of this process, all threads included
/// (`utime` and `stime` of `/proc/self/stat`, in 100 Hz ticks).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_SECOND
}
