//! Process and filesystem facts the benchmark stamps beside its results.

use std::ffi::CString;
use std::os::raw::{c_char, c_int};
use std::path::Path;

extern "C" {
    fn statfs(path: *const c_char, buf: *mut u64) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut i64) -> c_int;
}

/// CPU time consumed so far by every thread of this process, in seconds.
/// With paravirtualized time accounting it excludes hypervisor steal.
pub fn process_cpu_s() -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` has the layout of `struct timespec` (two 64-bit words on
    // 64-bit Linux) and CLOCK_PROCESS_CPUTIME_ID (2) is always valid.
    let rc = unsafe { clock_gettime(2, ts.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// Peak resident set size of this process (VmHWM), in MB. Read from the
/// process's own status: `getrusage`'s `ru_maxrss` survives `execve`, so
/// under `cargo run` it would report cargo's footprint instead.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (total, steal) CPU ticks of the machine, from `/proc/stat`:
/// stamped as the share of the run the hypervisor took away, so a slow run
/// can be told apart from a slow program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// The filesystem type holding `dir`, by `statfs` magic.
pub fn fs_type(dir: &Path) -> String {
    let Ok(c) = CString::new(dir.as_os_str().to_string_lossy().as_bytes()) else {
        return "unknown".into();
    };
    let mut buf = [0u64; 32];
    // SAFETY: the buffer is larger than `struct statfs` on every 64-bit
    // Linux ABI and `c` is a valid NUL-terminated path.
    let rc = unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".into();
    }
    match buf[0] {
        0xEF53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        other => format!("0x{other:x}"),
    }
}
