//! Facts about the host a result was measured on, and the process clocks.

use std::time::{Duration, Instant};

use rio::workloads::counter::counter_kernel;

use crate::stats::median;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

// std already links the platform libc on linux-gnu targets, so the symbol
// resolves without a libc crate dependency.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, including
/// worker threads that have already exited.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse` where the repository root (the
/// benchmark's parent directory) is a git work tree, else
/// `RIO_BENCH_COMMIT`, else `unknown`.
pub fn commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    std::path::Path::new(root)
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .current_dir(root)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .or_else(|| std::env::var("RIO_BENCH_COMMIT").ok())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Iterations per calibration sample of the sequential counter kernel.
const CALIB_ITERS: u64 = 1 << 20;

/// `host.calib_ns`: nanoseconds per iteration of the paper's sequential
/// counter kernel on this host, the median of 15 samples. Dividing a
/// time by it normalises numbers taken on another host.
pub fn calib_ns() -> f64 {
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            counter_kernel(std::hint::black_box(CALIB_ITERS));
            t0.elapsed().as_nanos() as f64 / CALIB_ITERS as f64
        })
        .collect();
    median(&samples)
}
