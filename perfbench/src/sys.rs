//! Process resource usage: CPU seconds of every thread the process has run,
//! read with `getrusage(RUSAGE_SELF)`, and the peak resident set.

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn usage() -> RUsage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the kernel's
    // layout on 64-bit Linux, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    u
}

/// User plus system CPU seconds consumed by the process so far.
pub fn cpu_seconds() -> f64 {
    let u = usage();
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// Start a new peak: set the resident-set high-water mark to the current
/// resident set. Glibc's per-thread arenas make the peak of the first
/// repetition alone swing by a quarter from one run to the next, so the
/// benchmark takes the median of per-repetition peaks. A kernel without
/// the reset leaves the mark as it is, and the peak so far is read.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this program since the last [`reset_peak_rss`],
/// MiB: `VmHWM` of `/proc/self/status`. (`ru_maxrss` would also count the peak of the
/// process that spawned this one, carried across `exec`.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}
