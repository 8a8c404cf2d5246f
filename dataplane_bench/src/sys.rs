//! Host probes (`/proc`) and small statistics helpers.

use std::fs;

/// Nanoseconds a task has run on a CPU: the first field of a
/// `schedstat` file (nanosecond resolution, where `/proc/*/stat`
/// counts 10 ms ticks).
fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time consumed so far by every live thread of this process
/// (user + system, summed over `/proc/self/task/*/schedstat`).
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .map(|e| schedstat_ns(&format!("{}/schedstat", e.path().display())))
        .sum()
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`, …).
pub fn status_kb(field: &str) -> u64 {
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

/// Median of `v` (0.0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` ∈ [0, 1] of `v` (0.0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Host stamp for the notes: CPUs, kernel, CPU model.
pub fn host_stamp() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_default();
    format!("cpus={cpus} kernel={} cpu=\"{model}\"", kernel.trim())
}

extern "C" {
    // glibc; `mask` points at a `cpu_set_t` of `size` bytes.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` from `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Fixes glibc's allocator thresholds. By default they adapt to what the
/// process has freed so far, so whether a build reuses freed memory or
/// pays for fresh pages depends on history — `setup_s` then took either
/// ~0.4 ms or ~1.4 ms from one run to the next. Fixed thresholds keep
/// large blocks on the heap and freed memory in the process.
pub fn fix_allocator() {
    // SAFETY: mallopt only updates allocator parameters; it is called
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 256 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack: how late the kernel may wake
/// a sleep to batch timers (50 µs by default).
pub fn set_timer_slack(ns: u64) -> bool {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // touches no memory of ours.
    unsafe { prctl(PR_SET_TIMERSLACK, ns as std::ffi::c_ulong) == 0 }
}

/// Words in a glibc `cpu_set_t` (1024 CPUs).
const CPUSET_WORDS: usize = 16;

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPUSET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed, the layout glibc's `cpu_set_t` uses; pid 0 is this thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![0];
    }
    (0..CPUSET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins thread `tid` (0 = the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> bool {
    let mut mask = [0u64; CPUSET_WORDS];
    mask[cpu / 64 % CPUSET_WORDS] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the
    // call only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Thread ids of this process with their names.
pub fn threads() -> Vec<(i32, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse().ok()?;
            let name = fs::read_to_string(e.path().join("comm")).ok()?;
            Some((tid, name.trim_end().to_owned()))
        })
        .collect()
}
