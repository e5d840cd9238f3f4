//! Process and thread accounting from `/proc/self`.
//!
//! CPU time comes from each thread's `schedstat`, which the scheduler keeps
//! in nanoseconds, rather than from the 10 ms ticks of `/proc/self/stat`.

use std::fs;

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

fn thread_ids() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// Nanoseconds thread `tid` has spent on a CPU.
pub fn thread_cpu_ns(tid: &str) -> Option<u64> {
    read(&format!("/proc/self/task/{tid}/schedstat"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU nanoseconds summed over every live thread of the process.
pub fn process_cpu_ns() -> u64 {
    thread_ids()
        .iter()
        .filter_map(|tid| thread_cpu_ns(tid))
        .sum()
}

/// The id of the live thread whose name is `name`.
pub fn thread_named(name: &str) -> Option<String> {
    thread_ids().into_iter().find(|tid| {
        read(&format!("/proc/self/task/{tid}/comm")).is_some_and(|comm| comm.trim_end() == name)
    })
}

/// Voluntary plus involuntary context switches of thread `tid`.
pub fn thread_ctx_switches(tid: &str) -> Option<u64> {
    let status = read(&format!("/proc/self/task/{tid}/status"))?;
    let mut total = 0;
    for line in status.lines() {
        if let Some(rest) = line
            .strip_prefix("voluntary_ctxt_switches:")
            .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
        {
            total += rest.trim().parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// The id of the calling thread.
pub fn current_thread() -> Option<String> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_string_lossy().into_owned())
}

/// Restricts thread `tid` to CPU `cpu` (below 64); false if the kernel
/// refuses.
pub fn pin(tid: &str, cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let (Ok(tid), true) = (tid.parse::<i32>(), cpu < 64) else {
        return false;
    };
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a CPU set of `size_of::<u64>()` bytes that outlives
    // the call, and the kernel only reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Peak resident memory of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
