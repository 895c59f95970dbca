//! Runs the whole benchmark on one CPU. The machine this benchmark was
//! built on is a two-vCPU virtual machine on a shared host. With threads on
//! both vCPUs, every figure followed how the host ran the two vCPUs at
//! once: how long two appenders overlapped, or how long a wake-up waited
//! for a halted vCPU. That changed from minute to minute. On one vCPU the
//! store's threads and the load hand off through the guest's own scheduler,
//! and the host's share shows only as steal time, which a run reports.

/// `cpu_set_t`: 1,024 bits.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU. Call it
/// before any other thread starts.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Steal time (ns) of `cpu` so far: time the host ran something else while
/// the vCPU had work, from `/proc/stat`.
pub fn steal_ns(cpu: usize) -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let label = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    // user nice system idle iowait irq softirq steal
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    // USER_HZ ticks, which Linux fixes at 100 a second.
    Some(ticks * 10_000_000)
}
