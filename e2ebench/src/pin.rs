//! Thread placement for the serving workloads: the service's threads on
//! one CPU, the load generator on another, so neither queues behind the
//! other. Linux only; elsewhere, or with fewer than two usable CPUs,
//! nothing is pinned.

/// `cpu_set_t`: 1024 CPU bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpu`. Threads it spawns afterwards
/// inherit the restriction. Returns whether the kernel accepted it.
pub fn pin_current(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer and the size passed
    // is exactly its size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}
