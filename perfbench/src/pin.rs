//! Pinning a workload's threads to one CPU.
//!
//! A thread's CPU affinity is inherited by the threads it starts, so
//! pinning the calling thread before a workload starts its daemons and
//! load threads pins all of them. Linux only; elsewhere pinning is a
//! no-op and the workload runs unpinned.

/// The calling thread's affinity before [`pin_to_current_cpu`]; restored
/// when dropped.
pub struct Pinned {
    cpu: Option<usize>,
    #[cfg(target_os = "linux")]
    previous: Option<sys::CpuSet>,
}

impl Pinned {
    /// The CPU the threads run on, if pinning succeeded.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }
}

/// Pin the calling thread, and every thread it starts while the returned
/// guard lives, to the CPU it is running on now.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Pinned {
    let previous = sys::affinity();
    let cpu = match (previous, sys::current_cpu()) {
        (Some(_), Some(cpu)) if sys::set_affinity(&sys::only(cpu)) => Some(cpu),
        _ => None,
    };
    Pinned { cpu, previous }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Pinned {
    Pinned { cpu: None }
}

#[cfg(target_os = "linux")]
impl Drop for Pinned {
    fn drop(&mut self) {
        if let (Some(_), Some(previous)) = (self.cpu, &self.previous) {
            sys::set_affinity(previous);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The calling thread's affinity mask.
    pub fn affinity() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: pid 0 is the calling thread, and `mask` is a writable
        // buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then_some(mask)
    }

    /// Set the calling thread's affinity mask; false if the kernel
    /// refused it.
    pub fn set_affinity(mask: &CpuSet) -> bool {
        // SAFETY: pid 0 is the calling thread, and `mask` is a readable
        // buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    /// The CPU the calling thread is running on.
    pub fn current_cpu() -> Option<usize> {
        // SAFETY: takes no arguments; returns -1 on failure.
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu).ok().filter(|&cpu| cpu < 1024)
    }

    /// The mask holding `cpu` alone.
    pub fn only(cpu: usize) -> CpuSet {
        let mut mask = [0u64; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        mask
    }
}
