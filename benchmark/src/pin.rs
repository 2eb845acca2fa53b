//! CPU pinning through `sched_setaffinity`, declared here so the benchmark
//! needs no dependency for it.
//!
//! Unpinned on a small shared box, the kernel moves the server's worker
//! across cores mid-run and a cache-hit point query's median jumps to about
//! three times its pinned value and stays there. So the thread that calls
//! `serve` pins itself to one core (its workers and connection threads are
//! spawned afterwards and inherit the mask) and the load generator pins
//! itself to another.

/// The two cores a run uses, taken from the mask the process started with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cores {
    pub server: usize,
    pub client: usize,
}

/// Words in the CPU mask handed to the kernel: 1024 CPUs, glibc's
/// `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs the calling thread may run on, ascending; empty when the mask
/// cannot be read (or off Linux).
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }
    #[cfg(not(target_os = "linux"))]
    Vec::new()
}

/// Picks the server and client cores: the first two allowed CPUs. `None`
/// when fewer than two are available — the run then reports `pinned=false`.
pub fn choose_cores() -> Option<Cores> {
    match allowed_cpus()[..] {
        [server, client, ..] => Some(Cores { server, client }),
        _ => None,
    }
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed;
        // pid 0 names the calling thread.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}
