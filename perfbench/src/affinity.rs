//! Pinning the run to one CPU.
//!
//! On a virtual machine, waking a thread on another vCPU can cost from
//! tens of microseconds to milliseconds, depending on what the host is
//! doing. With the generator, the server's connection thread and its
//! per-batch worker free to land on different vCPUs, `serve_mixed`
//! throughput moved by up to 2x between runs of the same program; pinned
//! to one CPU, every hand-off is a same-CPU switch. Threads inherit the
//! mask of the thread that spawns them, so pinning the main thread
//! before set-up pins the server too.

/// A CPU mask as the kernel's `cpu_set_t` (1024 CPUs).
#[derive(Clone, Copy)]
pub struct Mask([u64; 16]);

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// The calling thread's CPU mask, if the platform reports one.
pub fn current() -> Option<Mask> {
    #[cfg(target_os = "linux")]
    {
        let mut m = [0u64; 16];
        // SAFETY: `m` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
        (rc == 0).then_some(Mask(m))
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Set the calling thread's CPU mask; false if the kernel refused.
pub fn set(mask: &Mask) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask.0` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) };
        rc == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = mask;
        false
    }
}

/// CPUs the calling thread may run on (1 where the platform does not
/// say). Read from the affinity mask rather than
/// `std::thread::available_parallelism`, which reads cgroup files outside
/// the run directory.
pub fn cpus() -> usize {
    current().map_or(1, |m| {
        m.0.iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            .max(1)
    })
}

/// The mask holding only the lowest CPU of `mask`.
pub fn first_cpu(mask: &Mask) -> Option<Mask> {
    let (word, bits) = mask.0.iter().enumerate().find(|(_, w)| **w != 0)?;
    let mut one = [0u64; 16];
    one[word] = 1 << bits.trailing_zeros();
    Some(Mask(one))
}

/// Pins the calling thread to one CPU while alive and restores its
/// previous mask when dropped. A no-op where affinity is unavailable.
pub struct Pin {
    saved: Option<Mask>,
}

impl Pin {
    /// Pin the calling thread to the lowest CPU it may run on.
    pub fn first_cpu() -> Pin {
        let saved = current();
        if let Some(one) = saved.as_ref().and_then(first_cpu) {
            set(&one);
        }
        Pin { saved }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(m) = &self.saved {
            set(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_keeps_only_the_lowest_bit() {
        let mut m = [0u64; 16];
        m[1] = 0b1100;
        m[3] = 1;
        let one = first_cpu(&Mask(m)).expect("non-empty");
        assert_eq!(one.0[1], 0b100);
        assert_eq!(one.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert!(first_cpu(&Mask([0; 16])).is_none());
    }

    #[test]
    fn pin_restores_the_mask() {
        let Some(before) = current() else { return };
        {
            let _pin = Pin::first_cpu();
            let now = current().expect("mask");
            assert_eq!(now.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        }
        assert_eq!(current().expect("mask").0, before.0);
    }
}
