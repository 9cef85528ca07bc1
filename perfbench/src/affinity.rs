//! CPU affinity of the calling thread (threads it spawns later inherit
//! it), through the C library's `sched_{get,set}affinity`.
//!
//! The benchmark runs the server and its load on one CPU. On a small
//! virtual machine a request handed to a thread on the other virtual CPU
//! waits for a wakeup through the hypervisor, whose cost depends on how
//! busy the host is: the same loopback round trip then reads 22 µs in one
//! run and 41 µs in the next. On one CPU every handoff is a local context
//! switch.

/// A CPU set as the kernel's `cpu_set_t` holds it (1024 bits).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The calling thread's set, or `None` where it cannot be read.
    pub fn current() -> Option<CpuSet> {
        #[cfg(target_os = "linux")]
        {
            let mut set = CpuSet([0; 16]);
            // SAFETY: the kernel writes at most `size` bytes into `set`.
            let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), set.0.as_mut_ptr()) };
            (rc == 0).then_some(set)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// The lowest CPU of the set, alone.
    pub fn first(self) -> Option<(usize, CpuSet)> {
        let cpu = (0..1024).find(|&i| self.0[i / 64] >> (i % 64) & 1 == 1)?;
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        Some((cpu, one))
    }

    /// Make this the calling thread's set.
    pub fn apply(self) -> Result<(), String> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the kernel reads `size` bytes from `self`.
            let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), self.0.as_ptr()) };
            if rc == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error().to_string())
            }
        }
        #[cfg(not(target_os = "linux"))]
        Err("CPU affinity is only set on Linux".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_keeps_only_the_lowest_cpu() {
        let mut set = CpuSet([0; 16]);
        set.0[1] = 0b1010; // CPUs 65 and 67
        let (cpu, one) = set.first().unwrap();
        assert_eq!(cpu, 65);
        assert_eq!(one.0[1], 0b10);
        assert!(one.0.iter().enumerate().all(|(i, w)| i == 1 || *w == 0));
        assert!(CpuSet([0; 16]).first().is_none());
    }
}
