//! CPU sets for the calling thread. Threads inherit the set of the thread
//! that spawns them, so narrowing the main thread before `Runtime::new`
//! places every dispatcher, task and ship thread of that runtime on it.
//!
//! The standard library has no affinity call, so this module declares the
//! two libc functions it needs (libc is already linked by `std`). On other
//! systems nothing can be pinned and the run is stamped `"pinned": false`.

/// A set of CPU ids (up to 1024, the kernel's default mask width).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPU ids in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// A set holding only this set's lowest CPU (itself when empty).
    pub fn first_only(&self) -> CpuSet {
        let mut out = [0u64; 16];
        if let Some(&c) = self.cpus().first() {
            out[c / 64] = 1 << (c % 64);
        }
        CpuSet(out)
    }

    /// `"0,1"` form for stamps.
    pub fn list(&self) -> String {
        self.cpus()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn current() -> Option<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, writable 128-byte buffer and the size
        // passed is exactly its size; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(CpuSet(mask))
    }

    pub fn set(cpus: &CpuSet) -> bool {
        // SAFETY: `cpus.0` is a live 128-byte buffer that the call only
        // reads, and the size passed is exactly its size.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&cpus.0), cpus.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn current() -> Option<CpuSet> {
        None
    }

    pub fn set(_cpus: &CpuSet) -> bool {
        false
    }
}

/// The calling thread's allowed CPUs, if the system tells.
pub fn current() -> Option<CpuSet> {
    sys::current()
}

/// Restrict the calling thread (and threads it spawns later) to `cpus`.
/// Returns whether the system accepted it.
pub fn set(cpus: &CpuSet) -> bool {
    !cpus.cpus().is_empty() && sys::set(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_only_keeps_lowest_cpu() {
        let mut m = [0u64; 16];
        m[0] = 0b1010;
        m[1] = 1;
        let s = CpuSet(m);
        assert_eq!(s.cpus(), vec![1, 3, 64]);
        assert_eq!(s.first_only().cpus(), vec![1]);
        assert_eq!(s.list(), "1,3,64");
        assert!(
            !set(&CpuSet([0; 16])),
            "an empty set is refused, not passed to the kernel"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_spawned_thread_inherits_the_narrowed_set() {
        // Runs on its own thread so the narrowing cannot leak into the test
        // harness's other threads.
        std::thread::spawn(|| {
            let all = current().expect("linux reports affinity");
            let one = all.first_only();
            assert!(set(&one));
            let child = std::thread::spawn(current).join().unwrap();
            assert_eq!(child, Some(one));
        })
        .join()
        .unwrap();
    }
}
