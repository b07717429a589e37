//! Pin the calling thread to one CPU for a while.
//!
//! The closed-loop query segment hands every query from the client
//! thread to the one shard worker and back. On the virtualised reference
//! host a wake-up that crosses CPUs takes ~35 µs against ~2 µs on one
//! CPU, and which of the two a run gets is the scheduler's choice — the
//! round trip flips twentyfold between otherwise identical runs. Pinning
//! client and worker (threads inherit the mask they are spawned under)
//! to one CPU takes the platform's wake-up path out of the number and
//! leaves the query engine's own submit/drain/fulfil path in it.
//!
//! `std` has no affinity API, so this calls the C library's
//! `sched_getaffinity`/`sched_setaffinity` (already linked by `std`).
//! Where the calls fail the thread simply stays unpinned.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the
    // `size_of::<CpuSet>()` bytes passed as its length; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the `size_of::<CpuSet>()`
    // bytes passed as its length, only read by the call; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_set: &CpuSet) -> bool {
    false
}

/// While alive, the thread that created it runs on one CPU only; drop
/// restores the mask it had.
pub struct Pinned {
    previous: CpuSet,
}

/// Pin the calling thread to the lowest CPU it is allowed on. `None`
/// (and no change) where affinity is unavailable.
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let previous = get()?;
    let (word, bits) = previous.iter().enumerate().find(|(_, w)| **w != 0)?;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bits.trailing_zeros();
    set(&one).then_some(Pinned { previous })
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_narrows_to_one_cpu_and_drop_restores() {
        let Some(before) = get() else {
            return; // no affinity support here: nothing to check
        };
        let count = |s: &CpuSet| s.iter().map(|w| w.count_ones()).sum::<u32>();
        {
            let _pin = pin_to_one_cpu().expect("own mask is settable");
            assert_eq!(count(&get().unwrap()), 1);
        }
        assert_eq!(get().unwrap(), before);
    }
}
