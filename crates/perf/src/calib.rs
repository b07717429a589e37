//! Host-speed calibration.
//!
//! The reference host is a shared two-vCPU guest that drifts between
//! phases in which the same CPU-bound code runs up to ~30 % faster or
//! slower, each phase lasting seconds to minutes. Raw medians of
//! identical 15 s runs spread by 8–25 % (interquartile, as a share of the
//! median) — more than any bound worth gating on. A small fixed kernel,
//! sampled right before and right after each measured operation, follows
//! those phases, so every end-to-end time is reported *at reference
//! speed*:
//!
//! ```text
//! reported = measured × REFERENCE_MS / median(kernel samples of the last second)
//! ```
//!
//! How much that buys depends on what the neighbours are doing. Over
//! 15 s windows of side-by-side trials (kernel, then a fat-tree or
//! irregular boot, repeated for minutes) the raw boot median spread by
//! 14.7 % and 25.2 % and the calibrated one by 1.9 % and 2.0 % in two
//! trials; in a third, under heavier contention, by 10.7 % raw and 5.9 %
//! calibrated. The median over one second of samples matters as much as
//! the kernel: a single sample scatters by ~10 % within a second, more
//! than a 25 ms boot does.
//!
//! The kernel is benchmark-owned code that calls nothing in the measured
//! crates and allocates nothing, so no change to the repository can move
//! it: a serial pointer chase through a 64 KiB cycle, which misses L1
//! and hits L2 on every step, as walks over the routing tables mostly
//! do. The size was chosen by trial under contention: over 15 s windows
//! it normalised boots to a 5–7 % spread and query round trips to
//! 5–6 %, where 8–32 KiB (L1), 256 KiB–2 MiB (L3) chases, an arithmetic
//! chain or an atomics loop left 7–15 %. Its working set is pulled back
//! into cache, untimed, before every sample; without that a sample
//! taken after a large operation ran cold and read 2–3x slow.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median duration on the reference host, in milliseconds;
/// a calibrated value equals the raw one when the host runs at this
/// speed.
pub const REFERENCE_MS: f64 = 0.25;

const CHASE_SLOTS: usize = 1 << 14;
const STEPS: u64 = 100_000;
/// Kernel runs on each side of a timed operation.
const RUNS_PER_SIDE: usize = 2;
/// The speed estimate is the median kernel time over this much recent
/// past: long enough to average out the kernel's own jitter (one run
/// scatters by ~10 % within a second, more than a 25 ms boot does),
/// short next to the phases it tracks.
const MEMORY: Duration = Duration::from_secs(1);
/// ... and never over fewer readings than this.
const MIN_READINGS: usize = 8;

/// The calibration kernel, its working set, and its recent readings.
pub struct Calibrator {
    /// One cycle through all slots, in xorshift-shuffled order.
    next: Vec<u32>,
    /// `(when, kernel milliseconds)`, oldest first.
    recent: VecDeque<(Instant, f64)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Build the working set (deterministic).
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_SLOTS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; CHASE_SLOTS];
        for (i, &slot) in order.iter().enumerate() {
            next[slot as usize] = order[(i + 1) % CHASE_SLOTS];
        }
        Calibrator {
            next,
            recent: VecDeque::new(),
        }
    }

    /// Run the kernel once and remember how long it took.
    pub fn sample(&mut self) {
        // Whatever ran before may have evicted the working set; pull
        // every cache line back in first, untimed, so that the kernel
        // measures the host's speed and not its own cache luck.
        let mut warm = 0u32;
        for line in self.next.chunks(16) {
            warm ^= line[0];
        }
        black_box(warm);
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        let end = Instant::now();
        self.recent
            .push_back((end, (end - start).as_secs_f64() * 1e3));
        while self.recent.len() > MIN_READINGS
            && self
                .recent
                .front()
                .is_some_and(|&(at, _)| end - at > MEMORY)
        {
            self.recent.pop_front();
        }
    }

    /// The kernel's median time over the recent past, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        let mut times: Vec<f64> = self.recent.iter().map(|&(_, ms)| ms).collect();
        times.sort_by(f64::total_cmp);
        match times.len() {
            0 => REFERENCE_MS,
            n => times[n / 2],
        }
    }

    /// Multiply a duration measured now by this to bring it to reference
    /// speed (divide a rate).
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }

    /// Time `op` with the kernel sampled right before and right after.
    pub fn around<T>(&mut self, op: impl FnOnce() -> T) -> Timed<T> {
        for _ in 0..RUNS_PER_SIDE {
            self.sample();
        }
        let start = Instant::now();
        let out = op();
        let end = Instant::now();
        for _ in 0..RUNS_PER_SIDE {
            self.sample();
        }
        let kernel_ms = self.kernel_ms();
        Timed {
            out,
            start,
            end,
            kernel_ms,
            factor: REFERENCE_MS / kernel_ms,
        }
    }
}

/// An operation timed between samples of the kernel.
pub struct Timed<T> {
    /// What the operation returned.
    pub out: T,
    /// When it started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    /// The kernel's recent median once the operation ended.
    pub kernel_ms: f64,
    /// Multiply a duration measured now by this to bring it to
    /// reference speed (divide a rate).
    pub factor: f64,
}

impl<T> Timed<T> {
    /// The operation's raw duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let c = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = c.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_SLOTS);
    }

    #[test]
    fn around_reports_the_operation_and_a_positive_factor() {
        let mut c = Calibrator::new();
        assert_eq!(c.factor(), 1.0, "no readings yet: reference speed");
        let timed = c.around(|| 7);
        assert_eq!(timed.out, 7);
        assert!(timed.seconds() >= 0.0 && timed.factor > 0.0 && timed.factor.is_finite());
    }
}
