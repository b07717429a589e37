//! The adaptive shed controller: AIMD on admitted rate, keyed off a
//! queue-delay EWMA.
//!
//! Queue caps alone shed load *late* — by the time a queue is full,
//! every query already admitted is slow. The [`ShedController`] sheds
//! *early* instead: shard workers report the worst in-queue wait of
//! each drained batch (and, while the controller sheds, a synchronous
//! query reports its queue delay of zero, so the rate recovers when
//! only synchronous callers remain), the controller folds those into
//! an exponentially weighted moving average, and an AIMD loop (the TCP
//! congestion shape: additive increase, multiplicative decrease)
//! servos the fraction of best-effort submissions admitted:
//!
//! * delay EWMA above [`ShedConfig::target_delay`] → halve the admitted
//!   rate (a queue-cap rejection is treated the same way: both mean the
//!   backlog is ahead of the servo);
//! * delay EWMA comfortably below target → creep the admitted rate back
//!   up by [`ShedConfig::step_permille`] per tick.
//!
//! Two properties the overload tests pin down:
//!
//! * **The shed rate never reaches 100%.** The admitted rate is floored
//!   at [`ShedConfig::floor_permille`], so even a reroute storm on top
//!   of a flash crowd degrades answers, never availability.
//! * **Only sheddable classes are thinned.** The controller is a gate
//!   consulted per [`crate::query::ClassPolicy`]; latency-sensitive
//!   classes bypass it entirely and are protected by their
//!   deficit-weighted queue share instead.
//!
//! Admission decisions are deterministic: a submission counter is
//! compared against the admitted permille, so a fixed query sequence
//! sheds the same queries at the same controller state — no wall-clock
//! randomness in what gets dropped.

use crate::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use telemetry::{hists, Recorder};

/// Tunables for the [`ShedController`].
#[derive(Clone, Copy, Debug)]
pub struct ShedConfig {
    /// Queue-delay EWMA the controller servos toward. Above it the
    /// admitted rate halves; below half of it the rate creeps back up.
    pub target_delay: Duration,
    /// Lower bound on the admitted rate, in permille of offered
    /// best-effort load. Must be ≥ 1 so shedding never reaches 100%.
    pub floor_permille: u32,
    /// Additive recovery per tick, in permille.
    pub step_permille: u32,
    /// Minimum spacing between AIMD adjustments. Decoupling the servo
    /// from the batch rate keeps one congested burst from collapsing
    /// the rate straight to the floor.
    pub tick: Duration,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            target_delay: Duration::from_millis(2),
            floor_permille: 50,
            step_permille: 25,
            tick: Duration::from_millis(10),
        }
    }
}

/// The shared controller; one per [`crate::QueryEngine`], consulted by
/// every shard. See the module docs for the control law.
#[derive(Debug)]
pub struct ShedController {
    config: ShedConfig,
    /// Admitted best-effort rate, permille (1000 = admit everything).
    admitted: AtomicU32,
    /// Deepest shed ever reached; the floor proof the overload bench
    /// reports (must stay > 0).
    min_admitted: AtomicU32,
    /// Queue-delay EWMA, microseconds (alpha = 1/8).
    delay_ewma_us: AtomicU64,
    /// Microseconds-since-`start` of the last AIMD adjustment.
    last_tick_us: AtomicU64,
    /// Deterministic thinning counter for [`ShedController::admit`].
    seq: AtomicU64,
    start: Instant,
}

impl ShedController {
    /// A fresh controller admitting everything.
    pub fn new(config: ShedConfig) -> Self {
        let floor = config.floor_permille.clamp(1, 1000);
        ShedController {
            config: ShedConfig {
                floor_permille: floor,
                step_permille: config.step_permille.max(1),
                ..config
            },
            admitted: AtomicU32::new(1000),
            min_admitted: AtomicU32::new(1000),
            delay_ewma_us: AtomicU64::new(0),
            last_tick_us: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Gate one sheddable submission: `true` admits it. Deterministic
    /// thinning — submission `n` is admitted iff `n mod 1000` falls
    /// under the current admitted permille, so drops are spread evenly
    /// through the stream rather than bursted.
    pub fn admit(&self) -> bool {
        let admitted = self.admitted.load(Ordering::Relaxed);
        if admitted >= 1000 {
            return true;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        ((n % 1000) as u32) < admitted
    }

    /// Report the worst in-queue wait of one drained batch. Updates the
    /// EWMA and, at most once per [`ShedConfig::tick`], runs the AIMD
    /// adjustment.
    pub fn observe_queue_delay(&self, wait_us: u64, rec: &dyn Recorder) {
        // Lossy EWMA update: concurrent shards may overwrite each
        // other's fold, which only costs a sample — the servo reads a
        // smoothed signal either way.
        let old = self.delay_ewma_us.load(Ordering::Relaxed);
        let next = old - old / 8 + wait_us / 8;
        self.delay_ewma_us.store(next, Ordering::Relaxed);
        self.maybe_adjust(next, rec);
    }

    /// Report a queue-cap rejection: the backlog got ahead of the
    /// servo, so treat it as an over-target signal directly.
    pub fn on_queue_full(&self, rec: &dyn Recorder) {
        let over = self.config.target_delay.as_micros() as u64 + 1;
        let old = self.delay_ewma_us.load(Ordering::Relaxed);
        self.delay_ewma_us.store(old.max(over), Ordering::Relaxed);
        self.maybe_adjust(over.max(old), rec);
    }

    fn maybe_adjust(&self, ewma_us: u64, rec: &dyn Recorder) {
        let now_us = self.start.elapsed().as_micros() as u64;
        let last = self.last_tick_us.load(Ordering::Relaxed);
        let tick_us = self.config.tick.as_micros() as u64;
        if now_us.saturating_sub(last) < tick_us {
            return;
        }
        // One adjuster per tick: the CAS loser simply skips this round.
        if self
            .last_tick_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let target_us = self.config.target_delay.as_micros() as u64;
        let admitted = self.admitted.load(Ordering::Relaxed);
        let next = if ewma_us > target_us {
            // Multiplicative decrease, floored: shed hard, never fully.
            (admitted / 2).max(self.config.floor_permille)
        } else if ewma_us < target_us / 2 {
            // Additive increase: creep back toward full admission.
            (admitted + self.config.step_permille).min(1000)
        } else {
            admitted
        };
        if next != admitted {
            self.admitted.store(next, Ordering::Relaxed);
            if next < self.min_admitted.load(Ordering::Relaxed) {
                self.min_admitted.store(next, Ordering::Relaxed);
            }
            if rec.enabled() {
                rec.observe(hists::ADMITTED_PERMILLE, u64::from(next));
            }
        }
    }

    /// How long a refused caller should back off before resubmitting:
    /// scales with the observed queue delay, never less than the servo
    /// target, never more than a second.
    pub fn retry_after(&self) -> Duration {
        let ewma = self.delay_ewma_us.load(Ordering::Relaxed);
        let floor = self.config.target_delay.as_micros() as u64;
        Duration::from_micros((ewma * 2).clamp(floor.max(1), 1_000_000))
    }

    /// Current admitted best-effort rate, permille.
    pub fn admitted_permille(&self) -> u32 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Deepest admitted rate ever reached (1000 when never shed). The
    /// floor guarantee in one number: this never returns 0.
    pub fn min_admitted_permille(&self) -> u32 {
        self.min_admitted.load(Ordering::Relaxed)
    }

    /// Whether the controller is currently thinning submissions.
    pub fn shedding(&self) -> bool {
        self.admitted.load(Ordering::Relaxed) < 1000
    }

    /// Current queue-delay EWMA, microseconds.
    pub fn queue_delay_ewma_us(&self) -> u64 {
        self.delay_ewma_us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Collector, Noop};

    fn tight() -> ShedConfig {
        ShedConfig {
            target_delay: Duration::from_micros(100),
            floor_permille: 50,
            step_permille: 25,
            tick: Duration::ZERO,
        }
    }

    #[test]
    fn over_target_delay_halves_the_admitted_rate() {
        let c = ShedController::new(tight());
        assert_eq!(c.admitted_permille(), 1000);
        // Pump the EWMA well over target; each report may adjust (tick
        // is zero) so a few reports walk the rate down multiplicatively.
        for _ in 0..3 {
            c.observe_queue_delay(100_000, &Noop);
        }
        assert!(c.shedding());
        assert!(c.admitted_permille() <= 500);
        assert_eq!(c.min_admitted_permille(), c.admitted_permille());
    }

    #[test]
    fn the_floor_holds_under_any_pressure() {
        let c = ShedController::new(tight());
        for _ in 0..64 {
            c.observe_queue_delay(1_000_000, &Noop);
            c.on_queue_full(&Noop);
        }
        assert_eq!(c.admitted_permille(), 50, "must stop at the floor");
        assert!(c.min_admitted_permille() > 0);
        // Even at the floor some submissions are admitted.
        let admitted = (0..1000).filter(|_| c.admit()).count();
        assert!(admitted > 0, "shed rate reached 100%");
    }

    #[test]
    fn quiet_delay_recovers_additively() {
        let c = ShedController::new(tight());
        for _ in 0..8 {
            c.observe_queue_delay(1_000_000, &Noop);
        }
        let shed_to = c.admitted_permille();
        assert_eq!(shed_to, 50);
        // Let the EWMA decay to quiet, then recover step by step.
        for _ in 0..200 {
            c.observe_queue_delay(0, &Noop);
        }
        assert_eq!(c.admitted_permille(), 1000, "full recovery");
        assert_eq!(c.min_admitted_permille(), shed_to, "deepest shed kept");
    }

    #[test]
    fn thinning_matches_the_admitted_permille() {
        let c = ShedController::new(ShedConfig {
            floor_permille: 250,
            ..tight()
        });
        for _ in 0..8 {
            c.observe_queue_delay(1_000_000, &Noop);
        }
        assert_eq!(c.admitted_permille(), 250);
        let admitted = (0..4000).filter(|_| c.admit()).count();
        assert_eq!(admitted, 1000, "deterministic 1-in-4 thinning");
    }

    #[test]
    fn retry_after_is_bounded_and_positive() {
        let c = ShedController::new(tight());
        assert!(c.retry_after() >= Duration::from_micros(100));
        for _ in 0..4 {
            c.observe_queue_delay(10_000_000, &Noop);
        }
        assert!(c.retry_after() <= Duration::from_secs(1));
    }

    #[test]
    fn adjustments_are_recorded() {
        let rec = Collector::new();
        let c = ShedController::new(tight());
        c.observe_queue_delay(1_000_000, &rec);
        let snap = rec.snapshot();
        assert!(snap.histograms.contains_key("admitted_permille"));
    }
}
