//! Panic containment for the serving path.
//!
//! A routing engine is third-party code from the subnet manager's point
//! of view (OpenSM loads them as plugins): a bug in one must not take
//! the SM — and with it the whole fabric — down. This module supplies
//! the two armor pieces [`crate::SmLoop`] wraps around every engine
//! call:
//!
//! * [`contain`] — runs the call under `catch_unwind` and converts a
//!   panic into the typed [`SmError::EnginePanicked`], so the
//!   escalation ladder can treat "the engine crashed" exactly like "the
//!   engine returned an error".
//! * [`CircuitBreaker`] — the classic closed → open → half-open state
//!   machine over *consecutive* failures. While open, the loop skips
//!   the primary engine entirely and serves from the fallback; after a
//!   cooldown (counted in reroute attempts, not wall time — the loop
//!   only runs when events arrive) a single probe is let through.
//! * [`RetryPolicy`] — bounded retries with deterministic, seeded,
//!   jittered exponential backoff. Determinism matters here: a chaos
//!   campaign replayed with the same seed must observe the same backoff
//!   sequence.

use crate::manager::SmError;
use crate::sync::atomic::{AtomicU64, Ordering};
use fabric::rng::{splitmix64, unit_f64};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Run `f` with panics contained: a panic becomes
/// [`SmError::EnginePanicked`] carrying the panic message.
pub fn contain<T>(f: impl FnOnce() -> Result<T, SmError>) -> Result<T, SmError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(SmError::EnginePanicked(panic_message(payload))),
    }
}

/// Best-effort extraction of the panic message.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where the breaker currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow to the primary engine.
    Closed,
    /// Tripped: the primary engine is skipped until the cooldown runs out.
    Open,
    /// Cooldown expired: exactly one probe call is allowed through.
    HalfOpen,
}

/// A circuit breaker over consecutive primary-engine failures.
///
/// `threshold` consecutive failures trip it open; while open,
/// [`CircuitBreaker::allow`] refuses `cooldown` calls, then moves to
/// half-open and admits one probe. A successful probe closes the
/// breaker; a failed one re-opens it for a full cooldown.
///
/// The mutable state — `(state, consecutive, remaining)` — lives in one
/// packed atomic word updated by compare-exchange loops, so every method
/// takes `&self` and each transition is a single linearization point:
/// concurrent `allow`/`record_failure` calls can never lose a failure
/// count or admit two half-open probes (model-checked under
/// `--features loom-tests`). `consecutive` and `remaining` each get 31
/// bits; counts saturate there, which only matters for configurations
/// beyond 2^31 (a saturated `remaining` still refuses, a saturated
/// `consecutive` still stays below any larger threshold).
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: usize,
    cooldown: usize,
    /// Packed `[state:2][consecutive:31][remaining:31]`.
    word: AtomicU64,
}

/// Field widths/offsets of the packed breaker word.
const BR_FIELD_BITS: u32 = 31;
const BR_FIELD_MASK: u64 = (1 << BR_FIELD_BITS) - 1;

fn br_pack(state: BreakerState, consecutive: u64, remaining: u64) -> u64 {
    let s = match state {
        BreakerState::Closed => 0u64,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    };
    (s << (2 * BR_FIELD_BITS))
        | (consecutive.min(BR_FIELD_MASK) << BR_FIELD_BITS)
        | remaining.min(BR_FIELD_MASK)
}

fn br_unpack(word: u64) -> (BreakerState, u64, u64) {
    let state = match word >> (2 * BR_FIELD_BITS) {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        _ => BreakerState::HalfOpen,
    };
    (
        state,
        (word >> BR_FIELD_BITS) & BR_FIELD_MASK,
        word & BR_FIELD_MASK,
    )
}

impl Default for CircuitBreaker {
    /// Three consecutive failures open the breaker for two reroutes.
    fn default() -> Self {
        CircuitBreaker::new(3, 2)
    }
}

impl Clone for CircuitBreaker {
    fn clone(&self) -> Self {
        CircuitBreaker {
            threshold: self.threshold,
            cooldown: self.cooldown,
            word: AtomicU64::new(self.word.load(Ordering::SeqCst)),
        }
    }
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and cooling down for `cooldown` refused calls. Both are clamped
    /// to at least 1.
    pub fn new(threshold: usize, cooldown: usize) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            word: AtomicU64::new(br_pack(BreakerState::Closed, 0, 0)),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        br_unpack(self.word.load(Ordering::SeqCst)).0
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> usize {
        br_unpack(self.word.load(Ordering::SeqCst)).1 as usize
    }

    /// May the next call go to the primary engine? Ticks the cooldown
    /// while open; the call that exhausts it is admitted as the
    /// half-open probe (exactly one caller wins that race).
    pub fn allow(&self) -> bool {
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let (state, consecutive, remaining) = br_unpack(cur);
            match state {
                BreakerState::Closed | BreakerState::HalfOpen => return true,
                BreakerState::Open => {
                    let left = remaining.saturating_sub(1);
                    let (next_state, verdict) = if left == 0 {
                        (BreakerState::HalfOpen, true)
                    } else {
                        (BreakerState::Open, false)
                    };
                    let next = br_pack(next_state, consecutive, left);
                    match self
                        .word
                        .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
                    {
                        Ok(_) => return verdict,
                        Err(seen) => cur = seen,
                    }
                }
            }
        }
    }

    /// Record a successful primary call: closes the breaker.
    pub fn record_success(&self) {
        self.word
            .store(br_pack(BreakerState::Closed, 0, 0), Ordering::SeqCst);
    }

    /// Record a failed primary call. Returns `true` when this failure
    /// tripped the breaker open (from closed or from a failed probe);
    /// under concurrency exactly one of the racing failures trips.
    pub fn record_failure(&self) -> bool {
        let mut cur = self.word.load(Ordering::SeqCst);
        loop {
            let (state, consecutive, _remaining) = br_unpack(cur);
            let (next, tripped) = match state {
                BreakerState::Open => return false,
                BreakerState::HalfOpen => (self.tripped_word(), true),
                BreakerState::Closed => {
                    let seen = consecutive.saturating_add(1);
                    if seen as usize >= self.threshold {
                        (self.tripped_word(), true)
                    } else {
                        (br_pack(BreakerState::Closed, seen, 0), false)
                    }
                }
            };
            match self
                .word
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return tripped,
                Err(seen) => cur = seen,
            }
        }
    }

    fn tripped_word(&self) -> u64 {
        br_pack(BreakerState::Open, 0, self.cooldown as u64)
    }
}

/// Bounded retries with deterministic jittered exponential backoff.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 disables retrying).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter seed: the same seed yields the same backoff sequence.
    pub seed: u64,
    /// Actually sleep the backoff. Off by default: simulations and
    /// tests want the *sequence*, not the wall-clock wait.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            seed: 0,
            sleep: false,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based): exponential with full
    /// determinism, jittered into `[exp/2, exp]` so simultaneous
    /// breakers do not thunder in lockstep.
    pub fn backoff(&self, attempt: usize) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20) as u32)
            .min(self.max_backoff);
        let half = exp / 2;
        // Jitter fraction in [0, 1) from a splitmix64 step.
        let frac = unit_f64(splitmix64(self.seed ^ attempt as u64));
        half + Duration::from_nanos((half.as_nanos() as f64 * frac) as u64)
    }

    /// Wait out the backoff for retry `attempt` and return it.
    pub fn pause(&self, attempt: usize) -> Duration {
        let d = self.backoff(attempt);
        if self.sleep {
            std::thread::sleep(d);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_passes_results_through() {
        assert!(contain(|| Ok::<_, SmError>(7)).is_ok());
        let err = contain(|| -> Result<(), SmError> { Err(SmError::InvalidEvent("x".into())) })
            .unwrap_err();
        assert!(matches!(err, SmError::InvalidEvent(_)));
    }

    #[test]
    fn contain_converts_panics() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = contain(|| -> Result<(), SmError> { panic!("engine bug {}", 42) }).unwrap_err();
        std::panic::set_hook(hook);
        match err {
            SmError::EnginePanicked(msg) => assert_eq!(msg, "engine bug 42"),
            other => panic!("expected EnginePanicked, got {other}"),
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let b = CircuitBreaker::new(2, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure());
        assert!(b.record_failure(), "second failure trips the threshold");
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown: first call refused, second admitted as the probe.
        assert!(!b.allow());
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = CircuitBreaker::new(1, 1);
        assert!(b.record_failure());
        assert!(b.allow(), "cooldown of 1: next call is the probe");
        assert!(b.record_failure(), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(3, 1);
        b.record_failure();
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak restarted");
        assert_eq!(b.consecutive_failures(), 1);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let p = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        let a: Vec<Duration> = (1..=4).map(|i| p.backoff(i)).collect();
        let b: Vec<Duration> = (1..=4).map(|i| p.backoff(i)).collect();
        assert_eq!(a, b, "same seed, same sequence");
        for (i, d) in a.iter().enumerate() {
            let exp = p
                .base_backoff
                .saturating_mul(1 << i as u32)
                .min(p.max_backoff);
            assert!(*d >= exp / 2 && *d <= exp, "attempt {}: {d:?}", i + 1);
        }
        let other = RetryPolicy {
            seed: 8,
            ..RetryPolicy::default()
        };
        assert_ne!(a, (1..=4).map(|i| other.backoff(i)).collect::<Vec<_>>());
    }

    #[test]
    fn backoff_caps_at_the_ceiling() {
        let p = RetryPolicy::default();
        assert!(p.backoff(60) <= p.max_backoff);
    }
}

/// Exhaustive interleaving models for the breaker's packed-word CAS
/// protocol, plus a torn-RMW mutant the checker must refute. Compiled
/// only under `--features loom-tests`; see `serve::models` and
/// DESIGN.md §13 for the scheme.
#[cfg(all(test, feature = "loom-tests"))]
mod breaker_models {
    use super::*;
    use weave::sync::Arc;
    use weave::{thread, Builder};

    #[test]
    fn racing_failures_trip_exactly_once() {
        Builder::default()
            .check(|| {
                let b = Arc::new(CircuitBreaker::new(2, 1));
                let b2 = Arc::clone(&b);
                let racer = thread::spawn(move || b2.record_failure());
                let here = b.record_failure();
                let there = racer.join().unwrap();
                // Threshold 2, two racing failures: the CAS serializes
                // them, so exactly the second one trips.
                assert!(here ^ there, "expected exactly one trip: {here}/{there}");
                assert_eq!(b.state(), BreakerState::Open);
            })
            .expect("racing record_failure must trip exactly once");
    }

    #[test]
    fn racing_allows_admit_exactly_one_probe() {
        Builder::default()
            .check(|| {
                let b = Arc::new(CircuitBreaker::new(1, 2));
                assert!(b.record_failure(), "threshold 1 trips immediately");
                let b2 = Arc::clone(&b);
                let racer = thread::spawn(move || b2.allow());
                let here = b.allow();
                let there = racer.join().unwrap();
                // Cooldown 2, two racing allows: one burns the budget and
                // is refused, the other is admitted as the half-open probe.
                assert!(here ^ there, "expected exactly one probe: {here}/{there}");
                assert_eq!(b.state(), BreakerState::HalfOpen);
            })
            .expect("racing allow must admit exactly one half-open probe");
    }

    #[test]
    fn success_during_failure_race_never_wedges_open_state() {
        Builder::default()
            .check(|| {
                let b = Arc::new(CircuitBreaker::new(2, 1));
                let b2 = Arc::clone(&b);
                let failer = thread::spawn(move || {
                    b2.record_failure();
                });
                b.record_success();
                failer.join().unwrap();
                // Whoever lost the race, the word must be a coherent
                // state: either the streak restarted after the success or
                // the failure landed after it (streak of one). Never open.
                assert_ne!(b.state(), BreakerState::Open);
                assert!(b.consecutive_failures() <= 1);
            })
            .expect("success racing one failure below threshold");
    }

    /// The seeded bug: `record_failure` as a torn load/modify/store
    /// instead of a CAS loop — the exact defect the packed-word design
    /// exists to rule out.
    struct TornBreaker {
        threshold: usize,
        word: crate::sync::atomic::AtomicU64,
    }

    impl TornBreaker {
        fn record_failure(&self) -> bool {
            use crate::sync::atomic::Ordering;
            let cur = self.word.load(Ordering::SeqCst);
            let (state, consecutive, _) = br_unpack(cur);
            let (next, tripped) = match state {
                BreakerState::Open => return false,
                BreakerState::HalfOpen => (br_pack(BreakerState::Open, 0, 1), true),
                BreakerState::Closed => {
                    let seen = consecutive.saturating_add(1);
                    if seen >= self.threshold as u64 {
                        (br_pack(BreakerState::Open, 0, 1), true)
                    } else {
                        (br_pack(BreakerState::Closed, seen, 0), false)
                    }
                }
            };
            self.word.store(next, Ordering::SeqCst);
            tripped
        }
    }

    #[test]
    fn mutant_torn_rmw_loses_a_failure() {
        let failure = Builder::default()
            .check(|| {
                let b = Arc::new(TornBreaker {
                    threshold: 2,
                    word: crate::sync::atomic::AtomicU64::new(0),
                });
                let b2 = Arc::clone(&b);
                let racer = thread::spawn(move || b2.record_failure());
                let here = b.record_failure();
                let there = racer.join().unwrap();
                assert!(here ^ there, "expected exactly one trip: {here}/{there}");
            })
            .expect_err("a torn RMW must lose one of the racing failures");
        assert!(failure.message.contains("exactly one trip"), "{failure}");
    }
}
