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
//!   engine returned an error" (and retry it a bounded number of times).
//! * [`CircuitBreaker`] — the classic closed → open → half-open state
//!   machine over *consecutive* failures. While open, the loop skips
//!   the primary engine entirely and serves from the fallback; after a
//!   cooldown (counted in reroute attempts, not wall time — the loop
//!   only runs when events arrive) a single probe is let through.

use crate::manager::SmError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
/// [`CircuitBreaker::allow`] refuses `cooldown - 1` calls, then moves to
/// half-open and admits the next as the probe (and any call after it,
/// until the probe's outcome is recorded). A successful probe closes
/// the breaker; a failed one re-opens it for a full cooldown.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: usize,
    cooldown: usize,
    state: BreakerState,
    /// Failures since the last success; reset when the breaker trips.
    consecutive: usize,
    /// Calls left in the cooldown while open.
    remaining: usize,
}

impl Default for CircuitBreaker {
    /// Three consecutive failures open the breaker for two reroutes.
    fn default() -> Self {
        CircuitBreaker::new(3, 2)
    }
}

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and cooling down for `cooldown` calls. Both are clamped to at
    /// least 1.
    pub fn new(threshold: usize, cooldown: usize) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            state: BreakerState::Closed,
            consecutive: 0,
            remaining: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> usize {
        self.consecutive
    }

    /// May the next call go to the primary engine? Ticks the cooldown
    /// while open; the call that exhausts it is admitted as the
    /// half-open probe.
    pub fn allow(&mut self) -> bool {
        if self.state == BreakerState::Open {
            self.remaining -= 1;
            if self.remaining > 0 {
                return false;
            }
            self.state = BreakerState::HalfOpen;
        }
        true
    }

    /// Record a successful primary call: closes the breaker.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive = 0;
    }

    /// Record a failed primary call. Returns `true` when this failure
    /// tripped the breaker open (from closed or from a failed probe).
    pub fn record_failure(&mut self) -> bool {
        match self.state {
            BreakerState::Open => return false,
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive < self.threshold {
                    return false;
                }
            }
            BreakerState::HalfOpen => {}
        }
        self.state = BreakerState::Open;
        self.consecutive = 0;
        self.remaining = self.cooldown;
        true
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
        let mut b = CircuitBreaker::new(2, 2);
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
        let mut b = CircuitBreaker::new(1, 1);
        assert!(b.record_failure());
        assert!(b.allow(), "cooldown of 1: next call is the probe");
        assert!(b.record_failure(), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(3, 1);
        b.record_failure();
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak restarted");
        assert_eq!(b.consecutive_failures(), 1);
    }

    /// The breaker's rules as its doc comment states them, kept apart
    /// from the implementation: trip at `threshold` consecutive
    /// failures, refuse `cooldown - 1` calls while open, admit the next
    /// as the probe, re-trip on a failed probe, reset on any success.
    struct Reference {
        threshold: usize,
        cooldown: usize,
        /// `None` while closed; while open, the calls refused so far.
        refused: Option<usize>,
        probing: bool,
        failures: usize,
    }

    impl Reference {
        fn state(&self) -> BreakerState {
            match (self.refused, self.probing) {
                (_, true) => BreakerState::HalfOpen,
                (Some(_), false) => BreakerState::Open,
                (None, false) => BreakerState::Closed,
            }
        }

        fn allow(&mut self) -> bool {
            match self.refused {
                Some(n) if !self.probing && n + 1 < self.cooldown => {
                    self.refused = Some(n + 1);
                    false
                }
                Some(_) => {
                    self.probing = true;
                    true
                }
                None => true,
            }
        }

        fn success(&mut self) {
            (self.refused, self.probing, self.failures) = (None, false, 0);
        }

        fn failure(&mut self) -> bool {
            if self.refused.is_some() && !self.probing {
                return false;
            }
            self.failures += 1;
            if self.probing || self.failures == self.threshold {
                (self.refused, self.probing, self.failures) = (Some(0), false, 0);
                return true;
            }
            false
        }
    }

    #[test]
    fn the_breaker_follows_its_rules_over_seeded_call_sequences() {
        for threshold in [1, 2, 3, usize::MAX] {
            for cooldown in [1, 2, 5] {
                for seed in 0..8 {
                    let mut rng = fabric::rng::Rng::seed_from_u64(seed);
                    let mut b = CircuitBreaker::new(threshold, cooldown);
                    let mut r = Reference {
                        threshold,
                        cooldown,
                        refused: None,
                        probing: false,
                        failures: 0,
                    };
                    for call in 0..200 {
                        let case = format!(
                            "threshold {threshold} cooldown {cooldown} seed {seed} call {call}"
                        );
                        // Failures and calls outweigh successes, so
                        // every threshold but the last trips.
                        match rng.range(0..5u8) {
                            0 | 1 => assert_eq!(b.allow(), r.allow(), "allow: {case}"),
                            2 => {
                                b.record_success();
                                r.success();
                            }
                            _ => assert_eq!(b.record_failure(), r.failure(), "failure: {case}"),
                        }
                        assert_eq!(b.state(), r.state(), "{case}");
                        assert_eq!(b.consecutive_failures(), r.failures, "{case}");
                    }
                }
            }
        }
    }
}
