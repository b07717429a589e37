//! Seeded property sweeps: a property is a plain `#[test]` that runs its
//! body once per seed in a range, on a generator seeded with it. Every
//! parameter is drawn through the [`Case`], which records it, so a
//! failure names the case's seed and everything it drew; narrowing the
//! range to that seed (`sweep(17..18, ..)`) replays the case alone.
//! There is no shrinking — the parameters are a handful of small
//! integers.
#![allow(dead_code)]

use fabric::rng::{Rng, UniformInt};
use std::fmt::{Debug, Write as _};
use std::ops::{Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One case of a sweep: its generator and a log of what it drew.
pub struct Case {
    /// The case's generator, for bulk draws recorded afterwards with
    /// [`Case::note`].
    pub rng: Rng,
    drawn: String,
}

impl Case {
    /// Draw `name` uniformly from `range` and record it.
    pub fn draw<T: UniformInt + Debug>(&mut self, name: &str, range: impl RangeBounds<T>) -> T {
        let value = self.rng.range(range);
        self.note(name, &value);
        value
    }

    /// Record a derived parameter (e.g. a generated edge list).
    pub fn note(&mut self, name: &str, value: &dyn Debug) {
        write!(self.drawn, " {name}={value:?}").expect("write to String");
    }
}

/// Run `property` once per seed in `seeds`.
pub fn sweep(seeds: Range<u64>, property: impl Fn(&mut Case)) {
    for seed in seeds {
        let mut case = Case {
            rng: Rng::seed_from_u64(seed),
            drawn: String::new(),
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut case))) {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!("case seed {seed} failed with{}: {message}", case.drawn);
        }
    }
}
