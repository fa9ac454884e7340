//! A small property-test harness.
//!
//! Replaces `proptest` for this workspace: a property is a closure over a
//! seeded [`Rng64`]; [`run_cases`] runs it for N
//! deterministic seeds and, when a case panics, re-raises with the case
//! seed so the failure can be replayed with [`replay`]. There is no
//! shrinking — generators here are simple enough that the seed plus the
//! property body localize a failure.

use crate::rng::Rng64;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases, matching proptest's default.
pub const DEFAULT_CASES: u32 = 256;

/// Run `property` for `cases` deterministic cases derived from
/// `base_seed`. Each case gets a fresh `Rng64` whose seed is reported on
/// failure.
///
/// # Panics
///
/// Panics (re-raising the case's panic) if any case fails, with a
/// message naming the failing seed.
pub fn run_cases(name: &str, base_seed: u64, cases: u32, property: impl Fn(&mut Rng64)) {
    for case in 0..cases {
        let seed = base_seed ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng64::seed_from_u64(seed);
            property(&mut rng);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property `{name}` failed on case {case}/{cases} (seed {seed:#x}): {msg}\n\
                 replay with gpstream_util::check::replay(\"{name}\", {seed:#x}, ..)"
            );
        }
    }
}

/// Re-run a single failing case by seed.
pub fn replay(_name: &str, seed: u64, property: impl Fn(&mut Rng64)) {
    let mut rng = Rng64::seed_from_u64(seed);
    property(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        // Interior mutability via a Cell would be nicer, but a RefCell in
        // an AssertUnwindSafe closure works and keeps this test simple.
        let counter = std::cell::Cell::new(0u32);
        run_cases("count", 1, 64, |_| counter.set(counter.get() + 1));
        count += counter.get();
        assert_eq!(count, 64);
    }

    #[test]
    fn failing_property_reports_seed() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_cases("always-fails", 2, 8, |rng| {
                let v = rng.below(100);
                assert!(v >= 100, "forced failure v={v}");
            });
        }));
        let err = result.expect_err("property must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains("always-fails"), "{msg}");
    }

    #[test]
    fn cases_use_distinct_seeds() {
        let seen = std::cell::RefCell::new(std::collections::HashSet::new());
        run_cases("distinct", 3, 32, |rng| {
            seen.borrow_mut().insert(rng.next_u64());
        });
        assert_eq!(seen.borrow().len(), 32, "each case must draw a distinct stream");
    }
}
