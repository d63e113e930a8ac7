//! Deterministic fault injection for chaos testing the dispatch and
//! sweeping stack (feature `fault-inject` only — never compiled into
//! release binaries unless explicitly requested).
//!
//! A [`FaultPlan`] is a pure function from `(seed, job index)` to a
//! [`FaultAction`]: it holds no mutable state, so the same seed
//! produces the same faults at the same job indices regardless of
//! worker count, thread scheduling or wall-clock timing. That is what
//! lets the chaos suite demand *byte-identical* deterministic run
//! reports across `--jobs` values while panicking workers, stalling
//! jobs and spuriously reporting `Unknown`: the faults are part of
//! the input, not of the schedule.
//!
//! The action mix (per 16 jobs: one panic, one stall, one spurious
//! `Unknown`, thirteen untouched) keeps most of the workload healthy
//! so soundness assertions still have merges to compare against.

use std::time::Duration;

/// What to do to the job at a given index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Leave the job alone.
    None,
    /// Panic inside the pair proof (exercises the sweep's per-pair
    /// `catch_unwind` and the quarantine of the pair).
    Panic,
    /// Sleep before running the job (exercises stall detection and
    /// schedule-independence of the merged results).
    Stall(Duration),
    /// Report a spurious `Unknown` instead of running the job
    /// (exercises the inconclusive/quarantine path).
    SpuriousUnknown,
}

/// A seeded, deterministic plan of injected faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

/// SplitMix64 — tiny, well-mixed, and dependency-free; exactly what a
/// reproducible fault oracle needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Creates the plan identified by `seed`.
    pub fn from_seed(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) for the job at `index`. Pure: same plan and
    /// index always yield the same action.
    pub fn action(&self, index: usize) -> FaultAction {
        let h = splitmix64(self.seed ^ splitmix64(index as u64 + 1));
        match h % 16 {
            0 => FaultAction::Panic,
            1 => FaultAction::Stall(Duration::from_millis(1 + (h >> 8) % 4)),
            2 => FaultAction::SpuriousUnknown,
            _ => FaultAction::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_seed_and_index() {
        let p = FaultPlan::from_seed(42);
        let q = FaultPlan::from_seed(42);
        for i in 0..256 {
            assert_eq!(p.action(i), q.action(i));
        }
        assert_eq!(p.seed(), 42);
    }

    #[test]
    fn distinct_seeds_produce_distinct_plans() {
        let p = FaultPlan::from_seed(1);
        let q = FaultPlan::from_seed(2);
        let differs = (0..256).any(|i| p.action(i) != q.action(i));
        assert!(
            differs,
            "two seeds giving 256 identical actions is broken mixing"
        );
    }

    #[test]
    fn every_action_kind_occurs_and_most_jobs_are_untouched() {
        let p = FaultPlan::from_seed(7);
        let mut panics = 0;
        let mut stalls = 0;
        let mut unknowns = 0;
        let mut clean = 0;
        for i in 0..512 {
            match p.action(i) {
                FaultAction::Panic => panics += 1,
                FaultAction::Stall(d) => {
                    assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(4));
                    stalls += 1;
                }
                FaultAction::SpuriousUnknown => unknowns += 1,
                FaultAction::None => clean += 1,
            }
        }
        assert!(panics > 0 && stalls > 0 && unknowns > 0);
        assert!(clean > 512 / 2, "most jobs must run clean: {clean}");
    }
}
