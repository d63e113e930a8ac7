//! Statistics collected by the sweeping flow — exactly the metrics
//! the paper's tables and figures report.

use std::time::Duration;

/// One guided-simulation iteration's record (the data behind
/// Figure 7's per-iteration cost/runtime curves).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0-based; random rounds count first).
    pub iteration: usize,
    /// Class cost (Equation 5) after this iteration's refinement.
    pub cost: u64,
    /// Vectors produced this iteration.
    pub vectors: usize,
    /// Time spent inside the pattern generator.
    pub gen_time: Duration,
    /// Time spent simulating and refining classes.
    pub sim_time: Duration,
}

/// Cumulative sweep statistics.
#[derive(Clone, Debug, Default)]
pub struct SweepStats {
    /// SAT solver invocations (one per candidate pair).
    pub sat_calls: u64,
    /// Wall time inside the SAT solver.
    pub sat_time: Duration,
    /// Aggregated CDCL solver totals, summed over every prover the
    /// sweep created. Per-pair solver work is deterministic and
    /// addition is commutative, so the totals are `--jobs`-invariant.
    pub solver: simgen_sat::SolverStats,
    /// Wall time generating patterns (guided strategies).
    pub gen_time: Duration,
    /// Wall time simulating patterns and refining classes.
    pub sim_time: Duration,
    /// Wall time of batched counterexample resimulation (a subset of
    /// [`SweepStats::sim_time`]).
    pub resim_time: Duration,
    /// Shape of the compiled simulation kernel (`None` until the
    /// simulation phase compiles one).
    pub kernel: Option<simgen_sim::KernelSummary>,
    /// Simulation-executor work totals (kernel executions, lane words,
    /// scalar pushes), harvested at the end of the sweep.
    pub exec: simgen_sim::ExecStats,
    /// Lane-table footprint from the compiled kernel, which feeds the
    /// memory governor: `order.len() × num_patterns.div_ceil(64) × 8`
    /// of the largest block, the same at every SIMD level. Stripped
    /// from deterministic report forms until the report schema next
    /// changes.
    pub pool: simgen_sim::PoolStats,
    /// Pairs proven equivalent by SAT.
    pub proved_equivalent: u64,
    /// Pairs disproven by a SAT counterexample.
    pub disproved: u64,
    /// Pairs abandoned without an answer: conflict budget exhausted,
    /// deadline expired before the pair was started, or the pair's
    /// prover was quarantined after a panic.
    pub aborted: u64,
    /// Pairs quarantined because certification rejected the engine's
    /// answer: the DRAT checker refused an `Equivalent` proof, or the
    /// scalar replay refused a counterexample. Always zero unless the
    /// sweep ran with [`SweepConfig::certify`](crate::SweepConfig)
    /// and any nonzero value means an engine bug was caught.
    pub certification_failures: u64,
    /// Per-iteration history of the simulation phase.
    pub history: Vec<IterationRecord>,
    /// Proof-dispatch breakdown (`None` when the resolution phase did
    /// not run, i.e. under `run_sat: false`).
    pub dispatch: Option<DispatchSummary>,
}

/// What one dispatch worker contributed across all proof rounds.
///
/// The merge books every dispatched pair's result into the row of the
/// worker that ran it, so the rows partition the [`DispatchSummary`]
/// totals (rounds replayed from a journal restore the totals only).
/// Which worker ran which pair depends on scheduling: the rows are
/// diagnostics, and the deterministic totals live directly on
/// [`DispatchSummary`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Worker index.
    pub worker: usize,
    /// Pair proofs this worker executed.
    pub proofs: u64,
    /// Solver conflicts spent in aborted (budget-limited) attempts.
    pub conflicts: u64,
    /// Pairs left undecided: their SAT budget ran out, or their BDDs
    /// outgrew the node limit under BDD-only.
    pub timeouts: u64,
    /// Pair proofs that panicked on this worker; each one
    /// quarantined its pair.
    pub panics: u64,
}

/// Aggregated parallel-dispatch statistics for one sweep.
///
/// The total fields are accumulated merge-side, in candidate-pair
/// order, from each pair's returned outcome — so they are identical
/// for any `--jobs` value even when injected faults panic proofs
/// mid-round (a panicked pair deterministically contributes nothing
/// but its panic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchSummary {
    /// Worker count the sweep ran with.
    pub jobs: usize,
    /// Synchronised proof rounds executed.
    pub rounds: u64,
    /// Pairs quarantined because their proof panicked, was skipped by
    /// an expired deadline, or failed certification; all of them end
    /// the sweep unresolved.
    pub quarantined: u64,
    /// Pair proofs that ran to completion (panicked and skipped pairs
    /// are excluded).
    pub proofs: u64,
    /// Solver conflicts spent in aborted (budget-limited) attempts.
    pub conflicts: u64,
    /// Pairs left undecided: their SAT budget ran out, or their BDDs
    /// outgrew the node limit under BDD-only.
    pub timeouts: u64,
    /// Pair proofs that panicked; each one quarantined its pair.
    pub panics: u64,
    /// Per-worker breakdown, indexed by worker id (scheduling
    /// diagnostics, see [`WorkerSummary`]).
    pub workers: Vec<WorkerSummary>,
}

impl DispatchSummary {
    /// Total completed pair proofs (deterministic, merge-side).
    pub fn total_proofs(&self) -> u64 {
        self.proofs
    }

    /// Always 0: each pair gets one attempt. It exists only for
    /// `e2ebench/src/api.rs`, the benchmark's frozen door into the
    /// library.
    pub fn total_escalations(&self) -> u64 {
        0
    }

    /// Total exhausted pairs (deterministic, merge-side).
    pub fn total_timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Always 0: workers take jobs from one shared cursor and never
    /// steal. It exists only for `e2ebench/src/api.rs`, the benchmark's
    /// frozen door into the library.
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Total panicked proof jobs (deterministic, merge-side).
    pub fn total_panics(&self) -> u64 {
        self.panics
    }
}

impl SweepStats {
    /// Total simulation-phase time (generation + simulation).
    pub fn total_sim_phase(&self) -> Duration {
        self.gen_time + self.sim_time
    }

    /// The cost after the last simulation iteration (`u64::MAX` when
    /// no iteration ran).
    pub fn final_cost(&self) -> u64 {
        self.history.last().map_or(u64::MAX, |r| r.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let mut s = SweepStats::default();
        assert_eq!(s.final_cost(), u64::MAX);
        s.history.push(IterationRecord {
            iteration: 0,
            cost: 10,
            vectors: 64,
            gen_time: Duration::from_millis(1),
            sim_time: Duration::from_millis(2),
        });
        s.history.push(IterationRecord {
            iteration: 1,
            cost: 7,
            vectors: 1,
            gen_time: Duration::from_millis(3),
            sim_time: Duration::from_millis(4),
        });
        s.gen_time = Duration::from_millis(4);
        s.sim_time = Duration::from_millis(6);
        assert_eq!(s.final_cost(), 7);
        assert_eq!(s.total_sim_phase(), Duration::from_millis(10));
    }

    #[test]
    fn dispatch_summary_totals_are_merge_side_not_row_sums() {
        let summary = DispatchSummary {
            jobs: 3,
            rounds: 2,
            quarantined: 4,
            proofs: 23,
            timeouts: 1,
            panics: 3,
            workers: vec![
                // Rows that do not add up to the totals: the summary's
                // own fields are authoritative.
                WorkerSummary {
                    worker: 0,
                    proofs: 4,
                    panics: 1,
                    ..WorkerSummary::default()
                },
                WorkerSummary {
                    worker: 1,
                    proofs: 8,
                    panics: 2,
                    ..WorkerSummary::default()
                },
                WorkerSummary {
                    worker: 2,
                    proofs: 5,
                    timeouts: 1,
                    ..WorkerSummary::default()
                },
            ],
            ..DispatchSummary::default()
        };
        assert_eq!(summary.total_panics(), 3);
        assert_eq!(summary.total_proofs(), 23);
        assert_eq!(summary.total_timeouts(), 1);
        // Quarantined covers panicked, deadline-skipped and
        // certification-failed pairs, so it is tracked independently
        // of the panic counts.
        assert_eq!(summary.quarantined, 4);
    }

    #[test]
    fn default_summary_is_clean() {
        let summary = DispatchSummary::default();
        assert_eq!(summary.total_panics(), 0);
        assert_eq!(summary.quarantined, 0);
    }
}
