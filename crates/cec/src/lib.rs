//! SAT sweeping and combinational equivalence checking, built around
//! pluggable simulation-pattern generators — the complete "sweeping
//! tool" of the paper's Figure 2.
//!
//! The flow mirrors ABC's: random simulation seeds the equivalence
//! classes; a guided generator ([`simgen_core::PatternGenerator`])
//! refines them; the SAT solver resolves whatever simulation could not
//! split, feeding counterexamples back into the simulator. The
//! statistics the paper reports — class cost (Equation 5), simulation
//! runtime, SAT calls and SAT runtime — are collected throughout.
//!
//! # Example
//!
//! Sweep a small network with SimGen patterns:
//!
//! ```
//! use simgen_cec::{RunContext, SweepConfig, Sweeper};
//! use simgen_core::{SimGen, SimGenConfig};
//! use simgen_netlist::{LutNetwork, TruthTable};
//!
//! let mut net = LutNetwork::new();
//! let a = net.add_pi("a");
//! let b = net.add_pi("b");
//! let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
//! let y = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
//! net.add_po(x, "x");
//! net.add_po(y, "y");
//!
//! let mut gen = SimGen::new(SimGenConfig::default());
//! // No deadline, no observer, no cache, no journal.
//! let mut ctx = RunContext::default();
//! let report = Sweeper::new(SweepConfig::default()).run(&net, &mut gen, &mut ctx);
//! // The two identical ANDs are proven equivalent by SAT.
//! assert_eq!(report.stats.proved_equivalent, 1);
//! assert_eq!(report.unresolved.len(), 0);
//! ```
//!
//! [`check_equivalence`] runs the same sweep on the miter of two
//! designs and then proves their outputs; both take the same
//! [`RunContext`] for deadlines, instrumentation, the proof cache and
//! the crash-safe journal.

pub mod cache;
pub mod certify;
pub mod flow;
pub mod govern;
pub mod journal;
pub mod parallel;
pub mod prove;
pub mod region;
pub mod report;
pub mod stats;
pub mod sweep;

pub use certify::{certify_equivalence, PROOF_BYTE_BUDGET};
pub use flow::{
    check_equivalence, check_equivalence_observed, CecReport, CecVerdict, InconclusiveReason,
    SwitchOnPlateau,
};
pub use govern::{estimate_resident, MemoryGovernor};
pub use journal::{PairRecord, RoundRecord, SweepJournal, CRASH_ENV, JOURNAL_FILE, JOURNAL_SCHEMA};
pub use parallel::{ParallelSweeper, Sweeper};
pub use prove::{BddProver, PairProver, ProveOutcome, Verdict};
pub use region::RegionMap;
pub use report::{cec_run_report, design_info, design_name, sweep_run_report, RunMeta};
pub use simgen_cache::{job_key, pair_key, CacheKey, ProofCache};
pub use simgen_dispatch::{Deadline, EngineMode, EnginePolicy, Progress, Watchdog, MAX_JOBS};
#[cfg(feature = "fault-inject")]
pub use simgen_dispatch::{FaultAction, FaultPlan};
pub use stats::{DispatchSummary, IterationRecord, SweepStats, WorkerSummary};
pub use sweep::{RunContext, SweepConfig, SweepReport};
