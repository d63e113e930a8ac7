//! Proof dispatch: an ordered executor that runs a round's jobs on
//! scoped threads, plus the [`EnginePolicy`] that picks which proof
//! engine resolves each pair.
//!
//! The crate is deliberately domain-agnostic: the executor runs any
//! `Fn(&mut State, Job) -> Result` over a job list and returns results
//! **in input order**, so a sweeping layer built on top produces
//! identical output regardless of worker count or scheduling. Worker
//! state (`State`) is where callers keep per-worker engines (the
//! sweep's BDD engine under the BDD-first and BDD-only modes). A round
//! with one job — every warm-solver round on a miter that is one fanin
//! region — runs inline on the calling thread.
//!
//! Determinism contract: everything about the returned
//! [`DispatchOutcome::results`] is a pure function of the job list —
//! only which worker executed which job depends on scheduling.
//!
//! Resilience contract: an expired [`Deadline`] stops new jobs from
//! starting (their result slot is `None`) while the [`Watchdog`]
//! interrupts whatever is already in flight through the shared flag. A
//! panicking step is not caught by the executor: it reaches the caller
//! once every thread has been joined. The sweep isolates panics itself,
//! one pair at a time.

#![forbid(unsafe_code)]

mod deadline;
mod executor;
mod fair;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod policy;

pub use deadline::{Deadline, Progress, Watchdog};
pub use executor::{run_ordered, DispatchOutcome, WorkerReport, MAX_JOBS};
pub use fair::{FairQueue, Popped, PushError, DEFAULT_PRIORITY, MAX_PRIORITY};
#[cfg(feature = "fault-inject")]
pub use fault::{FaultAction, FaultPlan};
pub use policy::{EngineMode, EnginePolicy};
