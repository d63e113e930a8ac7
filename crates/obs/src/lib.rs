//! Observability for the SimGen reproduction: structured run reports,
//! event tracing, and per-phase counters — zero-cost when disabled.
//!
//! The engine keeps its own statistics (`SweepStats`,
//! `DispatchSummary`, `SolverStats`, the kernel and pool totals); this
//! crate adds what they lack and the document they are written into:
//!
//! * [`Recorder`] / [`LocalRecorder`] — per-phase wall/CPU timings and
//!   deterministic counters of events no engine statistic holds. The
//!   orchestrating thread bumps the counters; worker threads record
//!   busy spans into plain worker-owned locals (no locks, no atomics)
//!   that the orchestrator merges at round barriers.
//! * [`Trace`] — a bounded event ring (proofs dispatched and
//!   quarantined, deadline trips, resim flushes, kernel compiles)
//!   writable from any thread, drained to JSONL. Traces are
//!   diagnostics: explicitly outside the determinism guarantee.
//! * [`RunReport`] — the versioned JSON document
//!   (`simgen-run-report/7`) every run can emit, written once from the
//!   engine's statistics by `simgen_cec::report`, with a
//!   [`deterministic_json`](RunReport::deterministic_json) form that
//!   strips timing (`*_ms`) and scheduling fields and is required to
//!   be byte-identical for any worker count, and an engine-stripped
//!   form ([`report::strip_engine_dependent`]) that further removes
//!   solver-effort fields so incremental and cold per-pair SAT runs
//!   compare byte-identical. [`BenchReport`]
//!   (`simgen-bench-report/2`) is the analogous schema for
//!   `BENCH_*.json` perf artifacts.
//!
//! The whole crate is plain std — no serde, no dependencies — because
//! the build environment has no registry access; [`json::Json`] is the
//! ordered value model everything serializes through.
//!
//! Instrumented code takes an [`Observer`] (a recorder plus a trace).
//! Library entry points default to [`Observer::disabled`], which makes
//! every instrumentation site a branch over a dead flag: no clock
//! reads, no allocation, nothing measurable in `sim_throughput`.

#![forbid(unsafe_code)]

pub mod bench;
pub mod fsutil;
pub mod json;
pub mod recorder;
pub mod report;
pub mod trace;

pub use bench::BenchReport;
pub use fsutil::atomic_write;
pub use json::{Json, JsonError};
pub use recorder::{Counter, LocalRecorder, Phase, Recorder};
pub use report::{Design, RunReport};
pub use trace::{Trace, TraceEvent, DEFAULT_TRACE_CAPACITY};

/// The pair of instrumentation handles threaded through a run: a
/// recorder for counters/timings and a trace for events. Constructed
/// once at the top (CLI or test) and passed down by mutable reference;
/// worker threads get [`LocalRecorder`]s and [`Trace`] clones.
#[derive(Debug)]
pub struct Observer {
    /// Counters and per-phase wall/CPU timings.
    pub recorder: Recorder,
    /// The event ring.
    pub trace: Trace,
}

impl Observer {
    /// The no-op observer library callers get by default.
    pub fn disabled() -> Observer {
        Observer {
            recorder: Recorder::disabled(),
            trace: Trace::disabled(),
        }
    }

    /// An observer with both halves enabled (default trace capacity).
    pub fn enabled() -> Observer {
        Observer {
            recorder: Recorder::new(true),
            trace: Trace::enabled(),
        }
    }

    /// An observer with each half enabled independently.
    pub fn with(stats: bool, trace: bool) -> Observer {
        Observer {
            recorder: Recorder::new(stats),
            trace: if trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
        }
    }

    /// True when either half records anything.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled() || self.trace.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_fully_inert() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        assert!(!obs.recorder.is_enabled());
        assert!(!obs.trace.is_enabled());
    }

    #[test]
    fn halves_enable_independently() {
        let stats_only = Observer::with(true, false);
        assert!(stats_only.recorder.is_enabled());
        assert!(!stats_only.trace.is_enabled());
        let trace_only = Observer::with(false, true);
        assert!(!trace_only.recorder.is_enabled());
        assert!(trace_only.trace.is_enabled());
    }
}
