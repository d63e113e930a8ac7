//! Per-phase counters and span timings, recorded without locks.
//!
//! A sweep has one [`Recorder`] owned by the orchestrating thread,
//! which alone bumps the counters. Worker threads never touch it: each
//! worker owns a [`LocalRecorder`] (plain busy-span durations, no
//! atomics, no locks) created from the recorder's template, and the
//! orchestrator merges the locals back at the next round barrier with
//! [`Recorder::merge`]. Merging is a sum over fixed-size arrays, so the
//! merged totals are independent of worker count and scheduling.
//!
//! Everything is gated on one `enabled` flag fixed at construction.
//! Disabled recorders never call `Instant::now()` and every `add` is a
//! predictable branch over a dead field, so instrumented code paths
//! cost nothing measurable when observability is off (the default for
//! library callers).
//!
//! Two clocks per phase:
//!
//! * **wall** — elapsed time observed by the orchestrator around a
//!   whole phase (e.g. the full SAT-resolution round loop).
//! * **cpu** — the sum of worker busy spans inside the phase. With
//!   `--jobs 4` and perfect scaling, `cpu ≈ 4 × wall`.

use std::time::{Duration, Instant};

macro_rules! enum_with_names {
    ($(#[$meta:meta])* $vis:vis enum $name:ident { $($(#[$vmeta:meta])* $variant:ident => $text:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (= report) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// The stable snake_case (or `;`-separated) name used in
            /// reports and folded stacks.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $text,)+
                }
            }

            const COUNT: usize = { Self::ALL.len() };
        }
    };
}

enum_with_names! {
    /// The phases a run is broken into for wall/CPU attribution.
    ///
    /// Names are `;`-separated paths so `--profile` can emit them
    /// directly as flamegraph folded stacks.
    pub enum Phase {
        /// Compiling the netlist into a simulation kernel.
        KernelCompile => "sweep;kernel_compile",
        /// Phase 1 random simulation.
        RandomSim => "sweep;sim;random",
        /// Guided pattern generation (SimGen proper).
        GuidedGen => "sweep;sim;guided_gen",
        /// Simulating the guided patterns.
        GuidedSim => "sweep;sim;guided_sim",
        /// SAT/BDD resolution of candidate pairs.
        SatResolution => "sweep;sat",
        /// Cone-restricted resimulation of buffered counterexamples.
        CexResim => "sweep;resim",
        /// Output-pair proofs after internal sweeping (CEC only).
        OutputProofs => "cec;output_proofs",
    }
}

enum_with_names! {
    /// Deterministic event counters.
    ///
    /// Every counter here must be scheduling-invariant: bumped either
    /// on the orchestrating thread, or derived from merge-ordered
    /// results — never from a racy worker-side observation. That is
    /// what lets the `counters` section of a report stay byte-identical
    /// across `--jobs`.
    pub enum Counter {
        /// Pairs still undecided after their proof attempt.
        ProofsUndecided => "proofs_undecided",
        /// Pairs skipped because the deadline expired first.
        ProofsSkipped => "proofs_skipped",
        /// Batched resimulation flushes.
        ResimFlushes => "resim_flushes",
        /// Times a phase boundary of the sweep found the deadline
        /// expired. The watchdog thread's own trips are trace events
        /// only.
        DeadlineTrips => "deadline_trips",
        /// Output-pair proofs dispatched (CEC only).
        OutputProofs => "output_proofs",
        /// DRAT certificates checked behind `Equivalent` answers
        /// (`--certify` runs only).
        CertificatesChecked => "certificates_checked",
        /// Certificates the independent checker rejected; each one
        /// quarantined its pair.
        CertificatesFailed => "certificates_failed",
        /// Counterexamples replayed through the scalar reference
        /// evaluator (`--certify` runs only).
        CexReplays => "cex_replays",
        /// Replays that failed to reproduce the counterexample; each
        /// one quarantined its pair.
        CexReplayFailures => "cex_replay_failures",
        /// Proof-cache lookups answered from a cached verdict that
        /// was accepted (after replay, when certification is on).
        CacheHits => "cache_hits",
        /// Proof-cache lookups that found no usable entry and fell
        /// through to a live proof.
        CacheMisses => "cache_misses",
        /// Cached verdicts revalidated before use under `--certify`:
        /// DRAT proofs re-checked or counterexamples replayed.
        CacheReplays => "cache_replays",
        /// Cache entries discarded — LRU budget pressure or a failed
        /// revalidation.
        CacheEvictions => "cache_evictions",
        /// Assumption scopes opened on incremental region solvers
        /// (one per miter routed through a shared solver).
        ScopesOpened => "scopes_opened",
        /// Learnt clauses already present when a scope opened — the
        /// clause-reuse incremental solving buys across a region's
        /// pairs. Zero for every cold (per-pair) solve.
        ClausesReused => "clauses_reused",
        /// Pair proofs answered by a solver that had already solved an
        /// earlier miter (warm starts, the complement of cold starts).
        WarmSolves => "warm_solves",
        /// Incremental region solvers rebuilt because their clause
        /// database bloated past the configured multiple of the
        /// post-seeding footprint (`rebuild_bloat`).
        SolverRebuilds => "solver_rebuilds",
    }
}

/// A worker-owned recorder of busy-span durations, merged into the
/// shared [`Recorder`] at the next round barrier.
#[derive(Clone, Debug)]
pub struct LocalRecorder {
    enabled: bool,
    busy: [Duration; Phase::COUNT],
}

impl LocalRecorder {
    /// True when this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a busy span for `phase`; the elapsed time lands in the
    /// phase's CPU total when the guard drops. Costs nothing (and
    /// never reads the clock) when disabled.
    pub fn span(&mut self, phase: Phase) -> LocalSpan<'_> {
        LocalSpan {
            start: self.enabled.then(Instant::now),
            phase,
            recorder: self,
        }
    }

    /// Adds busy time to a phase directly — for callers that measure
    /// an elapsed interval themselves (e.g. around a call that needs
    /// `&mut self` and so cannot hold a span guard).
    pub fn add_busy(&mut self, phase: Phase, elapsed: Duration) {
        if self.enabled {
            self.busy[phase as usize] += elapsed;
        }
    }
}

/// Guard returned by [`LocalRecorder::span`].
pub struct LocalSpan<'a> {
    start: Option<Instant>,
    phase: Phase,
    recorder: &'a mut LocalRecorder,
}

impl Drop for LocalSpan<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder.add_busy(self.phase, start.elapsed());
        }
    }
}

/// The orchestrator-owned recorder: the counters plus per-phase wall
/// and CPU totals.
#[derive(Clone, Debug)]
pub struct Recorder {
    enabled: bool,
    counters: [u64; Counter::COUNT],
    wall: [Duration; Phase::COUNT],
    cpu: [Duration; Phase::COUNT],
}

impl Recorder {
    /// A recorder that records (`enabled = true`) or ignores
    /// everything at a branch's cost (`enabled = false`).
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            counters: [0; Counter::COUNT],
            wall: [Duration::ZERO; Phase::COUNT],
            cpu: [Duration::ZERO; Phase::COUNT],
        }
    }

    /// The no-op recorder library callers get by default.
    pub fn disabled() -> Recorder {
        Recorder::new(false)
    }

    /// True when this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh worker-local recorder inheriting the enabled flag.
    pub fn local(&self) -> LocalRecorder {
        LocalRecorder {
            enabled: self.enabled,
            busy: [Duration::ZERO; Phase::COUNT],
        }
    }

    /// Sums worker locals' busy spans into the per-phase CPU totals.
    /// Addition is commutative, so the result is independent of worker
    /// order and of how jobs were interleaved.
    pub fn merge<'a>(&mut self, locals: impl IntoIterator<Item = &'a LocalRecorder>) {
        if !self.enabled {
            return;
        }
        for local in locals {
            for (total, d) in self.cpu.iter_mut().zip(local.busy) {
                *total += d;
            }
        }
    }

    /// Adds to a counter on the orchestrating thread.
    pub fn add(&mut self, counter: Counter, n: u64) {
        if self.enabled {
            self.counters[counter as usize] += n;
        }
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Adds wall time to a phase (measured by the orchestrator).
    pub fn add_wall(&mut self, phase: Phase, elapsed: Duration) {
        if self.enabled {
            self.wall[phase as usize] += elapsed;
        }
    }

    /// Adds CPU (busy) time to a phase.
    pub fn add_cpu(&mut self, phase: Phase, elapsed: Duration) {
        if self.enabled {
            self.cpu[phase as usize] += elapsed;
        }
    }

    /// Opens a span that books its elapsed time as **both** wall and
    /// CPU for `phase` — right for single-threaded phases where the
    /// orchestrator is the only worker.
    pub fn span(&mut self, phase: Phase) -> RecorderSpan<'_> {
        RecorderSpan {
            start: self.enabled.then(Instant::now),
            phase,
            recorder: self,
        }
    }

    /// Wall time attributed to a phase.
    pub fn wall(&self, phase: Phase) -> Duration {
        self.wall[phase as usize]
    }

    /// CPU (summed busy) time attributed to a phase.
    pub fn cpu(&self, phase: Phase) -> Duration {
        self.cpu[phase as usize]
    }

    fn end_span(&mut self, phase: Phase, elapsed: Duration) {
        self.wall[phase as usize] += elapsed;
        self.cpu[phase as usize] += elapsed;
    }

    /// Flamegraph-style folded stacks, one line per phase with
    /// non-zero wall time: `simgen;<phase path> <microseconds>`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for &phase in Phase::ALL {
            let us = self.wall(phase).as_micros();
            if us > 0 {
                out.push_str("simgen;");
                out.push_str(phase.name());
                out.push(' ');
                out.push_str(&us.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// Guard returned by [`Recorder::span`]: books elapsed time as both
/// wall and CPU on drop.
pub struct RecorderSpan<'a> {
    start: Option<Instant>,
    phase: Phase,
    recorder: &'a mut Recorder,
}

impl Drop for RecorderSpan<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder.end_span(self.phase, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_ignores_everything() {
        let mut rec = Recorder::disabled();
        rec.add(Counter::ProofsUndecided, 5);
        rec.add_wall(Phase::SatResolution, Duration::from_secs(1));
        {
            let _span = rec.span(Phase::RandomSim);
        }
        let mut local = rec.local();
        {
            let _span = local.span(Phase::CexResim);
        }
        rec.merge([&local]);
        assert_eq!(rec.get(Counter::ProofsUndecided), 0);
        assert_eq!(rec.wall(Phase::SatResolution), Duration::ZERO);
        assert_eq!(rec.cpu(Phase::CexResim), Duration::ZERO);
        assert!(rec.folded().is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let template = Recorder::new(true);
        let mut a = template.local();
        let mut b = template.local();
        a.add_busy(Phase::SatResolution, Duration::from_millis(5));
        b.add_busy(Phase::SatResolution, Duration::from_millis(7));

        let mut fwd = Recorder::new(true);
        fwd.merge([&a, &b]);
        let mut rev = Recorder::new(true);
        rev.merge([&b, &a]);

        assert_eq!(fwd.cpu(Phase::SatResolution), Duration::from_millis(12));
        assert_eq!(rev.cpu(Phase::SatResolution), Duration::from_millis(12));
        // Wall time is the orchestrator's business, not the workers'.
        assert_eq!(fwd.wall(Phase::SatResolution), Duration::ZERO);
    }

    #[test]
    fn spans_record_elapsed_time() {
        let mut rec = Recorder::new(true);
        {
            let _span = rec.span(Phase::RandomSim);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(rec.wall(Phase::RandomSim) >= Duration::from_millis(2));
        assert_eq!(rec.wall(Phase::RandomSim), rec.cpu(Phase::RandomSim));
    }

    #[test]
    fn folded_output_lists_phases_with_time() {
        let mut rec = Recorder::new(true);
        rec.add_wall(Phase::SatResolution, Duration::from_micros(1500));
        rec.add_wall(Phase::RandomSim, Duration::from_micros(250));
        let folded = rec.folded();
        assert_eq!(
            folded,
            "simgen;sweep;sim;random 250\nsimgen;sweep;sat 1500\n"
        );
    }

    #[test]
    fn counter_and_phase_names_are_unique() {
        for names in [
            Counter::ALL.iter().map(|c| c.name()).collect::<Vec<_>>(),
            Phase::ALL.iter().map(|p| p.name()).collect::<Vec<_>>(),
        ] {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate name in {names:?}");
        }
    }
}
