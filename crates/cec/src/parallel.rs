//! The sweeping engine: the resolution phase of the paper's Figure 2
//! ("BDD or SAT", with counterexamples fed back into simulation).
//!
//! Phases 1–2 (random + guided simulation) run in
//! [`crate::sweep`]. Phase 3 resolves the surviving candidates in
//! synchronised *rounds*: every candidate pair `(rep, candᵢ)` of every
//! surviving class is listed in a deterministic order, dispatched
//! across a work-stealing worker pool
//! ([`simgen_dispatch::run_ordered`]; `jobs = 1` runs inline), and the
//! results are merged back **in pair order**. Pairs are grouped into
//! one job per fanin region ([`RegionMap`]); a region's pairs share
//! one assumption-scoped [`PairProver`] (under `--no-incremental`,
//! every pair is its own job with a cold prover). Provers are seeded
//! with the equivalences proven in *earlier rounds*, so a pair's
//! outcome is a pure function of the round history — never of which
//! worker ran it or in what order. That is what makes the sweep
//! report byte-identical for any `jobs` value.
//!
//! Counterexamples produced during a round are batched and flushed
//! through one word-parallel resimulation (`flush_counterexamples`) at
//! the end of the round.
//!
//! Engine choice per pair follows [`SweepConfig::engine`]: the SAT
//! ladder alone, BDD first with SAT behind it, or BDD alone. Budget
//! escalation: with [`SweepConfig::budget_schedule`] set, each pair
//! climbs the [`BudgetSchedule`] ladder (small conflict budget,
//! multiplied on every retry) and finally falls back to a node-limited
//! BDD check; pairs that exhaust everything are reported unresolved.

use std::collections::HashSet;
use std::time::Duration;

use simgen_core::PatternGenerator;
use simgen_dispatch::{
    run_ordered_traced, Attempt, BudgetSchedule, Deadline, EngineMode, JobStatus, Progress,
};
#[cfg(feature = "fault-inject")]
use simgen_dispatch::{FaultAction, FaultPlan};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{Counter, Json, LocalRecorder, Observer, Phase};
use simgen_sat::{ScopeMetrics, SolverStats};
use simgen_sim::Replayer;

use crate::certify::{certify_equivalence, PROOF_BYTE_BUDGET};
use crate::journal::{
    apply_replayed_pair, class_signature, counter_snapshot, restore_counters, sweep_fingerprint,
    JournalVerdict, PairRecord, RoundRecord, StatsSnapshot,
};
use crate::prove::{BddProver, PairProver, ProveOutcome};
use crate::region::{cone_union, RegionMap, DEFAULT_BDD_NODE_LIMIT, REBUILD_BASELINE_FLOOR};
use crate::stats::{DispatchSummary, WorkerSummary};
use crate::sweep::{
    flush_counterexamples, record_exec_counters, record_merge, run_sim_phases, spawn_watchdog,
    RunContext, SimPhases, SweepConfig, SweepReport,
};

/// Scheduling-independent result of one pair proof (the wall-clock
/// metadata travels separately in the worker state).
#[derive(Clone, Debug, PartialEq, Eq)]
enum PairVerdict {
    /// Proven equal (and, under certify, DRAT-certified).
    Equivalent,
    /// Distinguishing input vector (replay-verified under certify).
    Counterexample(Vec<bool>),
    /// Ladder (and fallback, if enabled) exhausted.
    Undecided,
    /// The engine answered but certification rejected the answer:
    /// `replay: false` means the DRAT checker refused an `Equivalent`
    /// proof, `replay: true` means the scalar replay could not
    /// reproduce a counterexample. The merge loop quarantines the
    /// pair either way.
    CertificationFailed {
        /// Whether the rejected evidence was a counterexample.
        replay: bool,
    },
}

/// Everything a proof job hands back to the merge loop. The counter
/// deltas travel in the result — not in worker state — because a
/// panicking step respawns its worker with fresh state: under fault
/// injection, state-side accumulation would silently lose the counts
/// of every earlier job on that worker and make the totals depend on
/// scheduling. Merge-side accumulation over these results is exact
/// for any `--jobs` value (a panicked job contributes nothing,
/// deterministically).
struct PairOutcome {
    verdict: PairVerdict,
    /// Serialized DRAT blob of an `Equivalent` verdict, produced only
    /// when the round wants to populate the proof cache.
    proof: Option<Vec<u8>>,
    sat_calls: u64,
    sat_time: Duration,
    solver: SolverStats,
    /// Conflicts spent in aborted (budget-limited) attempts.
    conflicts: u64,
    /// Budget escalations beyond the first attempt.
    escalations: u64,
    /// Whether the whole ladder (and fallback) exhausted.
    timeout: bool,
    /// Scope-reuse delta attributable to this pair (zero when the
    /// pair never touched a SAT solver).
    metrics: ScopeMetrics,
    /// Whether the region solver was dropped as bloated right before
    /// this pair (see [`RegionSolver`]).
    rebuilt: bool,
}

impl PairOutcome {
    /// Outcome of a path that did no SAT work (BDD primary engine, or
    /// an injected spurious answer).
    fn engine_only(verdict: PairVerdict) -> Self {
        let timeout = verdict == PairVerdict::Undecided;
        PairOutcome {
            verdict,
            proof: None,
            sat_calls: 0,
            sat_time: Duration::ZERO,
            solver: SolverStats::default(),
            conflicts: 0,
            escalations: 0,
            timeout,
            metrics: ScopeMetrics::default(),
            rebuilt: false,
        }
    }
}

/// A fanin region's long-lived scoped solver, with its clause-database
/// footprint right after creation and seeding. Under
/// [`EnginePolicy::rebuild_bloat`](simgen_dispatch::EnginePolicy) a
/// solver whose live database outgrows that baseline (floored at
/// [`REBUILD_BASELINE_FLOOR`]) times the multiple is dropped before the
/// region's next pair, which rebuilds it from the region seeds — the
/// same path a caught panic takes — trading warm learnt clauses for a
/// bounded clause database.
struct RegionSolver<'n> {
    prover: PairProver<'n>,
    baseline: u64,
}

impl RegionSolver<'_> {
    /// True when the live clause database exceeds `bloat` times the
    /// floored baseline (`bloat == 0` disables the check).
    fn bloated(&self, bloat: u32) -> bool {
        bloat > 0
            && self.prover.solver_stats().clause_db_bytes
                > self
                    .baseline
                    .max(REBUILD_BASELINE_FLOOR)
                    .saturating_mul(u64::from(bloat))
    }
}

/// One dispatched proof job. In incremental mode a job is a whole
/// fanin region's worth of this round's pairs — they share one scoped
/// solver, serially, in global pair order — so the report's new
/// reuse counters stay `--jobs`-invariant. In cold mode every job is
/// a single pair, the classic shape.
struct RegionJob {
    /// Prior-round proven equalities inside this job's region,
    /// replayed into the shared prover at construction (incremental
    /// mode only; cold pairs filter the full seed list by cone).
    seeds: Vec<(NodeId, NodeId)>,
    /// `(global pair index, rep, cand)` in global pair order.
    pairs: Vec<(usize, NodeId, NodeId)>,
}

/// Per-pair result extracted from a region job; `None` in a merge
/// slot means the pair was never started (deadline skip).
enum PairStatus {
    Done(PairOutcome),
    Panicked,
}

/// Per-worker proving state: diagnostic counters plus the lazily-
/// built BDD fallback engine. The counters mirror
/// [`crate::stats::WorkerSummary`] and are diagnostics only — a panic
/// respawns the worker's state, losing them — the authoritative
/// totals are accumulated merge-side from each job's [`PairOutcome`].
struct WorkerState<'n> {
    net: &'n LutNetwork,
    /// Shared deadline bound to every prover this worker builds.
    deadline: Deadline,
    /// Lazily created on the first pair that exhausts its SAT ladder
    /// (or immediately when BDD is the primary engine).
    bdd: Option<BddProver<'n>>,
    /// Scalar reference evaluator for counterexample replay (reused
    /// across this worker's pairs; its buffers are scratch space).
    replayer: Replayer,
    proofs: u64,
    conflicts: u64,
    timeouts: u64,
    escalations: u64,
    /// Busy-span recorder merged into the orchestrator's at the round
    /// barrier (CPU attribution only).
    local: LocalRecorder,
}

impl<'n> WorkerState<'n> {
    fn new(net: &'n LutNetwork, deadline: Deadline, local: LocalRecorder) -> Self {
        WorkerState {
            net,
            deadline,
            bdd: None,
            replayer: Replayer::new(),
            proofs: 0,
            conflicts: 0,
            timeouts: 0,
            escalations: 0,
            local,
        }
    }

    /// BDD query through the worker's cached engine.
    fn bdd_prove(&mut self, a: NodeId, b: NodeId, node_limit: usize) -> PairVerdict {
        let net = self.net;
        let bdd = self
            .bdd
            .get_or_insert_with(|| BddProver::new(net, node_limit));
        match bdd.prove(a, b) {
            ProveOutcome::Equivalent => PairVerdict::Equivalent,
            ProveOutcome::Counterexample(v) => PairVerdict::Counterexample(v),
            ProveOutcome::Undecided { .. } => PairVerdict::Undecided,
        }
    }

    /// Proves one pair against `shared` (the region's long-lived
    /// scoped solver, built on first use in incremental mode) or a
    /// cold per-pair prover, escalated per `cfg`, with BDD fallback,
    /// and (under certify) the answer independently checked.
    /// Deterministic given `(region_seeds, seeds, a, b, cfg)` and the
    /// shared prover's query history — which is itself deterministic
    /// because region pairs are processed serially in global pair
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn prove_pair(
        &mut self,
        shared: &mut Option<RegionSolver<'n>>,
        region_seeds: &[(NodeId, NodeId)],
        seeds: &[(NodeId, NodeId)],
        a: NodeId,
        b: NodeId,
        cfg: &SweepConfig,
        want_proof: bool,
    ) -> PairOutcome {
        let start = self.local.is_enabled().then(std::time::Instant::now);
        let outcome = self.prove_pair_inner(shared, region_seeds, seeds, a, b, cfg, want_proof);
        if let Some(start) = start {
            self.local.add_busy(Phase::SatResolution, start.elapsed());
        }
        outcome
    }

    /// A prover bound to this worker's deadline, with proof logging on
    /// when the run certifies (logging must precede the first clause).
    fn fresh_prover(&self, cfg: &SweepConfig) -> PairProver<'n> {
        let mut prover = PairProver::new(self.net);
        prover.bind_deadline(&self.deadline);
        if cfg.certify {
            prover.enable_certification(PROOF_BYTE_BUDGET);
        }
        prover
    }

    /// The actual proof; split out so [`WorkerState::prove_pair`] can
    /// book its busy time without borrowing `self` twice.
    #[allow(clippy::too_many_arguments)]
    fn prove_pair_inner(
        &mut self,
        shared: &mut Option<RegionSolver<'n>>,
        region_seeds: &[(NodeId, NodeId)],
        seeds: &[(NodeId, NodeId)],
        a: NodeId,
        b: NodeId,
        cfg: &SweepConfig,
        want_proof: bool,
    ) -> PairOutcome {
        self.proofs += 1;
        // BDD answers carry no DRAT proof, so under certify the SAT
        // engine below proves the pair instead.
        if cfg.engine.bdd_primary(cfg.certify) {
            let node_limit = cfg
                .budget_schedule
                .map(|s| s.bdd_node_limit)
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_BDD_NODE_LIMIT);
            let verdict = self.bdd_prove(a, b, node_limit);
            if verdict != PairVerdict::Undecided {
                return PairOutcome::engine_only(verdict);
            }
            // Node limit tripped: BDD-only reports the pair undecided,
            // BDD-first falls through to the SAT ladder.
            if cfg.engine.mode == EngineMode::BddOnly {
                self.timeouts += 1;
                return PairOutcome::engine_only(verdict);
            }
        }

        // The SAT prover: the region's shared scoped solver, or a
        // cold per-pair one under `--no-incremental`.
        let mut cold_prover;
        let mut rebuilt = false;
        let prover: &mut PairProver<'n> = if cfg.engine.incremental {
            if shared
                .as_ref()
                .is_some_and(|s| s.bloated(cfg.engine.rebuild_bloat))
            {
                *shared = None;
                rebuilt = true;
            }
            let solver = shared.get_or_insert_with(|| {
                let mut prover = self.fresh_prover(cfg);
                for &(x, y) in region_seeds {
                    prover.assert_equal(x, y);
                }
                let baseline = prover.solver_stats().clause_db_bytes;
                RegionSolver { prover, baseline }
            });
            &mut solver.prover
        } else {
            let mut p = self.fresh_prover(cfg);
            let cone = cone_union(self.net, a, b);
            for &(x, y) in seeds {
                if cone.contains(&x) && cone.contains(&y) {
                    p.assert_equal(x, y);
                }
            }
            cold_prover = p;
            &mut cold_prover
        };
        // Everything this pair reports is a delta against the
        // prover's cumulative counters, so shared and cold provers
        // feed the merge identically.
        let calls_before = prover.calls();
        let time_before = prover.time();
        let solver_before = prover.solver_stats();
        let metrics_before = prover.metrics();
        let schedule = cfg.budget_schedule.unwrap_or(BudgetSchedule {
            // No ladder configured: one attempt at the flat
            // `sat_budget`, no BDD fallback.
            initial: cfg.sat_budget.unwrap_or(u64::MAX),
            multiplier: 1,
            attempts: 1,
            bdd_node_limit: 0,
        });
        let esc = schedule.run(|budget| match prover.prove(a, b, Some(budget)) {
            ProveOutcome::Equivalent => Attempt::Resolved(PairVerdict::Equivalent),
            ProveOutcome::Counterexample(v) => Attempt::Resolved(PairVerdict::Counterexample(v)),
            ProveOutcome::Undecided { conflicts } => Attempt::Undecided { conflicts },
        });
        self.escalations += u64::from(esc.escalations);
        self.conflicts += esc.conflicts;
        let mut verdict = match esc.outcome {
            Some(v) => v,
            // The BDD fallback is equally uncertifiable, so under
            // certify an exhausted ladder stays Undecided.
            None if cfg
                .engine
                .bdd_fallback(schedule.bdd_node_limit, cfg.certify) =>
            {
                self.bdd_prove(a, b, schedule.bdd_node_limit)
            }
            None => PairVerdict::Undecided,
        };
        if cfg.certify {
            verdict = match verdict {
                PairVerdict::Equivalent if !certify_equivalence(prover) => {
                    PairVerdict::CertificationFailed { replay: false }
                }
                PairVerdict::Counterexample(ref v)
                    if !self.replayer.distinguishes(self.net, v, a, b) =>
                {
                    PairVerdict::CertificationFailed { replay: true }
                }
                v => v,
            };
        }
        let timeout = verdict == PairVerdict::Undecided;
        if timeout {
            self.timeouts += 1;
        }
        // Serialize the certificate worker-side (where the solver
        // state lives); the orchestrator stores it at the merge. Must
        // happen before the prover's next query: the scoped solver
        // retires the current scope on the next `prove`, after which
        // the proof-log tail no longer certifies this pair.
        let proof = if want_proof && verdict == PairVerdict::Equivalent {
            prover.proof_blob()
        } else {
            None
        };
        PairOutcome {
            verdict,
            proof,
            sat_calls: prover.calls() - calls_before,
            sat_time: prover.time().saturating_sub(time_before),
            solver: prover.solver_stats() - solver_before,
            conflicts: esc.conflicts,
            escalations: u64::from(esc.escalations),
            timeout,
            metrics: prover.metrics() - metrics_before,
            rebuilt,
        }
    }
}

/// The sweeping engine: random simulation, guided generation, then
/// round-based proof dispatch with counterexample feedback. Proof
/// outcomes, class results and every deterministic counter are
/// independent of [`SweepConfig::jobs`].
#[derive(Clone, Debug)]
pub struct Sweeper {
    config: SweepConfig,
    /// Test-only fault injection: pairs matching the predicate make
    /// their prover panic, exercising the quarantine path.
    panic_on: Option<fn(NodeId, NodeId) -> bool>,
    /// Seeded chaos plan applied to every dispatched proof job,
    /// keyed on the job's global input-order index. Kept out of
    /// [`SweepConfig`] so feature-gated builds report identical
    /// configuration.
    #[cfg(feature = "fault-inject")]
    fault_plan: Option<FaultPlan>,
}

/// The sweeper's former name. It exists only for
/// `e2ebench/src/api.rs`, the benchmark's frozen door into the
/// library; new code names [`Sweeper`].
pub type ParallelSweeper = Sweeper;

impl Sweeper {
    /// Creates a sweeper with the given configuration.
    pub fn new(config: SweepConfig) -> Self {
        Sweeper {
            config,
            panic_on: None,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Fault injection for robustness tests: any pair `(rep, cand)`
    /// for which `trigger` returns true panics inside its prover. The
    /// dispatch layer must quarantine it and finish the sweep.
    #[doc(hidden)]
    pub fn with_panic_injection(mut self, trigger: fn(NodeId, NodeId) -> bool) -> Self {
        self.panic_on = Some(trigger);
        self
    }

    /// Deterministic chaos: `plan` decides, per global job index,
    /// whether that proof job panics, stalls briefly, or returns a
    /// spurious `Unknown`. Because the key is the job's position in
    /// the deterministic pair order (never the worker or the wall
    /// clock), a fixed plan injects the identical fault set for every
    /// `--jobs` value — which is what lets the chaos suite demand
    /// byte-identical reports under faults.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// [`Sweeper::run`] under `deadline` with `obs` attached. A
    /// forwarder that exists only for `e2ebench/src/api.rs`, the
    /// benchmark's frozen door into the library.
    pub fn run_observed(
        &self,
        net: &LutNetwork,
        generator: &mut dyn PatternGenerator,
        deadline: &Deadline,
        obs: &mut Observer,
    ) -> SweepReport {
        let mut ctx = RunContext {
            deadline: deadline.clone(),
            obs: std::mem::replace(obs, Observer::disabled()),
            ..RunContext::default()
        };
        let report = self.run(net, generator, &mut ctx);
        *obs = ctx.obs;
        report
    }

    /// Runs the full sweep on `net`: random simulation, `generator`
    /// for the guided phase, then `config.jobs` workers for the proof
    /// rounds, all under `ctx` (see [`RunContext`] for the deadline,
    /// observer, cache and journal semantics).
    ///
    /// Counters are bumped on the orchestrating thread from the
    /// merge-ordered results (never from worker-side observations), so
    /// the recorded totals are as scheduling-invariant as the report
    /// itself; worker CPU spans are merged at each round barrier.
    /// Cache lookups and inserts also run on the orchestrating thread
    /// in pair order, so the `cache_*` counters are `--jobs`-invariant
    /// for a fixed starting cache state; pairs a trusted entry answers
    /// are never dispatched. With a journal, every round barrier
    /// commits before the sweep proceeds, and a resumed journal's
    /// rounds replay to a stripped report byte-identical to an
    /// uninterrupted run's.
    pub fn run(
        &self,
        net: &LutNetwork,
        generator: &mut dyn PatternGenerator,
        ctx: &mut RunContext<'_>,
    ) -> SweepReport {
        let (deadline, obs, cache, journal) =
            (&ctx.deadline, &mut ctx.obs, ctx.cache, &mut ctx.journal);
        let cfg = &self.config;
        let jobs = cfg.jobs.max(1);
        let panic_on = self.panic_on;
        #[cfg(feature = "fault-inject")]
        let fault_plan = self.fault_plan;
        let SimPhases {
            mut stats,
            mut patterns,
            mut sim,
            classes,
        } = run_sim_phases(cfg, net, generator, deadline, obs);
        let cost_after_sim = classes.cost();

        let mut proven: Vec<Vec<NodeId>> = Vec::new();
        let mut unresolved: Vec<(NodeId, NodeId)> = Vec::new();
        let mut quarantined: Vec<(NodeId, NodeId)> = Vec::new();
        let mut interrupted = false;
        let mut mem_exhausted = false;
        if cfg.run_sat {
            let progress = Progress::default();
            let _watchdog = spawn_watchdog(cfg, deadline, &progress, &obs.trace);
            let sat_start = obs.recorder.is_enabled().then(std::time::Instant::now);
            let resim_before = stats.resim_time;
            let mut sweep_cache = cache.map(|c| crate::cache::SweepCache::new(c, cfg.certify));
            let want_proof = cache.is_some() && cfg.certify;
            // Fanin-region partition, computed once per sweep:
            // incremental mode dispatches each round's pairs grouped
            // by region so the group shares one scoped solver.
            let mut regions = RegionMap::new(net);
            let mut work: Vec<Vec<NodeId>> = classes.classes().to_vec();
            let mut merged: Vec<Vec<NodeId>> = Vec::new();
            // Equivalences proven in earlier rounds, in merge order:
            // the deterministic seed set for every later pair prover.
            let mut seeds: Vec<(NodeId, NodeId)> = Vec::new();
            let mut summary = DispatchSummary {
                jobs,
                workers: (0..jobs)
                    .map(|worker| WorkerSummary {
                        worker,
                        ..WorkerSummary::default()
                    })
                    .collect(),
                ..DispatchSummary::default()
            };
            // Global input-order job index, running across rounds —
            // the key fault plans select on.
            let mut next_job_index = 0usize;
            // Validated journal rounds still awaiting replay (resume
            // mode only; empty for fresh or absent journals).
            let mut replay: std::collections::VecDeque<RoundRecord> = match journal.as_deref_mut() {
                Some(j) => {
                    j.begin(&sweep_fingerprint(net, cfg));
                    j.rounds().to_vec().into()
                }
                None => std::collections::VecDeque::new(),
            };
            let mut replayed_rounds = 0usize;
            let mut governor = crate::govern::MemoryGovernor::new(cfg.mem_budget);
            loop {
                // One round: every (rep, candidate) pair of every
                // surviving class, shallowest candidates first (the
                // fraig induction order: deep pairs then reuse the
                // equivalences already proven in their fanin cones).
                let mut pairs: Vec<(NodeId, NodeId)> = work
                    .iter()
                    .flat_map(|c| {
                        let rep = c[0];
                        c[1..].iter().map(move |&cand| (rep, cand))
                    })
                    .collect();
                if pairs.is_empty() {
                    break;
                }
                pairs.sort_by_key(|&(_, cand)| (net.level(cand), cand));
                // Replay path: the next journaled round, if it matches
                // the pairs this run derived, is applied without
                // dispatching a single proof. The pair-list check runs
                // before any state is touched, so a stale journal
                // degrades into a plain live round.
                if let Some(record) = replay.front() {
                    let matches = record.pairs.len() == pairs.len()
                        && record.pairs.iter().zip(&pairs).all(|(p, &(rep, cand))| {
                            p.rep == rep.index() && p.cand == cand.index()
                        });
                    if matches {
                        let record = replay.pop_front().expect("front checked above");
                        let mut pending: Vec<Vec<bool>> = Vec::new();
                        let mut benched: Vec<(NodeId, NodeId)> = Vec::new();
                        let mut dropped: HashSet<NodeId> = HashSet::new();
                        for pair in record.pairs {
                            apply_replayed_pair(
                                pair,
                                generator,
                                &mut merged,
                                &mut seeds,
                                &mut unresolved,
                                &mut quarantined,
                                &mut pending,
                                &mut benched,
                                &mut dropped,
                                &mut interrupted,
                            );
                        }
                        next_job_index += record.dispatched as usize;
                        for class in &mut work {
                            class.retain(|n| !dropped.contains(n));
                        }
                        work.retain(|c| c.len() >= 2);
                        if !pending.is_empty() {
                            let t = std::time::Instant::now();
                            work = flush_counterexamples(
                                net,
                                &mut patterns,
                                &mut sim,
                                work,
                                &mut pending,
                                &mut benched,
                                cfg.jobs.max(1),
                                obs,
                            );
                            let elapsed = t.elapsed();
                            stats.sim_time += elapsed;
                            stats.resim_time += elapsed;
                        }
                        replayed_rounds += 1;
                        // Restore the barrier's cumulative snapshots:
                        // from here the observable state is identical
                        // to the original run's at this point.
                        record.stats.restore(&mut stats, &mut summary);
                        restore_counters(obs, &record.counters);
                        obs.trace
                            .emit("round_replayed", vec![("round", Json::U64(record.round))]);
                        if record.class_sig != class_signature(&work) {
                            // The journal's later rounds describe a
                            // different history; drop them (and scrub
                            // the file) rather than replay divergence.
                            replay.clear();
                            if let Some(j) = journal.as_deref_mut() {
                                j.truncate(replayed_rounds);
                            }
                        }
                        continue;
                    }
                    // Pair list diverged before anything was applied:
                    // abandon the remaining journal and prove live.
                    replay.clear();
                    if let Some(j) = journal.as_deref_mut() {
                        j.truncate(replayed_rounds);
                    }
                }
                // Memory governance at the round barrier: the solver
                // gauge comes from the merged, journal-restored stats,
                // so a resumed run sees the same estimates as the
                // original at every fresh round.
                if governor.note(crate::govern::estimate_resident(
                    &stats.solver,
                    &sim.pool_stats(),
                )) {
                    mem_exhausted = true;
                    deadline.trip();
                    obs.trace.emit(
                        "mem_budget_exhausted",
                        vec![("estimate_bytes", Json::U64(governor.peak()))],
                    );
                }
                if deadline.expired() {
                    // Out of time before the round started: every
                    // remaining pair is unresolved, in the same
                    // deterministic order it would have been proven.
                    interrupted = true;
                    obs.recorder.add(Counter::DeadlineTrips, 1);
                    obs.trace.emit(
                        "sweep_deadline_expired",
                        vec![("unresolved", Json::U64(pairs.len() as u64))],
                    );
                    for (rep, cand) in pairs {
                        stats.aborted += 1;
                        unresolved.push((rep, cand));
                    }
                    break;
                }
                summary.rounds += 1;
                obs.recorder.add(Counter::Rounds, 1);
                obs.trace.emit(
                    "round_start",
                    vec![
                        ("round", Json::U64(summary.rounds)),
                        ("pairs", Json::U64(pairs.len() as u64)),
                    ],
                );

                // Orchestrator-side cache pass, in pair order: pairs a
                // trusted entry answers skip dispatch entirely; the
                // rest go to the worker pool. Lookup order (and hence
                // the cache counters) never depends on scheduling.
                let resolutions: Vec<Option<PairVerdict>> = match sweep_cache.as_mut() {
                    Some(sc) => pairs
                        .iter()
                        .map(|&(a, b)| match sc.resolve(net, a, b, obs) {
                            crate::cache::CacheLookup::Hit(ProveOutcome::Equivalent) => {
                                Some(PairVerdict::Equivalent)
                            }
                            crate::cache::CacheLookup::Hit(ProveOutcome::Counterexample(v)) => {
                                Some(PairVerdict::Counterexample(v))
                            }
                            _ => None,
                        })
                        .collect(),
                    None => vec![None; pairs.len()],
                };

                let seeds_ref: &[(NodeId, NodeId)] = &seeds;
                let recorder = &obs.recorder;
                // Jobs carry their global input-order index so fault
                // plans key on *which pair* is proven, never on
                // scheduling.
                let round_base = next_job_index;
                let indexed: Vec<(usize, NodeId, NodeId)> = pairs
                    .iter()
                    .zip(&resolutions)
                    .filter(|(_, cached)| cached.is_none())
                    .enumerate()
                    .map(|(i, (&(a, b), _))| (next_job_index + i, a, b))
                    .collect();
                next_job_index += indexed.len();
                let dispatched_this_round = indexed.len() as u64;
                // Incremental mode dispatches one job per fanin
                // region (its pairs share a scoped solver, serially,
                // in global pair order); cold mode keeps the classic
                // job-per-pair shape. Either way the grouping is a
                // pure function of the pair list, never of
                // scheduling.
                let mut region_jobs: Vec<RegionJob> = Vec::new();
                if cfg.engine.incremental {
                    let mut by_region: std::collections::HashMap<usize, usize> =
                        std::collections::HashMap::new();
                    let mut keys: Vec<usize> = Vec::new();
                    for &(ji, a, b) in &indexed {
                        let key = regions.key(a, b);
                        let slot = *by_region.entry(key).or_insert_with(|| {
                            region_jobs.push(RegionJob {
                                seeds: Vec::new(),
                                pairs: Vec::new(),
                            });
                            keys.push(key);
                            region_jobs.len() - 1
                        });
                        region_jobs[slot].pairs.push((ji, a, b));
                    }
                    for (job, &key) in region_jobs.iter_mut().zip(&keys) {
                        job.seeds = seeds
                            .iter()
                            .copied()
                            .filter(|&(x, y)| regions.key(x, y) == key)
                            .collect();
                    }
                } else {
                    region_jobs = indexed
                        .iter()
                        .map(|&(ji, a, b)| RegionJob {
                            seeds: Vec::new(),
                            pairs: vec![(ji, a, b)],
                        })
                        .collect();
                }
                // Pair indices per job, for expanding job-level
                // panic/skip into per-pair slots after the dispatch
                // consumes the job list.
                let job_pair_indices: Vec<Vec<usize>> = region_jobs
                    .iter()
                    .map(|j| j.pairs.iter().map(|&(ji, _, _)| ji).collect())
                    .collect();
                let outcome = run_ordered_traced(
                    jobs,
                    region_jobs,
                    Some(deadline),
                    &obs.trace,
                    |_| WorkerState::new(net, deadline.clone(), recorder.local()),
                    |state, job: &RegionJob| {
                        // The region's shared prover (incremental
                        // mode); rebuilt cold after a caught panic —
                        // a poisoned solver is never trusted — or
                        // when it bloats past the rebuild policy.
                        // Either rebuild is deterministic (same seeds,
                        // same remaining pairs, any jobs value).
                        let mut shared: Option<RegionSolver<'_>> = None;
                        let mut results: Vec<(usize, PairStatus)> =
                            Vec::with_capacity(job.pairs.len());
                        for &(job_index, a, b) in &job.pairs {
                            let attempt =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    #[cfg(feature = "fault-inject")]
                                    if let Some(plan) = fault_plan {
                                        match plan.action(job_index) {
                                            FaultAction::Panic => {
                                                panic!("injected fault: panic on job {job_index}")
                                            }
                                            // A stall must not change
                                            // the result, only its
                                            // timing.
                                            FaultAction::Stall(d) => std::thread::sleep(d),
                                            FaultAction::SpuriousUnknown => {
                                                state.proofs += 1;
                                                state.timeouts += 1;
                                                return PairOutcome::engine_only(
                                                    PairVerdict::Undecided,
                                                );
                                            }
                                            FaultAction::None => {}
                                        }
                                    }
                                    #[cfg(not(feature = "fault-inject"))]
                                    let _ = job_index;
                                    if panic_on.is_some_and(|trigger| trigger(a, b)) {
                                        panic!("injected prover panic on pair ({a}, {b})");
                                    }
                                    state.prove_pair(
                                        &mut shared,
                                        &job.seeds,
                                        seeds_ref,
                                        a,
                                        b,
                                        cfg,
                                        want_proof,
                                    )
                                }));
                            match attempt {
                                Ok(out) => results.push((job_index, PairStatus::Done(out))),
                                Err(_) => {
                                    shared = None;
                                    results.push((job_index, PairStatus::Panicked));
                                }
                            }
                            progress.tick();
                        }
                        results
                    },
                );
                // Round barrier: merge the workers' CPU spans (sum is
                // order-independent) and their diagnostic rows. The
                // authoritative, scheduling-invariant totals come from
                // the per-job results in the merge loop below —
                // a panicked step respawns its worker's state, so the
                // rows may under-report.
                obs.recorder
                    .merge(outcome.workers.iter().map(|r| &r.state.local));
                for report in &outcome.workers {
                    let agg = &mut summary.workers[report.worker];
                    agg.proofs += report.state.proofs;
                    agg.conflicts += report.state.conflicts;
                    agg.timeouts += report.state.timeouts;
                    agg.escalations += report.state.escalations;
                    agg.steals += report.stolen;
                    agg.panics += report.panics;
                }

                // Merge in pair order — the only order-sensitive step,
                // and it only depends on the (deterministic) results.
                // Panicked and skipped pairs are quarantined: counted,
                // reported unresolved, and never merged — the sound
                // direction to fail in.
                let mut pending: Vec<Vec<bool>> = Vec::new();
                let mut benched: Vec<(NodeId, NodeId)> = Vec::new();
                let mut dropped: HashSet<NodeId> = HashSet::new();
                let mut escalations_this_round = 0;
                // Journal-bound verdict log for this round (collected
                // only when a journal is attached).
                let mut round_log: Option<Vec<PairRecord>> = journal.is_some().then(Vec::new);
                // Flatten region-job results back into per-pair slots
                // keyed by global pair index: a region job returns
                // its pairs grouped, not in global pair order, and a
                // job-level panic or deadline skip marks every pair
                // it carried. `None` = never started.
                let mut slots: Vec<Option<PairStatus>> = Vec::new();
                slots.resize_with(indexed.len(), || None);
                for (pair_indices, status) in job_pair_indices.iter().zip(outcome.results) {
                    match status {
                        JobStatus::Done(pair_results) => {
                            for (ji, st) in pair_results {
                                slots[ji - round_base] = Some(st);
                            }
                        }
                        JobStatus::Panicked { .. } => {
                            for &ji in pair_indices {
                                slots[ji - round_base] = Some(PairStatus::Panicked);
                            }
                        }
                        JobStatus::Skipped => {}
                    }
                }
                let mut slot_iter = slots.into_iter();
                for ((rep, cand), cached) in pairs.into_iter().zip(resolutions) {
                    let from_cache = cached.is_some();
                    let mut proof_blob: Option<Vec<u8>> = None;
                    // The journal distinguishes panicked/skipped pairs
                    // from ordinary undecided ones (their replay
                    // effects differ); record the flaw here because
                    // the verdict below collapses both to `Undecided`.
                    let mut flaw: Option<JournalVerdict> = None;
                    let status = match cached {
                        // Trusted cache hits were never dispatched;
                        // wrap them so one match handles both sources.
                        Some(verdict) => Some(PairStatus::Done(PairOutcome::engine_only(verdict))),
                        None => slot_iter.next().expect("one slot per dispatched pair"),
                    };
                    let verdict = match status {
                        Some(PairStatus::Done(out)) if from_cache => out.verdict,
                        Some(PairStatus::Done(out)) => {
                            obs.recorder.add(Counter::ProofsDispatched, 1);
                            summary.proofs += 1;
                            summary.conflicts += out.conflicts;
                            summary.escalations += out.escalations;
                            escalations_this_round += out.escalations;
                            if out.timeout {
                                summary.timeouts += 1;
                            }
                            stats.sat_calls += out.sat_calls;
                            stats.sat_time += out.sat_time;
                            stats.solver += out.solver;
                            obs.recorder
                                .add(Counter::ScopesOpened, out.metrics.scopes_opened);
                            obs.recorder
                                .add(Counter::ClausesReused, out.metrics.clauses_reused);
                            obs.recorder
                                .add(Counter::WarmSolves, out.metrics.warm_solves);
                            obs.recorder
                                .add(Counter::SolverRebuilds, u64::from(out.rebuilt));
                            proof_blob = out.proof;
                            out.verdict
                        }
                        Some(PairStatus::Panicked) => {
                            flaw = Some(JournalVerdict::Panicked);
                            summary.panics += 1;
                            summary.quarantined += 1;
                            quarantined.push((rep, cand));
                            obs.recorder.add(Counter::ProofsDispatched, 1);
                            obs.recorder.add(Counter::ProofsQuarantined, 1);
                            obs.trace.emit(
                                "proof_quarantined",
                                vec![
                                    ("rep", Json::U64(rep.index() as u64)),
                                    ("cand", Json::U64(cand.index() as u64)),
                                ],
                            );
                            PairVerdict::Undecided
                        }
                        None => {
                            flaw = Some(JournalVerdict::Skipped);
                            summary.quarantined += 1;
                            interrupted = true;
                            obs.recorder.add(Counter::ProofsSkipped, 1);
                            PairVerdict::Undecided
                        }
                    };
                    if let Some(log) = round_log.as_mut() {
                        let journaled = flaw.unwrap_or_else(|| match &verdict {
                            PairVerdict::Equivalent => JournalVerdict::Equivalent,
                            PairVerdict::Counterexample(v) => {
                                JournalVerdict::Counterexample(v.clone())
                            }
                            PairVerdict::Undecided => JournalVerdict::Undecided,
                            PairVerdict::CertificationFailed { replay } => {
                                JournalVerdict::CertificationFailed { replay: *replay }
                            }
                        });
                        log.push(PairRecord {
                            rep: rep.index(),
                            cand: cand.index(),
                            verdict: journaled,
                        });
                    }
                    if obs.trace.is_enabled() {
                        let name = match &verdict {
                            PairVerdict::Equivalent => "equivalent",
                            PairVerdict::Counterexample(_) => "disproved",
                            PairVerdict::Undecided => "undecided",
                            PairVerdict::CertificationFailed { .. } => "certification_failed",
                        };
                        obs.trace.emit(
                            "proof",
                            vec![
                                ("rep", Json::U64(rep.index() as u64)),
                                ("cand", Json::U64(cand.index() as u64)),
                                ("verdict", Json::Str(name.to_string())),
                            ],
                        );
                    }
                    // Publish fresh verdicts (cache hits are already
                    // stored; quarantined and undecided pairs carry no
                    // fact worth keeping).
                    if !from_cache {
                        if let Some(sc) = sweep_cache.as_mut() {
                            match &verdict {
                                PairVerdict::Equivalent => sc.store(
                                    net,
                                    rep,
                                    cand,
                                    &ProveOutcome::Equivalent,
                                    proof_blob.take(),
                                    obs,
                                ),
                                PairVerdict::Counterexample(v) => sc.store(
                                    net,
                                    rep,
                                    cand,
                                    &ProveOutcome::Counterexample(v.clone()),
                                    None,
                                    obs,
                                ),
                                _ => {}
                            }
                        }
                    }
                    match verdict {
                        PairVerdict::Equivalent => {
                            if cfg.certify && !from_cache {
                                obs.recorder.add(Counter::CertificatesChecked, 1);
                            }
                            stats.proved_equivalent += 1;
                            obs.recorder.add(Counter::ProofsEquivalent, 1);
                            record_merge(&mut merged, rep, cand);
                            seeds.push((rep, cand));
                            dropped.insert(cand);
                        }
                        PairVerdict::Counterexample(v) => {
                            if cfg.certify && !from_cache {
                                obs.recorder.add(Counter::CexReplays, 1);
                            }
                            stats.disproved += 1;
                            obs.recorder.add(Counter::ProofsDisproved, 1);
                            generator.observe_counterexample(&v);
                            pending.push(v);
                            benched.push((cand, rep));
                            dropped.insert(cand);
                        }
                        PairVerdict::Undecided => {
                            stats.aborted += 1;
                            obs.recorder.add(Counter::ProofsUndecided, 1);
                            unresolved.push((rep, cand));
                            dropped.insert(cand);
                        }
                        PairVerdict::CertificationFailed { replay } => {
                            // An answer its own evidence does not
                            // support: quarantine the pair, never
                            // merge or split on it.
                            if replay {
                                obs.recorder.add(Counter::CexReplays, 1);
                                obs.recorder.add(Counter::CexReplayFailures, 1);
                            } else {
                                obs.recorder.add(Counter::CertificatesChecked, 1);
                                obs.recorder.add(Counter::CertificatesFailed, 1);
                            }
                            stats.certification_failures += 1;
                            stats.aborted += 1;
                            summary.quarantined += 1;
                            obs.recorder.add(Counter::ProofsQuarantined, 1);
                            obs.trace.emit(
                                "certification_failed",
                                vec![
                                    ("rep", Json::U64(rep.index() as u64)),
                                    ("cand", Json::U64(cand.index() as u64)),
                                ],
                            );
                            unresolved.push((rep, cand));
                            quarantined.push((rep, cand));
                            dropped.insert(cand);
                        }
                    }
                }
                obs.recorder
                    .add(Counter::ProofsEscalated, escalations_this_round);
                for class in &mut work {
                    class.retain(|n| !dropped.contains(n));
                }
                work.retain(|c| c.len() >= 2);
                if !pending.is_empty() {
                    let t = std::time::Instant::now();
                    work = flush_counterexamples(
                        net,
                        &mut patterns,
                        &mut sim,
                        work,
                        &mut pending,
                        &mut benched,
                        cfg.jobs.max(1),
                        obs,
                    );
                    let elapsed = t.elapsed();
                    stats.sim_time += elapsed;
                    stats.resim_time += elapsed;
                } else if !benched.is_empty() {
                    unreachable!("benched candidates always carry a counterexample");
                }
                // Round barrier durability point: everything merged
                // above survives a crash from here on.
                if let Some(j) = journal.as_deref_mut() {
                    j.commit_round(&RoundRecord {
                        round: summary.rounds,
                        pairs: round_log.take().unwrap_or_default(),
                        dispatched: dispatched_this_round,
                        class_sig: class_signature(&work),
                        counters: counter_snapshot(obs),
                        stats: StatsSnapshot::capture(&stats, &summary),
                    });
                }
            }
            if let Some(start) = sat_start {
                // Wall time only: resimulation wall is booked to CexResim
                // by the flush itself, and SAT CPU time arrives through the
                // merged per-worker busy spans.
                obs.recorder.add_wall(
                    Phase::SatResolution,
                    start
                        .elapsed()
                        .saturating_sub(stats.resim_time - resim_before),
                );
            }
            stats.dispatch = Some(summary);
            proven = merged;
        }
        stats.exec = sim.exec_stats();
        stats.pool = sim.pool_stats();
        record_exec_counters(obs, &stats.exec);

        SweepReport {
            stats,
            cost_after_sim,
            proven_classes: proven,
            unresolved,
            quarantined,
            interrupted: interrupted || deadline.expired(),
            mem_exhausted,
            patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_core::{SimGen, SimGenConfig};
    use simgen_dispatch::EnginePolicy;
    use simgen_netlist::TruthTable;
    use simgen_obs::report::strip_engine_dependent;

    /// A network with several provably-equivalent node groups and a
    /// couple of near-miss lookalikes.
    pub(super) fn workload_net(seed: u64) -> LutNetwork {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut pool = pis.clone();
        for _ in 0..30 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let tt = match rng.gen_range(0..4usize) {
                0 => TruthTable::and2(),
                1 => TruthTable::or2(),
                2 => TruthTable::xor2(),
                _ => TruthTable::nor2(),
            };
            if let Ok(n) = net.add_lut(vec![a, b], tt) {
                pool.push(n);
            }
        }
        // Duplicate a few gates with commuted fanins (and the truth
        // table permuted to match) to guarantee provable equivalences.
        let dup_targets: Vec<NodeId> = pool[pis.len()..].iter().copied().take(6).collect();
        for n in dup_targets {
            let f = net.fanins(n).to_vec();
            let tt = net.truth_table(n).unwrap().permute_inputs(&[1, 0]);
            if let Ok(d) = net.add_lut(vec![f[1], f[0]], tt) {
                pool.push(d);
            }
        }
        let out = *pool.last().unwrap();
        net.add_po(out, "f");
        for (i, &n) in pool.iter().rev().take(4).enumerate() {
            net.add_po(n, format!("o{i}"));
        }
        net
    }

    #[test]
    fn job_count_does_not_change_the_report() {
        let net = workload_net(7);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                budget_schedule: Some(BudgetSchedule::default()),
                seed: 7,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(7));
            Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default())
        };
        let r1 = run(1);
        for jobs in [2usize, 4] {
            let rj = run(jobs);
            // Byte-identical proof results and deterministic stats.
            assert_eq!(rj.proven_classes, r1.proven_classes, "jobs {jobs}");
            assert_eq!(rj.unresolved, r1.unresolved);
            assert_eq!(rj.patterns.num_patterns(), r1.patterns.num_patterns());
            assert_eq!(rj.stats.proved_equivalent, r1.stats.proved_equivalent);
            assert_eq!(rj.stats.disproved, r1.stats.disproved);
            assert_eq!(rj.stats.aborted, r1.stats.aborted);
            assert_eq!(rj.stats.sat_calls, r1.stats.sat_calls);
            let d1 = r1.stats.dispatch.as_ref().unwrap();
            let dj = rj.stats.dispatch.as_ref().unwrap();
            assert_eq!(dj.rounds, d1.rounds);
            assert_eq!(dj.total_proofs(), d1.total_proofs());
            assert_eq!(dj.total_timeouts(), d1.total_timeouts());
        }
    }

    #[test]
    fn escalation_ladder_resolves_with_tiny_initial_budget() {
        // initial=1 forces escalations on any pair needing search; the
        // multiplied retries must still resolve everything.
        let net = workload_net(11);
        let cfg = SweepConfig {
            jobs: 2,
            budget_schedule: Some(BudgetSchedule {
                initial: 1,
                multiplier: 1_000,
                attempts: 3,
                bdd_node_limit: 0,
            }),
            seed: 11,
            ..SweepConfig::default()
        };
        let mut g = SimGen::new(SimGenConfig::default().with_seed(11));
        let r = Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default());
        let d = r.stats.dispatch.as_ref().unwrap();
        assert!(r.stats.proved_equivalent > 0, "duplicated gates must merge");
        assert_eq!(
            d.total_proofs(),
            r.stats.proved_equivalent + r.stats.disproved + r.stats.aborted
        );
    }

    #[test]
    fn bdd_fallback_rescues_exhausted_ladder() {
        // Zero-attempt... smallest ladder (1 attempt, budget 1) on a
        // pair of reassociated xor trees: SAT at budget 1 cannot prove
        // it, the BDD fallback can.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut l = pis[0];
        for &p in &pis[1..] {
            l = net.add_lut(vec![l, p], TruthTable::xor2()).unwrap();
        }
        let mut r = pis[7];
        for &p in pis[..7].iter().rev() {
            r = net.add_lut(vec![r, p], TruthTable::xor2()).unwrap();
        }
        net.add_po(l, "l");
        net.add_po(r, "r");
        let run = |bdd_node_limit: usize| {
            let cfg = SweepConfig {
                jobs: 2,
                random_batch: 64,
                guided_iterations: 2,
                budget_schedule: Some(BudgetSchedule {
                    initial: 1,
                    multiplier: 1,
                    attempts: 1,
                    bdd_node_limit,
                }),
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default());
            Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default())
        };
        let without = run(0);
        // The xor pair survives simulation (equivalent functions) and
        // must end up unresolved without a fallback...
        assert!(without
            .unresolved
            .iter()
            .any(|&(a, b)| (a, b) == (l, r) || (a, b) == (r, l)));
        // ...and proven with one.
        let with = run(1_000_000);
        assert!(with
            .proven_classes
            .iter()
            .any(|c| c.contains(&l) && c.contains(&r)));
        assert!(with.stats.dispatch.as_ref().unwrap().total_escalations() == 0);
    }

    #[test]
    fn panicking_prover_is_quarantined_not_fatal() {
        // Every single pair proof panics; the sweep must still run to
        // completion with everything quarantined and nothing merged.
        let net = workload_net(13);
        for jobs in [1usize, 4] {
            let cfg = SweepConfig {
                jobs,
                seed: 13,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(13));
            let r = Sweeper::new(cfg).with_panic_injection(|_, _| true).run(
                &net,
                &mut g,
                &mut RunContext::default(),
            );
            assert!(r.proven_classes.is_empty(), "jobs={jobs}");
            assert!(!r.quarantined.is_empty(), "jobs={jobs}");
            assert!(!r.interrupted, "no deadline involved, jobs={jobs}");
            let d = r.stats.dispatch.as_ref().unwrap();
            assert_eq!(d.quarantined, r.quarantined.len() as u64);
            assert_eq!(d.total_panics(), d.quarantined);
            // Soundness: every quarantined pair is reported unresolved.
            for p in &r.quarantined {
                assert!(r.unresolved.contains(p), "jobs={jobs}");
            }
            assert_eq!(r.stats.aborted as usize, r.unresolved.len());
        }
    }

    #[test]
    fn partial_panic_injection_spares_other_pairs() {
        // Panic on pairs with an even candidate id: those quarantine,
        // the rest must still resolve normally.
        let net = workload_net(3);
        let cfg = SweepConfig {
            jobs: 2,
            seed: 3,
            ..SweepConfig::default()
        };
        let mut g = SimGen::new(SimGenConfig::default().with_seed(3));
        let baseline = Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default());
        assert!(baseline.stats.proved_equivalent > 0, "workload sanity");

        let mut g = SimGen::new(SimGenConfig::default().with_seed(3));
        let r = Sweeper::new(cfg)
            .with_panic_injection(|_, cand| cand.index() % 2 == 0)
            .run(&net, &mut g, &mut RunContext::default());
        let d = r.stats.dispatch.as_ref().unwrap();
        assert!(d.quarantined > 0, "some pair must have been injected");
        assert_eq!(d.total_panics(), d.quarantined);
        for p in &r.quarantined {
            assert!(r.unresolved.contains(p));
            // The injection never reached a prover, so no quarantined
            // pair may appear merged.
            assert!(r
                .proven_classes
                .iter()
                .all(|c| !(c.contains(&p.0) && c.contains(&p.1))));
        }
    }

    #[test]
    fn expired_deadline_degrades_deterministically() {
        // With the deadline already gone, every jobs value must
        // produce the identical sound partial report: nothing proven,
        // all surviving pairs unresolved in the same order.
        let net = workload_net(17);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                seed: 17,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(17));
            let mut ctx = RunContext {
                deadline: Deadline::after(Duration::ZERO),
                ..RunContext::default()
            };
            Sweeper::new(cfg).run(&net, &mut g, &mut ctx)
        };
        let r1 = run(1);
        assert!(r1.interrupted);
        assert!(r1.proven_classes.is_empty());
        assert!(!r1.unresolved.is_empty(), "pairs survive simulation");
        assert!(
            r1.quarantined.is_empty(),
            "skipped rounds quarantine nothing"
        );
        assert_eq!(r1.stats.aborted as usize, r1.unresolved.len());
        assert_eq!(r1.stats.sat_calls, 0, "no proof may start");
        // Only the mandatory random round made it into the history.
        assert_eq!(r1.stats.history.len(), 1);
        for jobs in [2usize, 4] {
            let rj = run(jobs);
            assert!(rj.interrupted, "jobs={jobs}");
            assert_eq!(rj.proven_classes, r1.proven_classes, "jobs={jobs}");
            assert_eq!(rj.unresolved, r1.unresolved, "jobs={jobs}");
            assert_eq!(rj.stats.aborted, r1.stats.aborted, "jobs={jobs}");
            assert_eq!(
                rj.stats.history.len(),
                r1.stats.history.len(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn certified_parallel_sweep_is_jobs_invariant() {
        // Certification must not disturb the determinism contract:
        // identical classes and deterministic stats for any jobs
        // value, zero failures on a healthy engine, and the same
        // merges an uncertified run produces.
        let net = workload_net(9);
        let run = |jobs: usize, certify: bool| {
            let cfg = SweepConfig {
                jobs,
                certify,
                seed: 9,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(9));
            Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default())
        };
        let plain = run(1, false);
        let r1 = run(1, true);
        assert_eq!(r1.proven_classes, plain.proven_classes);
        assert_eq!(r1.stats.certification_failures, 0);
        assert!(r1.quarantined.is_empty());
        assert!(r1.stats.solver.proof_clauses > 0);
        for jobs in [2usize, 4] {
            let rj = run(jobs, true);
            assert_eq!(rj.proven_classes, r1.proven_classes, "jobs {jobs}");
            assert_eq!(rj.unresolved, r1.unresolved);
            assert_eq!(rj.stats.solver, r1.stats.solver);
            assert_eq!(
                rj.stats.dispatch.as_ref().unwrap().proofs,
                r1.stats.dispatch.as_ref().unwrap().proofs
            );
        }
    }

    #[test]
    fn dispatch_totals_survive_worker_respawns() {
        // Panics respawn worker state; the merge-side totals must
        // still account for every completed job, for any jobs value.
        let net = workload_net(19);
        let run = |jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                seed: 19,
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default().with_seed(19));
            Sweeper::new(cfg)
                .with_panic_injection(|_, cand| cand.index() % 3 == 0)
                .run(&net, &mut g, &mut RunContext::default())
        };
        let r1 = run(1);
        let d1 = r1.stats.dispatch.clone().unwrap();
        assert!(d1.panics > 0, "injection sanity");
        // Completed proofs + panicked jobs account for every verdict.
        assert_eq!(
            d1.proofs + d1.panics,
            r1.stats.proved_equivalent + r1.stats.disproved + r1.stats.aborted
        );
        for jobs in [2usize, 4] {
            let rj = run(jobs);
            let dj = rj.stats.dispatch.clone().unwrap();
            assert_eq!(dj.proofs, d1.proofs, "jobs {jobs}");
            assert_eq!(dj.panics, d1.panics, "jobs {jobs}");
            assert_eq!(dj.conflicts, d1.conflicts, "jobs {jobs}");
            assert_eq!(dj.timeouts, d1.timeouts, "jobs {jobs}");
            assert_eq!(rj.stats.sat_calls, r1.stats.sat_calls, "jobs {jobs}");
            assert_eq!(rj.stats.solver, r1.stats.solver, "jobs {jobs}");
        }
    }

    #[test]
    fn worker_stats_cover_all_proofs() {
        let net = workload_net(5);
        let cfg = SweepConfig {
            jobs: 4,
            seed: 5,
            ..SweepConfig::default()
        };
        let mut g = SimGen::new(SimGenConfig::default().with_seed(5));
        let r = Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default());
        let d = r.stats.dispatch.as_ref().unwrap();
        assert_eq!(d.jobs, 4);
        assert!(d.rounds >= 1);
        assert_eq!(
            d.total_proofs(),
            r.stats.proved_equivalent + r.stats.disproved + r.stats.aborted
        );
    }

    /// A net whose sweep deterministically needs *two* dispatch
    /// rounds: `z1`/`z2` differ from `x1`/`x2` only on the all-ones
    /// minterm of twelve PIs, which 64 random patterns essentially
    /// never sample, so the four lookalikes land in one class. Round
    /// one proves `(rep, x1)` and `(rep, x2)` and disproves `(rep,
    /// z1)` and `(rep, z2)`; the counterexample flush regroups the
    /// split-off pair into `{z1, z2}`, which round two proves.
    ///
    /// Node indices are deterministic: PIs `0..=11`, AND-tree nodes
    /// `12..=22`, then `x1 = 23`, `x2 = 24`, `z1 = 25`, `z2 = 26` —
    /// so a capture-free panic trigger can select round-one pairs by
    /// `rep.index() < 23`.
    pub(super) fn multiround_net() -> LutNetwork {
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..12).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut layer = pis.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for ch in layer.chunks(2) {
                match ch {
                    [a, b] => next.push(net.add_lut(vec![*a, *b], TruthTable::and2()).unwrap()),
                    [a] => next.push(*a),
                    _ => unreachable!(),
                }
            }
            layer = next;
        }
        let all = layer[0];
        let x1 = net
            .add_lut(vec![pis[0], pis[1]], TruthTable::and2())
            .unwrap();
        let x2 = net
            .add_lut(vec![pis[1], pis[0]], TruthTable::and2())
            .unwrap();
        let z1 = net.add_lut(vec![x1, all], TruthTable::xor2()).unwrap();
        let z2 = net.add_lut(vec![all, x2], TruthTable::xor2()).unwrap();
        assert_eq!(z2.index(), 26, "multiround_net layout drifted");
        net.add_po(z1, "z1");
        net.add_po(z2, "z2");
        net.add_po(all, "all");
        net
    }

    fn multiround_cfg(seed: u64, jobs: usize) -> SweepConfig {
        SweepConfig {
            seed,
            guided_iterations: 0,
            jobs,
            ..SweepConfig::default()
        }
    }

    /// Runs the multi-round workload with (or without) a journal and
    /// returns the stripped RunReport plus the raw sweep report.
    fn multiround_run(
        seed: u64,
        jobs: usize,
        journal: Option<&mut crate::SweepJournal>,
        trigger: Option<fn(NodeId, NodeId) -> bool>,
    ) -> (String, SweepReport) {
        let net = multiround_net();
        let cfg = multiround_cfg(seed, jobs);
        let mut g = simgen_core::RandomPatterns::new(seed, 64);
        let mut sweeper = Sweeper::new(cfg);
        if let Some(t) = trigger {
            sweeper = sweeper.with_panic_injection(t);
        }
        let mut ctx = RunContext {
            obs: Observer::enabled(),
            journal,
            ..RunContext::default()
        };
        let report = sweeper.run(&net, &mut g, &mut ctx);
        let run_report = crate::report::sweep_run_report(
            crate::report::RunMeta {
                command: "sweep".to_string(),
                argv: vec!["sweep".to_string(), "multiround.blif".to_string()],
                design: crate::report::design_info(&net, "multiround", "multiround.blif"),
            },
            &cfg,
            &report,
            &ctx.obs,
        );
        (run_report.deterministic_json(), report)
    }

    fn journal_lines(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_to_string(dir.join(crate::journal::JOURNAL_FILE))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn journaled_run_report_matches_plain_run() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_eq_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for jobs in [1usize, 4] {
            let (plain, report) = multiround_run(0, jobs, None, None);
            assert_eq!(
                report.stats.dispatch.as_ref().unwrap().rounds,
                2,
                "workload must exercise two rounds"
            );
            let mut j = crate::SweepJournal::create(&dir, false).unwrap();
            let (journaled, _) = multiround_run(0, jobs, Some(&mut j), None);
            assert_eq!(journaled, plain, "jobs {jobs}");
            // Journal holds the meta line plus one line per round.
            assert_eq!(journal_lines(&dir).len(), 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_journaled_rounds_without_reproving() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_tr_{}", std::process::id()));
        for jobs in [1usize, 4] {
            let _ = std::fs::remove_dir_all(&dir);
            let (reference, _) = multiround_run(0, jobs, None, None);
            let mut j = crate::SweepJournal::create(&dir, false).unwrap();
            let _ = multiround_run(0, jobs, Some(&mut j), None);
            drop(j);
            // Keep only the meta line and round one — the state a
            // SIGKILL between the two round barriers leaves behind.
            let lines = journal_lines(&dir);
            std::fs::write(
                dir.join(crate::journal::JOURNAL_FILE),
                format!("{}\n{}\n", lines[0], lines[1]),
            )
            .unwrap();
            // The panic trigger fires on every round-one pair (their
            // reps are AND-tree nodes, index < 23): if resume
            // re-dispatched any of them the prover would panic, the
            // pair would be quarantined, and the report would differ.
            let mut j = crate::SweepJournal::create(&dir, true).unwrap();
            let (resumed, report) =
                multiround_run(0, jobs, Some(&mut j), Some(|rep, _| rep.index() < 23));
            assert!(report.quarantined.is_empty(), "round one was re-proven");
            assert_eq!(resumed, reference, "jobs {jobs}");
            // The live second round re-committed: journal is whole
            // again.
            assert_eq!(journal_lines(&dir).len(), 3);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_complete_journal_dispatches_nothing() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_full_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reference, _) = multiround_run(0, 1, None, None);
        let mut j = crate::SweepJournal::create(&dir, false).unwrap();
        let _ = multiround_run(0, 1, Some(&mut j), None);
        drop(j);
        // Every pair re-dispatched would panic — a fully journaled
        // run must replay end to end without a single proof job.
        let mut j = crate::SweepJournal::create(&dir, true).unwrap();
        let (resumed, report) = multiround_run(0, 1, Some(&mut j), Some(|_, _| true));
        assert!(report.quarantined.is_empty());
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_crosses_job_counts() {
        // The fingerprint deliberately excludes `jobs`: a journal
        // written by a one-worker run resumes under four workers (and
        // vice versa) with a byte-identical report.
        let dir = std::env::temp_dir().join(format!("simgen_resume_xj_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (reference, _) = multiround_run(0, 4, None, None);
        let mut j = crate::SweepJournal::create(&dir, false).unwrap();
        let _ = multiround_run(0, 1, Some(&mut j), None);
        drop(j);
        let lines = journal_lines(&dir);
        std::fs::write(
            dir.join(crate::journal::JOURNAL_FILE),
            format!("{}\n{}\n", lines[0], lines[1]),
        )
        .unwrap();
        let mut j = crate::SweepJournal::create(&dir, true).unwrap();
        let (resumed, _) = multiround_run(0, 4, Some(&mut j), None);
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_from_other_config_is_ignored() {
        let dir = std::env::temp_dir().join(format!("simgen_resume_st_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut j = crate::SweepJournal::create(&dir, false).unwrap();
        let _ = multiround_run(0, 1, Some(&mut j), None);
        drop(j);
        // Different seed → different fingerprint: resume must discard
        // the journal and prove everything live, matching a fresh
        // seed-3 run exactly.
        let (reference, _) = multiround_run(3, 1, None, None);
        let mut j = crate::SweepJournal::create(&dir, true).unwrap();
        let (resumed, report) = multiround_run(3, 1, Some(&mut j), None);
        assert!(report.stats.sat_calls > 0);
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sweeps `net` under `cfg` with counters on; returns the report
    /// and the observer that recorded it.
    fn observed(net: &LutNetwork, cfg: SweepConfig) -> (SweepReport, Observer) {
        let mut g = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            obs: Observer::enabled(),
            ..RunContext::default()
        };
        let report = Sweeper::new(cfg).run(net, &mut g, &mut ctx);
        (report, ctx.obs)
    }

    /// Two disconnected islands: three AND variants over `(a, b)`,
    /// whose two candidate pairs share one fanin region, and two OR
    /// variants over `(c, d)`, alone in theirs.
    fn two_island_net() -> LutNetwork {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let d = net.add_pi("d");
        let x1 = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let x2 = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        let x3 = net.add_lut(vec![x1], TruthTable::buf1()).unwrap();
        let y1 = net.add_lut(vec![c, d], TruthTable::or2()).unwrap();
        let y2 = net.add_lut(vec![d, c], TruthTable::or2()).unwrap();
        for (i, n) in [x1, x2, x3, y1, y2].into_iter().enumerate() {
            net.add_po(n, format!("o{i}"));
        }
        net
    }

    #[test]
    fn each_region_shares_one_solver() {
        // Region X's two pairs run on one scoped solver, so the second
        // is a warm solve; region Y's pair gets a solver of its own.
        let (r, obs) = observed(&two_island_net(), SweepConfig::default());
        assert_eq!(r.stats.proved_equivalent, 3);
        assert_eq!(r.stats.sat_calls, 3);
        assert_eq!(r.stats.dispatch.as_ref().unwrap().rounds, 1);
        assert_eq!(obs.recorder.get(Counter::ScopesOpened), 3);
        assert_eq!(
            obs.recorder.get(Counter::WarmSolves),
            1,
            "only region X warm-starts"
        );
    }

    #[test]
    fn bloat_policy_rebuilds_the_region_solver() {
        // Three xor trees over the same eight inputs, associated
        // differently: one fanin region whose pairs encode enough cone
        // to outgrow the floored baseline, so bloat=1 drops the region
        // solver between pairs. The rebuilt solver starts cold, which
        // moves effort counters only — never a verdict.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("p{i}"))).collect();
        let chain = |net: &mut LutNetwork, order: &[NodeId]| {
            let mut acc = order[0];
            for &p in &order[1..] {
                acc = net.add_lut(vec![acc, p], TruthTable::xor2()).unwrap();
            }
            acc
        };
        let fwd = chain(&mut net, &pis);
        let rev: Vec<NodeId> = pis.iter().rev().copied().collect();
        let bwd = chain(&mut net, &rev);
        let odd_even: Vec<NodeId> = pis
            .iter()
            .step_by(2)
            .chain(pis.iter().skip(1).step_by(2))
            .copied()
            .collect();
        let mixed = chain(&mut net, &odd_even);
        for (i, n) in [fwd, bwd, mixed].into_iter().enumerate() {
            net.add_po(n, format!("x{i}"));
        }
        let run = |rebuild_bloat: u32, jobs: usize| {
            let cfg = SweepConfig {
                jobs,
                engine: EnginePolicy {
                    rebuild_bloat,
                    ..EnginePolicy::default()
                },
                ..SweepConfig::default()
            };
            let (report, obs) = observed(&net, cfg);
            let meta = crate::report::RunMeta {
                command: "sweep".to_string(),
                argv: vec!["sweep".to_string(), "xor.blif".to_string()],
                design: crate::report::design_info(&net, "xor", "xor.blif"),
            };
            let run = crate::report::sweep_run_report(meta, &cfg, &report, &obs);
            let mut json = Json::parse(&run.deterministic_json()).expect("own JSON parses");
            strip_engine_dependent(&mut json);
            (json.to_pretty(), obs.recorder.get(Counter::SolverRebuilds))
        };
        let (reference, rebuilds) = run(0, 1);
        assert_eq!(rebuilds, 0, "bloat=0 keeps every region solver");
        for jobs in [1usize, 2] {
            let (stripped, rebuilds) = run(1, jobs);
            assert!(rebuilds > 0, "jobs={jobs}: the bloated solver is rebuilt");
            assert_eq!(stripped, reference, "jobs={jobs}");
        }
    }
}
