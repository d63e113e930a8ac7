//! The sweeping engine: the resolution phase of the paper's Figure 2
//! ("BDD or SAT", with counterexamples fed back into simulation).
//!
//! Phases 1–2 (random + guided simulation) run in
//! [`crate::sweep`]. Phase 3 resolves the surviving candidates in
//! synchronised *rounds*: every candidate pair `(rep, candᵢ)` of every
//! surviving class is listed in a deterministic order, grouped into
//! jobs, run by [`simgen_dispatch::run_ordered`], and the results are
//! merged back **in pair order**. Pairs are grouped into one job per
//! fanin region ([`RegionMap`]); a region's pairs share one
//! assumption-scoped [`PairProver`] (under `--no-incremental`, every
//! pair is its own job). `--jobs` threads take a round's jobs, so a
//! miter that is one fanin region proves each warm round on one
//! thread; cold rounds and inputs with several regions spread across
//! threads. Provers are seeded with the
//! equivalences proven in *earlier rounds*, and a job asserts each
//! equality it proves before its next pair (fraig within the round).
//! A job runs its pairs serially in global pair order, so a pair's
//! outcome is a pure function of the round history and its job's pair
//! list — never of which worker ran it or in what order. That is what
//! makes the sweep report byte-identical for any `jobs` value.
//!
//! Every pair ends in one [`Verdict`], and one `RoundState::apply`
//! turns it into sweep state, for live rounds and for rounds replayed
//! from the journal alike. Counterexamples produced during a round
//! are batched and flushed through one word-parallel resimulation
//! (`flush_counterexamples`) at the end of the round.
//!
//! Engine choice per pair follows [`SweepConfig::engine`]: SAT alone,
//! BDD first with SAT behind it, or BDD alone. Each pair gets one SAT
//! attempt at [`SweepConfig::sat_budget`] conflicts, and the BDD
//! engine one try within its node limit; a pair neither engine
//! resolves is reported unresolved.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use simgen_core::PatternGenerator;
use simgen_dispatch::{run_ordered, Deadline, EngineMode, Progress};
#[cfg(feature = "fault-inject")]
use simgen_dispatch::{FaultAction, FaultPlan};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{Counter, Json, LocalRecorder, Observer, Phase};
use simgen_sat::{ScopeMetrics, SolverStats};
use simgen_sim::{PatternSet, Replayer, SimResult};

use crate::certify::{certify, count_certification, PROOF_BYTE_BUDGET};
use crate::journal::{
    class_signature, counter_snapshot, restore_counters, sweep_fingerprint, PairRecord,
    RoundRecord, StatsSnapshot,
};
use crate::prove::{BddProver, PairProver, ProveOutcome, Verdict};
use crate::region::{cone_union, RegionMap, REBUILD_BASELINE_FLOOR};
use crate::stats::{DispatchSummary, SweepStats, WorkerSummary};
use crate::sweep::{
    flush_counterexamples, record_merge, run_sim_phases, spawn_watchdog, RunContext, SimPhases,
    SweepConfig, SweepReport,
};

/// Everything a proof job hands back to the merge loop for one pair.
/// The effort deltas travel in the result, not in worker state, and
/// the merge books them in pair order — into the run totals and into
/// the row of the worker that ran the pair — so the totals are exact
/// for any `--jobs` value and the rows partition them.
struct PairOutcome {
    verdict: Verdict,
    /// Index of the worker that ran the pair.
    worker: usize,
    /// The caught panic's message ([`Verdict::Panicked`] only).
    panic: Option<String>,
    /// Serialized DRAT blob of an `Equivalent` verdict, produced only
    /// when the round wants to populate the proof cache.
    proof: Option<Vec<u8>>,
    sat_calls: u64,
    sat_time: Duration,
    solver: SolverStats,
    /// Conflicts spent by a SAT attempt its budget aborted.
    conflicts: u64,
    /// Scope-reuse delta attributable to this pair (zero when the
    /// pair never touched a SAT solver).
    metrics: ScopeMetrics,
    /// Whether the region solver was dropped as bloated right before
    /// this pair (see [`RegionSolver`]).
    rebuilt: bool,
}

impl PairOutcome {
    /// Outcome of a path that did no SAT work (BDD primary engine, an
    /// injected spurious answer, or a caught panic).
    fn engine_only(verdict: Verdict, worker: usize) -> Self {
        PairOutcome {
            verdict,
            worker,
            panic: None,
            proof: None,
            sat_calls: 0,
            sat_time: Duration::ZERO,
            solver: SolverStats::default(),
            conflicts: 0,
            metrics: ScopeMetrics::default(),
            rebuilt: false,
        }
    }
}

/// What a region job carries from one pair to the next: the scoped
/// solver its pairs share and every equality the job has proven so far
/// (fraig within the round). The solver is built on the job's first
/// SAT pair and dropped after a caught panic — a poisoned solver is
/// never trusted — or, under
/// [`EnginePolicy::rebuild_bloat`](simgen_dispatch::EnginePolicy), when
/// its live clause database outgrows the footprint it had right after
/// it was built (floored at [`REBUILD_BASELINE_FLOOR`]) times the
/// multiple. Every build, first or not, starts from the job's seeds
/// plus its proven list, so a rebuilt solver loses its learnt clauses
/// but never what the job already proved.
struct RegionSolver<'n, 'j> {
    /// Prior-round equalities inside the job's region (or, for a
    /// single-pair job, inside the pair's cones).
    seeds: &'j [(NodeId, NodeId)],
    /// Equalities this job proved, in pair order: only final
    /// `Equivalent` verdicts, so under certify only certified ones.
    proven: Vec<(NodeId, NodeId)>,
    /// The live solver, if any.
    prover: Option<PairProver<'n>>,
    /// `clause_db_bytes` of the live solver right after it was built.
    baseline: u64,
}

impl<'n, 'j> RegionSolver<'n, 'j> {
    fn new(seeds: &'j [(NodeId, NodeId)]) -> Self {
        RegionSolver {
            seeds,
            proven: Vec::new(),
            prover: None,
            baseline: 0,
        }
    }

    /// The solver for the job's next pair, and whether the bloat
    /// policy (`bloat == 0` disables it) just dropped the previous
    /// one. A missing solver is built by `fresh` and seeded — the one
    /// builder for the first build and every rebuild.
    fn prover(
        &mut self,
        bloat: u32,
        fresh: impl FnOnce() -> PairProver<'n>,
    ) -> (&mut PairProver<'n>, bool) {
        let rebuilt = bloat > 0
            && self.prover.as_ref().is_some_and(|p| {
                p.solver_stats().clause_db_bytes
                    > self
                        .baseline
                        .max(REBUILD_BASELINE_FLOOR)
                        .saturating_mul(u64::from(bloat))
            });
        if rebuilt {
            self.prover = None;
        }
        let (seeds, proven, baseline) = (self.seeds, &self.proven, &mut self.baseline);
        let prover = self.prover.get_or_insert_with(|| {
            let mut prover = fresh();
            for &(x, y) in seeds.iter().chain(proven) {
                prover.assert_equal(x, y);
            }
            *baseline = prover.solver_stats().clause_db_bytes;
            prover
        });
        (prover, rebuilt)
    }

    /// Records an equality the job just proved: asserted into the live
    /// solver now, into a later build at construction.
    fn merge(&mut self, a: NodeId, b: NodeId) {
        if let Some(prover) = self.prover.as_mut() {
            prover.assert_equal(a, b);
        }
        self.proven.push((a, b));
    }
}

/// One dispatched proof job. In incremental mode a job is a whole
/// fanin region's worth of this round's pairs — they share one scoped
/// solver, serially, in global pair order — so the report's reuse
/// counters stay `--jobs`-invariant. Under `--no-incremental` every
/// job is a single pair, seeded with the earlier-round equalities
/// inside its cones.
struct RegionJob {
    /// Prior-round proven equalities the job's solver is seeded with
    /// at every build.
    seeds: Vec<(NodeId, NodeId)>,
    /// `(global pair index, rep, cand)` in global pair order.
    pairs: Vec<(usize, NodeId, NodeId)>,
}

/// Per-worker proving state: the BDD engine (built on first use, and
/// only when BDD is the primary engine), a scalar replayer and a
/// busy-span recorder. It keeps no counters: every count travels in
/// the [`PairOutcome`]s.
struct WorkerState<'n> {
    net: &'n LutNetwork,
    /// This worker's index, stamped on every outcome it produces.
    worker: usize,
    /// Shared deadline bound to every prover this worker builds.
    deadline: Deadline,
    /// Built on the first pair that consults it.
    bdd: Option<BddProver<'n>>,
    /// Scalar reference evaluator for counterexample replay (reused
    /// across this worker's pairs; its buffers are scratch space).
    replayer: Replayer,
    /// Busy-span recorder merged into the orchestrator's at the round
    /// barrier (CPU attribution only).
    local: LocalRecorder,
}

impl<'n> WorkerState<'n> {
    fn new(net: &'n LutNetwork, worker: usize, deadline: Deadline, local: LocalRecorder) -> Self {
        WorkerState {
            net,
            worker,
            deadline,
            bdd: None,
            replayer: Replayer::new(),
            local,
        }
    }

    /// BDD query through the worker's cached engine.
    fn bdd_prove(&mut self, a: NodeId, b: NodeId, node_limit: usize) -> Verdict {
        let net = self.net;
        let bdd = self
            .bdd
            .get_or_insert_with(|| BddProver::new(net, node_limit));
        bdd.prove(a, b).into()
    }

    /// Proves one pair against `region`, the job's shared scoped
    /// solver, with the engines `cfg` picks, and (under certify) the
    /// answer independently checked. A final `Equivalent` is then
    /// asserted into `region` for the job's later pairs — after
    /// certification and after the proof blob was taken, so no
    /// certificate holds its own pair's equality as an axiom.
    /// Deterministic given `(region seeds, a, b, cfg)` and the region's
    /// query history — which is itself deterministic because a job
    /// processes its pairs serially in global pair order.
    fn prove_pair(
        &mut self,
        region: &mut RegionSolver<'n, '_>,
        a: NodeId,
        b: NodeId,
        cfg: &SweepConfig,
        want_proof: bool,
    ) -> PairOutcome {
        let start = self.local.is_enabled().then(Instant::now);
        let outcome = self.prove_pair_inner(region, a, b, cfg, want_proof);
        if outcome.verdict == Verdict::Equivalent {
            region.merge(a, b);
        }
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
    fn prove_pair_inner(
        &mut self,
        region: &mut RegionSolver<'n, '_>,
        a: NodeId,
        b: NodeId,
        cfg: &SweepConfig,
        want_proof: bool,
    ) -> PairOutcome {
        // BDD answers carry no DRAT proof, so under certify the SAT
        // engine below proves the pair instead.
        if cfg.engine.bdd_primary(cfg.certify) {
            let verdict = self.bdd_prove(a, b, cfg.engine.bdd_node_limit);
            // A tripped node limit leaves BDD-only undecided and sends
            // BDD-first on to SAT.
            if verdict != Verdict::Undecided || cfg.engine.mode == EngineMode::BddOnly {
                return PairOutcome::engine_only(verdict, self.worker);
            }
        }

        let (prover, rebuilt) = region.prover(cfg.engine.rebuild_bloat, || self.fresh_prover(cfg));
        // Everything this pair reports is a delta against the
        // prover's cumulative counters, so a job's later pairs book
        // only their own work.
        let calls_before = prover.calls();
        let time_before = prover.time();
        let solver_before = prover.solver_stats();
        let metrics_before = prover.metrics();
        let budget = cfg.sat_budget.unwrap_or(u64::MAX).max(1);
        let (mut verdict, conflicts) = match prover.prove(a, b, Some(budget)) {
            ProveOutcome::Undecided { conflicts } => (Verdict::Undecided, conflicts),
            resolved => (Verdict::from(resolved), 0),
        };
        if cfg.certify {
            verdict = certify(verdict, prover, self.net, &mut self.replayer, a, b);
        }
        // Serialize the certificate worker-side (where the solver
        // state lives); the orchestrator stores it at the merge. Must
        // happen before the prover's next query: the scoped solver
        // retires the current scope on the next `prove`, after which
        // the proof-log tail no longer certifies this pair.
        let proof = if want_proof && verdict == Verdict::Equivalent {
            prover.proof_blob()
        } else {
            None
        };
        PairOutcome {
            verdict,
            worker: self.worker,
            panic: None,
            proof,
            sat_calls: prover.calls() - calls_before,
            sat_time: prover.time().saturating_sub(time_before),
            solver: prover.solver_stats() - solver_before,
            conflicts,
            metrics: prover.metrics() - metrics_before,
            rebuilt,
        }
    }
}

/// The sweep state the pairs' verdicts act on: the surviving classes,
/// everything resolved so far, and the current round's resimulation
/// batch.
#[derive(Default)]
struct RoundState {
    /// Surviving candidate classes (each of size ≥ 2).
    work: Vec<Vec<NodeId>>,
    /// Proven equivalence groups, in merge order.
    merged: Vec<Vec<NodeId>>,
    /// Equivalences proven in earlier rounds, in merge order: the
    /// deterministic seed set for every later pair prover.
    seeds: Vec<(NodeId, NodeId)>,
    unresolved: Vec<(NodeId, NodeId)>,
    quarantined: Vec<(NodeId, NodeId)>,
    /// This round's counterexamples, flushed at its end.
    pending: Vec<Vec<bool>>,
    /// `(candidate, origin rep)` of this round's disproved pairs.
    benched: Vec<(NodeId, NodeId)>,
    /// Candidates this round resolved, one way or another.
    dropped: HashSet<NodeId>,
    /// Whether a deadline skipped any pair.
    interrupted: bool,
}

impl RoundState {
    /// Applies one pair's verdict, from a live round or replayed from
    /// the journal. Only structural state changes here: a live round
    /// books its counters and statistics around this call, a replayed
    /// one restores them from the journal's snapshots.
    fn apply(
        &mut self,
        rep: NodeId,
        cand: NodeId,
        verdict: &Verdict,
        generator: &mut dyn PatternGenerator,
    ) {
        let pair = (rep, cand);
        match verdict {
            Verdict::Equivalent => {
                record_merge(&mut self.merged, rep, cand);
                self.seeds.push(pair);
            }
            Verdict::Counterexample(witness) => {
                generator.observe_counterexample(witness);
                self.pending.push(witness.clone());
                self.benched.push((cand, rep));
            }
            Verdict::Undecided => self.unresolved.push(pair),
            Verdict::Skipped => {
                self.interrupted = true;
                self.unresolved.push(pair);
            }
            // An answer nobody can trust is never merged or split on:
            // the sound direction to fail in.
            Verdict::Panicked | Verdict::CertificationFailed { .. } => {
                self.unresolved.push(pair);
                self.quarantined.push(pair);
            }
        }
        self.dropped.insert(cand);
    }

    /// Ends a round, live or replayed: drops every candidate it
    /// resolved from the surviving classes, then resimulates its
    /// counterexamples in one word-parallel flush, which splits the
    /// classes they distinguish.
    fn end_round(
        &mut self,
        net: &LutNetwork,
        patterns: &mut PatternSet,
        sim: &mut SimResult,
        stats: &mut SweepStats,
        obs: &mut Observer,
    ) {
        for class in &mut self.work {
            class.retain(|n| !self.dropped.contains(n));
        }
        self.work.retain(|c| c.len() >= 2);
        self.dropped.clear();
        if !self.pending.is_empty() {
            let t = Instant::now();
            self.work = flush_counterexamples(
                net,
                patterns,
                sim,
                std::mem::take(&mut self.work),
                &mut self.pending,
                &mut self.benched,
                obs,
            );
            let elapsed = t.elapsed();
            stats.sim_time += elapsed;
            stats.resim_time += elapsed;
        }
    }
}

/// Books a dispatched pair's effort into the run totals and into the
/// row of the worker that ran it. A caught panic books no effort: it
/// counts as a panic and quarantines the pair.
fn book_dispatched(
    out: &PairOutcome,
    (rep, cand): (NodeId, NodeId),
    stats: &mut SweepStats,
    summary: &mut DispatchSummary,
    obs: &mut Observer,
) {
    let row = &mut summary.workers[out.worker];
    if let Some(message) = &out.panic {
        summary.panics += 1;
        row.panics += 1;
        summary.quarantined += 1;
        obs.trace.emit(
            "proof_quarantined",
            vec![
                ("rep", Json::U64(rep.index() as u64)),
                ("cand", Json::U64(cand.index() as u64)),
                ("message", Json::Str(message.clone())),
            ],
        );
        return;
    }
    let timeout = u64::from(out.verdict == Verdict::Undecided);
    summary.proofs += 1;
    row.proofs += 1;
    summary.conflicts += out.conflicts;
    row.conflicts += out.conflicts;
    summary.timeouts += timeout;
    row.timeouts += timeout;
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
}

/// Renders a caught panic payload as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
    /// for which `trigger` returns true panics inside its proof. The
    /// sweep must quarantine it and finish.
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

    /// The sweep's one panic boundary. Everything a job runs for one
    /// pair — the fault plan, the panic trigger, the prover build and
    /// the proof — runs under `catch_unwind`, so a panic quarantines
    /// only its own pair. It also drops the state the panic may have
    /// left half-built: the region solver (the job's next pair
    /// rebuilds it from seeds plus proven list) and the worker's BDD
    /// engine (a pure function of the network and node limit, so
    /// rebuilding it changes no answer).
    fn prove_isolated<'n>(
        &self,
        state: &mut WorkerState<'n>,
        region: &mut RegionSolver<'n, '_>,
        (job_index, a, b): (usize, NodeId, NodeId),
        want_proof: bool,
    ) -> PairOutcome {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            if let Some(plan) = self.fault_plan {
                match plan.action(job_index) {
                    FaultAction::Panic => panic!("injected fault: panic on job {job_index}"),
                    // A stall must not change the result, only its
                    // timing.
                    FaultAction::Stall(d) => std::thread::sleep(d),
                    FaultAction::SpuriousUnknown => {
                        return PairOutcome::engine_only(Verdict::Undecided, state.worker)
                    }
                    FaultAction::None => {}
                }
            }
            #[cfg(not(feature = "fault-inject"))]
            let _ = job_index;
            if self.panic_on.is_some_and(|trigger| trigger(a, b)) {
                panic!("injected prover panic on pair ({a}, {b})");
            }
            state.prove_pair(region, a, b, &self.config, want_proof)
        }));
        attempt.unwrap_or_else(|payload| {
            region.prover = None;
            state.bdd = None;
            PairOutcome {
                panic: Some(panic_message(payload.as_ref())),
                ..PairOutcome::engine_only(Verdict::Panicked, state.worker)
            }
        })
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
        let SimPhases {
            mut stats,
            mut patterns,
            mut sim,
            classes,
        } = run_sim_phases(cfg, net, generator, deadline, obs);
        let cost_after_sim = classes.cost();

        let mut state = RoundState::default();
        let mut mem_exhausted = false;
        if cfg.run_sat {
            let progress = Progress::default();
            let _watchdog = spawn_watchdog(cfg, deadline, &progress, &obs.trace);
            let sat_start = obs.recorder.is_enabled().then(Instant::now);
            let resim_before = stats.resim_time;
            let mut sweep_cache = cache.map(|c| crate::cache::SweepCache::new(c, cfg.certify));
            let want_proof = cache.is_some() && cfg.certify;
            // Fanin-region partition, computed once per sweep:
            // incremental mode dispatches each round's pairs grouped
            // by region so the group shares one scoped solver.
            let mut regions = RegionMap::new(net);
            state.work = classes.classes().to_vec();
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
            let mut replay: VecDeque<RoundRecord> = match journal.as_deref_mut() {
                Some(j) => {
                    j.begin(&sweep_fingerprint(net, cfg));
                    j.rounds().to_vec().into()
                }
                None => VecDeque::new(),
            };
            let mut replayed_rounds = 0usize;
            let mut governor = crate::govern::MemoryGovernor::new(cfg.mem_budget);
            loop {
                // One round: every (rep, candidate) pair of every
                // surviving class, shallowest candidates first (the
                // fraig induction order: deep pairs then reuse the
                // equivalences already proven in their fanin cones).
                let mut pairs: Vec<(NodeId, NodeId)> = state
                    .work
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
                        for p in &record.pairs {
                            let (rep, cand) =
                                (NodeId::from_index(p.rep), NodeId::from_index(p.cand));
                            state.apply(rep, cand, &p.verdict, generator);
                        }
                        next_job_index += record.dispatched as usize;
                        state.end_round(net, &mut patterns, &mut sim, &mut stats, obs);
                        replayed_rounds += 1;
                        // Restore the barrier's cumulative snapshots:
                        // from here the observable state is identical
                        // to the original run's at this point.
                        record.stats.restore(&mut stats, &mut summary);
                        restore_counters(obs, &record.counters);
                        obs.trace
                            .emit("round_replayed", vec![("round", Json::U64(record.round))]);
                        if record.class_sig != class_signature(&state.work) {
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
                    state.interrupted = true;
                    obs.recorder.add(Counter::DeadlineTrips, 1);
                    obs.trace.emit(
                        "sweep_deadline_expired",
                        vec![("unresolved", Json::U64(pairs.len() as u64))],
                    );
                    stats.aborted += pairs.len() as u64;
                    state.unresolved.extend(pairs);
                    break;
                }
                summary.rounds += 1;
                obs.trace.emit(
                    "round_start",
                    vec![
                        ("round", Json::U64(summary.rounds)),
                        ("pairs", Json::U64(pairs.len() as u64)),
                    ],
                );

                // Orchestrator-side cache pass, in pair order: pairs a
                // trusted entry answers skip dispatch entirely; the
                // rest go to the workers. Lookup order (and hence
                // the cache counters) never depends on scheduling.
                let resolutions: Vec<Option<Verdict>> = match sweep_cache.as_mut() {
                    Some(sc) => pairs
                        .iter()
                        .map(|&(a, b)| sc.resolve(net, a, b, obs))
                        .collect(),
                    None => vec![None; pairs.len()],
                };

                // Jobs carry their global input-order index so fault
                // plans key on *which pair* is proven, never on
                // scheduling.
                let round_base = next_job_index;
                let indexed: Vec<(usize, NodeId, NodeId)> = pairs
                    .iter()
                    .zip(&resolutions)
                    .filter(|(_, cached)| cached.is_none())
                    .enumerate()
                    .map(|(i, (&(a, b), _))| (round_base + i, a, b))
                    .collect();
                next_job_index += indexed.len();
                // Incremental mode dispatches one job per fanin
                // region (its pairs share a scoped solver, serially,
                // in global pair order); cold mode one job per pair,
                // seeded with the earlier-round equalities inside the
                // pair's cones. Either way the grouping is a pure
                // function of the pair list, never of scheduling.
                let seeds = &state.seeds;
                let mut region_jobs: Vec<RegionJob> = Vec::new();
                if cfg.engine.incremental {
                    let mut slot_of: HashMap<usize, usize> = HashMap::new();
                    for &(ji, a, b) in &indexed {
                        let key = regions.key(a, b);
                        let slot = *slot_of.entry(key).or_insert_with(|| {
                            let seeds = seeds
                                .iter()
                                .copied()
                                .filter(|&(x, y)| regions.key(x, y) == key)
                                .collect();
                            region_jobs.push(RegionJob {
                                seeds,
                                pairs: Vec::new(),
                            });
                            region_jobs.len() - 1
                        });
                        region_jobs[slot].pairs.push((ji, a, b));
                    }
                } else {
                    region_jobs = indexed
                        .iter()
                        .map(|&(ji, a, b)| {
                            let cone = cone_union(net, a, b);
                            RegionJob {
                                seeds: seeds
                                    .iter()
                                    .copied()
                                    .filter(|(x, y)| cone.contains(x) && cone.contains(y))
                                    .collect(),
                                pairs: vec![(ji, a, b)],
                            }
                        })
                        .collect();
                }
                let recorder = &obs.recorder;
                let outcome = run_ordered(
                    jobs,
                    region_jobs,
                    Some(deadline),
                    &obs.trace,
                    |worker| WorkerState::new(net, worker, deadline.clone(), recorder.local()),
                    |worker, job: &RegionJob| {
                        // The job's shared prover. Its rebuilds — after
                        // a caught panic or past the bloat policy — are
                        // deterministic: same seeds, same proven pairs,
                        // same remaining pairs, any jobs value.
                        let mut region = RegionSolver::new(&job.seeds);
                        job.pairs
                            .iter()
                            .map(|&pair| {
                                let out =
                                    self.prove_isolated(worker, &mut region, pair, want_proof);
                                progress.tick();
                                (pair.0, out)
                            })
                            .collect::<Vec<_>>()
                    },
                );
                // Round barrier: merge the workers' CPU spans (sum is
                // order-independent). A worker's row is booked below,
                // from the outcomes it produced.
                obs.recorder
                    .merge(outcome.workers.iter().map(|r| &r.state.local));
                // Per-pair slots keyed by global pair index: a region
                // job returns its pairs grouped, not in global pair
                // order. `None` = never started (deadline skip).
                let mut slots: Vec<Option<PairOutcome>> =
                    (0..indexed.len()).map(|_| None).collect();
                for (ji, out) in outcome.results.into_iter().flatten().flatten() {
                    slots[ji - round_base] = Some(out);
                }

                // Merge in pair order — the only order-sensitive step,
                // and it only depends on the (deterministic) results.
                let mut round_log: Vec<PairRecord> = Vec::new();
                let mut slots = slots.into_iter();
                for ((rep, cand), cached) in pairs.into_iter().zip(resolutions) {
                    let live = cached.is_none();
                    let mut proof = None;
                    let verdict = match cached {
                        // Trusted cache hits were never dispatched and
                        // book no dispatch counters.
                        Some(verdict) => verdict,
                        None => match slots.next().expect("one slot per dispatched pair") {
                            Some(out) => {
                                book_dispatched(&out, (rep, cand), &mut stats, &mut summary, obs);
                                proof = out.proof;
                                out.verdict
                            }
                            None => {
                                summary.quarantined += 1;
                                obs.recorder.add(Counter::ProofsSkipped, 1);
                                Verdict::Skipped
                            }
                        },
                    };
                    if obs.trace.is_enabled() {
                        obs.trace.emit(
                            "proof",
                            vec![
                                ("rep", Json::U64(rep.index() as u64)),
                                ("cand", Json::U64(cand.index() as u64)),
                                ("verdict", Json::Str(verdict.name().to_string())),
                            ],
                        );
                    }
                    if live {
                        // Publish fresh facts; cache hits are stored
                        // already.
                        if let Some(sc) = sweep_cache.as_mut() {
                            sc.store(net, rep, cand, &verdict, proof, obs);
                        }
                        if cfg.certify {
                            count_certification(&verdict, obs);
                        }
                    }
                    match verdict {
                        Verdict::Equivalent => stats.proved_equivalent += 1,
                        Verdict::Counterexample(_) => stats.disproved += 1,
                        // Panicked and skipped pairs count as undecided
                        // too.
                        Verdict::Undecided | Verdict::Panicked | Verdict::Skipped => {
                            stats.aborted += 1;
                            obs.recorder.add(Counter::ProofsUndecided, 1);
                        }
                        Verdict::CertificationFailed { .. } => {
                            stats.certification_failures += 1;
                            stats.aborted += 1;
                            summary.quarantined += 1;
                            obs.trace.emit(
                                "certification_failed",
                                vec![
                                    ("rep", Json::U64(rep.index() as u64)),
                                    ("cand", Json::U64(cand.index() as u64)),
                                ],
                            );
                        }
                    }
                    state.apply(rep, cand, &verdict, generator);
                    if journal.is_some() {
                        round_log.push(PairRecord {
                            rep: rep.index(),
                            cand: cand.index(),
                            verdict,
                        });
                    }
                }
                state.end_round(net, &mut patterns, &mut sim, &mut stats, obs);
                // Round barrier durability point: everything merged
                // above survives a crash from here on.
                if let Some(j) = journal.as_deref_mut() {
                    j.commit_round(&RoundRecord {
                        round: summary.rounds,
                        pairs: round_log,
                        dispatched: indexed.len() as u64,
                        class_sig: class_signature(&state.work),
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
        }
        stats.exec = sim.exec_stats();
        stats.pool = sim.pool_stats();

        SweepReport {
            stats,
            cost_after_sim,
            proven_classes: state.merged,
            unresolved: state.unresolved,
            quarantined: state.quarantined,
            interrupted: state.interrupted || deadline.expired(),
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
                sat_budget: Some(1_000),
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
    fn bdd_first_rescues_a_pair_the_sat_budget_cannot_prove() {
        // A pair of reassociated xor trees: SAT at a budget of one
        // conflict cannot prove it, the BDD engine tried first can.
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
        let run = |mode: EngineMode| {
            let cfg = SweepConfig {
                jobs: 2,
                random_batch: 64,
                guided_iterations: 2,
                sat_budget: Some(1),
                engine: EnginePolicy {
                    mode,
                    ..EnginePolicy::default()
                },
                ..SweepConfig::default()
            };
            let mut g = SimGen::new(SimGenConfig::default());
            Sweeper::new(cfg).run(&net, &mut g, &mut RunContext::default())
        };
        let sat = run(EngineMode::Sat);
        // The xor pair survives simulation (equivalent functions) and
        // must end up unresolved under SAT alone...
        assert!(sat
            .unresolved
            .iter()
            .any(|&(a, b)| (a, b) == (l, r) || (a, b) == (r, l)));
        // ...and proven by BDD first.
        let bdd_first = run(EngineMode::BddFirst);
        assert!(bdd_first
            .proven_classes
            .iter()
            .any(|c| c.contains(&l) && c.contains(&r)));
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
    fn dispatch_totals_are_jobs_invariant_under_panics() {
        // A caught panic drops its job's solver and its worker's BDD
        // engine; the merge-side totals must still account for every
        // completed job, for any jobs value.
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

    /// `x1`/`y1`: XOR chains over the same eight PIs, in opposite
    /// orders, so no inner node of one matches one of the other — a
    /// pair CDCL needs real search to prove. With `deep`, also
    /// `x2 = x1 ∧ p` and `y2 = y1 ∧ p` over a ninth PI: given
    /// `x1 ≡ y1`, a pair that needs next to no search. The deep nodes
    /// come last, so the shallow pair's cones, encoding and proof are
    /// the same with or without them.
    fn shallow_deep_net(deep: bool) -> LutNetwork {
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..8).map(|i| net.add_pi(format!("p{i}"))).collect();
        let xor = |net: &mut LutNetwork, a: NodeId, b: NodeId| {
            net.add_lut(vec![a, b], TruthTable::xor2()).unwrap()
        };
        let x1 = pis[1..]
            .iter()
            .fold(pis[0], |acc, &p| xor(&mut net, acc, p));
        let y1 = pis[..7]
            .iter()
            .rev()
            .fold(pis[7], |acc, &p| xor(&mut net, acc, p));
        net.add_po(x1, "x1");
        net.add_po(y1, "y1");
        if deep {
            let p = net.add_pi("p");
            let x2 = net.add_lut(vec![x1, p], TruthTable::and2()).unwrap();
            let y2 = net.add_lut(vec![y1, p], TruthTable::and2()).unwrap();
            net.add_po(x2, "x2");
            net.add_po(y2, "y2");
        }
        net
    }

    #[test]
    fn a_region_job_asserts_each_proven_equality_before_its_next_pair() {
        // One round, one region job: the shallow pair first, then the
        // deep one. The deep pair's own conflicts are the difference
        // to a sweep of the shallow pair alone. With `x1 ≡ y1` already
        // asserted they are a constant handful — an Unsat answer under
        // the scope's assumption takes at least one — where re-deriving
        // the XOR equivalence costs a good share of the shallow proof.
        // Under `rebuild_bloat: 1` the solver is rebuilt between the
        // two pairs, and the rebuilt solver must still hold the
        // equality.
        for rebuild_bloat in [0u32, 1] {
            for jobs in [1usize, 2] {
                let cfg = SweepConfig {
                    jobs,
                    engine: EnginePolicy {
                        rebuild_bloat,
                        ..EnginePolicy::default()
                    },
                    ..SweepConfig::default()
                };
                let (shallow, _) = observed(&shallow_deep_net(false), cfg);
                let (both, obs) = observed(&shallow_deep_net(true), cfg);
                let tag = format!("rebuild_bloat={rebuild_bloat} jobs={jobs}");
                assert_eq!(shallow.stats.sat_calls, 1, "{tag}");
                assert_eq!(both.stats.sat_calls, 2, "{tag}");
                assert_eq!(both.stats.proved_equivalent, 2, "{tag}");
                assert_eq!(both.stats.dispatch.as_ref().unwrap().rounds, 1, "{tag}");
                assert_eq!(
                    obs.recorder.get(Counter::SolverRebuilds),
                    u64::from(rebuild_bloat),
                    "{tag}"
                );
                let shallow_conflicts = shallow.stats.solver.conflicts;
                let deep_conflicts = both.stats.solver.conflicts - shallow_conflicts;
                assert!(shallow_conflicts > 8, "{tag}: the XOR pair needs search");
                assert!(
                    deep_conflicts <= 3,
                    "{tag}: the deep pair spent {deep_conflicts} conflicts \
                     (the shallow one {shallow_conflicts})"
                );
            }
        }
    }
    #[test]
    fn worker_rows_partition_the_dispatch_totals() {
        // The per-worker rows split the dispatch totals: booked from
        // each outcome's worker, they add up for every jobs value,
        // caught panics included. A one-conflict budget makes the
        // conflict and timeout columns nonzero too.
        let net = workload_net(19);
        for jobs in [1usize, 2, 4] {
            for inject in [false, true] {
                let cfg = SweepConfig {
                    jobs,
                    seed: 19,
                    sat_budget: Some(1),
                    ..SweepConfig::default()
                };
                let mut g = SimGen::new(SimGenConfig::default().with_seed(19));
                let mut sweeper = Sweeper::new(cfg);
                if inject {
                    sweeper = sweeper.with_panic_injection(|_, cand| cand.index() % 3 == 0);
                }
                let r = sweeper.run(&net, &mut g, &mut RunContext::default());
                let d = r.stats.dispatch.as_ref().unwrap();
                let tag = format!("jobs={jobs} inject={inject}");
                assert_eq!(d.workers.len(), jobs, "{tag}");
                assert!(d.proofs > 0 && d.conflicts > 0 && d.timeouts > 0, "{tag}");
                assert_eq!(d.panics > 0, inject, "{tag}");
                let sum =
                    |column: fn(&WorkerSummary) -> u64| d.workers.iter().map(column).sum::<u64>();
                assert_eq!(sum(|w| w.proofs), d.proofs, "{tag}: proofs");
                assert_eq!(sum(|w| w.conflicts), d.conflicts, "{tag}: conflicts");
                assert_eq!(sum(|w| w.timeouts), d.timeouts, "{tag}: timeouts");
                assert_eq!(sum(|w| w.panics), d.panics, "{tag}: panics");
            }
        }
    }
}
