//! Sweep configuration, the per-run [`RunContext`], the report type,
//! and the simulation half of the sweep (random simulation → guided
//! pattern generation, plus the batched counterexample resimulation
//! the resolution rounds feed back into). The resolution phase itself
//! is [`crate::Sweeper`].

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use simgen_cache::ProofCache;
use simgen_core::PatternGenerator;
use simgen_dispatch::{Deadline, EnginePolicy, Progress, Watchdog};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{Counter, Json, Observer, Phase, Trace};
use simgen_sim::{EquivClasses, PatternSet, SimResult};

use crate::journal::SweepJournal;
use crate::stats::{IterationRecord, SweepStats};

/// Sweep parameters (defaults follow the paper's Section 6.1 setup:
/// one round of random simulation, then 20 guided iterations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Random vectors of the one round of random simulation that opens
    /// every sweep (64 = one machine word).
    pub random_batch: usize,
    /// Guided-generator iterations.
    pub guided_iterations: usize,
    /// Conflict budget per SAT call (`None` = unbounded).
    pub sat_budget: Option<u64>,
    /// Whether to run the SAT resolution phase at all (the cost/
    /// runtime experiments of Section 6.2 stop after simulation).
    pub run_sat: bool,
    /// Seed for the random-simulation RNG.
    pub seed: u64,
    /// Most threads a resolution round runs its jobs on (one job per
    /// fanin region, or per pair under `--no-incremental`). `1` runs
    /// every round inline on the calling thread; any value yields the
    /// same report. Simulation always runs on the calling thread.
    pub jobs: usize,
    /// Per-pair stall threshold: when no pair resolves for this long,
    /// the watchdog interrupts whatever is in flight (the stuck pair
    /// ends `Undecided`) and the sweep moves on. `None` disables
    /// stall detection.
    pub stall: Option<Duration>,
    /// Trust-but-verify mode: every `Equivalent` answer must carry a
    /// DRAT certificate the independent checker accepts, and every
    /// counterexample must replay through the scalar reference
    /// evaluator. Failed checks quarantine the pair (counted in
    /// [`SweepStats::certification_failures`](crate::SweepStats)).
    /// Since BDD answers carry no DRAT proof, certification forces
    /// the SAT engine.
    pub certify: bool,
    /// Per-pair engine-selection policy: which engines a pair visits
    /// ([`simgen_dispatch::EngineMode`] — the paper's "BDD or SAT"
    /// choice) and whether SAT queries run against one long-lived
    /// assumption-scoped solver per fanin region (`incremental`, the
    /// default) or a cold solver per pair.
    pub engine: EnginePolicy,
    /// Memory budget in bytes for the sweep's dominant allocations
    /// (clause databases, lane tables, proof logs). When the
    /// [`crate::govern::MemoryGovernor`] estimate crosses the budget,
    /// the sweep trips its own deadline and the run ends
    /// `ResourceExhausted` instead of growing toward an OOM kill.
    /// Non-semantic: excluded from the journal fingerprint and the
    /// proof-cache configuration, like deadlines. `None` disables
    /// accounting.
    pub mem_budget: Option<u64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            random_batch: 64,
            guided_iterations: 20,
            sat_budget: Some(100_000),
            run_sat: true,
            seed: 0xC1C,
            jobs: 1,
            stall: None,
            certify: false,
            engine: EnginePolicy::default(),
            mem_budget: None,
        }
    }
}

/// Everything a sweep run produces.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Collected metrics.
    pub stats: SweepStats,
    /// Class cost (Equation 5) after the simulation phase, before SAT.
    pub cost_after_sim: u64,
    /// Groups of nodes proven functionally equivalent by SAT.
    pub proven_classes: Vec<Vec<NodeId>>,
    /// Pairs no prover resolved — budget exhausted, deadline expired,
    /// or quarantined. Every entry also appears in the per-cause
    /// breakdowns; none of them is ever merged, which is what keeps
    /// partial results sound.
    pub unresolved: Vec<(NodeId, NodeId)>,
    /// The subset of [`SweepReport::unresolved`] that was quarantined
    /// because its proof could not be trusted: the prover panicked
    /// (caught on the worker, never fatal to the sweep) or
    /// certification rejected the engine's answer.
    pub quarantined: Vec<(NodeId, NodeId)>,
    /// True when the deadline expired (or was tripped) before the
    /// sweep finished; the report is then a sound partial result.
    pub interrupted: bool,
    /// True when the interruption was the sweep's own
    /// [`SweepConfig::mem_budget`] governor rather than an external
    /// deadline: the estimated resident footprint crossed the budget
    /// and the run shed its remaining work instead of growing.
    pub mem_exhausted: bool,
    /// All simulation patterns accumulated during the sweep.
    pub patterns: PatternSet,
}

/// What a run needs from its caller besides the design, the
/// generator and the configuration: the wall-clock budget, the
/// instrumentation sink, and the two persistence layers.
/// [`RunContext::default`] is a plain in-memory run — no deadline,
/// observer disabled, no proof cache, no journal.
///
/// The observer is owned: a caller reads it back from `ctx.obs` after
/// the run to build its report. The deadline is a handle, so a caller
/// that keeps a clone shares its trip flag with the run.
pub struct RunContext<'a> {
    /// Wall-clock budget for the whole run. When it expires (or is
    /// tripped), in-flight proofs are interrupted, pairs not yet
    /// started are skipped, and everything unproven is reported
    /// unresolved — a sound partial result. A run that finishes in
    /// time reports exactly what an undeadlined run would.
    pub deadline: Deadline,
    /// Instrumentation: per-phase timings and counters land in
    /// `obs.recorder`, decision-level events (proof outcomes, flushes,
    /// deadline trips) in `obs.trace`. With [`Observer::disabled`]
    /// every instrumentation site is a branch over a dead flag.
    pub obs: Observer,
    /// Content-addressed proof cache consulted before any SAT work,
    /// on the orchestrating thread in deterministic pair order; live
    /// verdicts are stored back (see [`crate::cache`] for the trust
    /// policy).
    pub cache: Option<&'a ProofCache>,
    /// Write-ahead journal: every round barrier commits the round's
    /// verdicts, and a journal opened in resume mode replays its
    /// validated rounds instead of re-proving them (see
    /// [`crate::journal`]).
    pub journal: Option<&'a mut SweepJournal>,
}

impl Default for RunContext<'_> {
    fn default() -> Self {
        RunContext {
            deadline: Deadline::never(),
            obs: Observer::disabled(),
            cache: None,
            journal: None,
        }
    }
}

/// Spawns the watchdog for a proof phase when there is anything for
/// it to watch: a finite deadline (trip the flag the moment it
/// passes) or a stall threshold (trip when `progress` stops moving).
/// Watchdog trips and recoveries land in `trace`.
pub(crate) fn spawn_watchdog(
    cfg: &SweepConfig,
    deadline: &Deadline,
    progress: &Progress,
    trace: &Trace,
) -> Option<Watchdog> {
    if !deadline.is_finite() && cfg.stall.is_none() {
        return None;
    }
    Some(Watchdog::spawn_traced(
        deadline.clone(),
        cfg.stall.map(|window| (progress.clone(), window)),
        trace.clone(),
    ))
}

/// Output of the simulation half of a sweep (phases 1–2 of the
/// paper's Figure 2).
pub(crate) struct SimPhases {
    /// Stats with the simulation history filled in.
    pub stats: SweepStats,
    /// Patterns accumulated so far (random + guided).
    pub patterns: PatternSet,
    /// Incremental simulation of `patterns`.
    pub sim: SimResult,
    /// Equivalence classes after refinement.
    pub classes: EquivClasses,
}

/// Phases 1–2: one round of random simulation, then guided iterations.
///
/// The deadline is polled between guided iterations (the only
/// unbounded part); the mandatory random round always runs so the
/// equivalence classes exist. Because the check sits on iteration
/// boundaries and the phases are single-threaded, an expired deadline
/// truncates the history identically for every `jobs` value.
pub(crate) fn run_sim_phases(
    cfg: &SweepConfig,
    net: &LutNetwork,
    generator: &mut dyn PatternGenerator,
    deadline: &Deadline,
    obs: &mut Observer,
) -> SimPhases {
    let mut stats = SweepStats::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut iteration = 0usize;

    // Phase 1: one round of random simulation.
    let t = Instant::now();
    let mut patterns = PatternSet::random(net.num_pis(), cfg.random_batch, &mut rng);
    // Simulated incrementally so later single-vector pushes stay
    // O(nodes) instead of re-running the whole accumulated set.
    let compile_start = obs.recorder.is_enabled().then(Instant::now);
    let mut sim = SimResult::empty(net);
    let compile_time = compile_start.map(|s| s.elapsed()).unwrap_or_default();
    obs.recorder.add_wall(Phase::KernelCompile, compile_time);
    obs.recorder.add_cpu(Phase::KernelCompile, compile_time);
    let kernel = sim.kernel().summary();
    stats.kernel = Some(kernel);
    obs.trace.emit(
        "kernel_compile",
        vec![
            ("nodes", Json::U64(kernel.nodes)),
            ("fused", Json::U64(kernel.fused)),
            ("tape_nodes", Json::U64(kernel.tape_nodes)),
            ("tape_ops", Json::U64(kernel.tape_ops)),
        ],
    );
    sim.extend_patterns(net, &patterns);
    generator.observe_simulation(&sim);
    let mut classes = EquivClasses::initial(net, &sim);
    let sim_time = t.elapsed();
    stats.sim_time += sim_time;
    obs.recorder
        .add_wall(Phase::RandomSim, sim_time.saturating_sub(compile_time));
    obs.recorder
        .add_cpu(Phase::RandomSim, sim_time.saturating_sub(compile_time));
    stats.history.push(IterationRecord {
        iteration,
        cost: classes.cost(),
        vectors: patterns.num_patterns(),
        gen_time: std::time::Duration::ZERO,
        sim_time,
    });
    iteration += 1;

    // Phase 2: guided iterations. One scalar-evaluation scratch
    // buffer serves every pushed vector.
    let mut scratch: Vec<bool> = Vec::new();
    for _ in 0..cfg.guided_iterations {
        if deadline.expired() {
            obs.recorder.add(Counter::DeadlineTrips, 1);
            obs.trace.emit(
                "sim_deadline_expired",
                vec![("iteration", Json::U64(iteration as u64))],
            );
            break;
        }
        let t = Instant::now();
        let vectors = generator.generate(net, &classes);
        let gen_time = t.elapsed();
        stats.gen_time += gen_time;
        let t = Instant::now();
        if !vectors.is_empty() {
            for v in &vectors {
                patterns.push(v);
                sim.push_pattern_with(net, v, &mut scratch);
            }
            generator.observe_simulation(&sim);
            classes.refine(&sim);
        }
        let sim_time = t.elapsed();
        stats.sim_time += sim_time;
        let cost = classes.cost();
        obs.recorder.add_wall(Phase::GuidedGen, gen_time);
        obs.recorder.add_cpu(Phase::GuidedGen, gen_time);
        obs.recorder.add_wall(Phase::GuidedSim, sim_time);
        obs.recorder.add_cpu(Phase::GuidedSim, sim_time);
        obs.trace.emit(
            "guided_iteration",
            vec![
                ("iteration", Json::U64(iteration as u64)),
                ("vectors", Json::U64(vectors.len() as u64)),
                ("cost", Json::U64(cost)),
            ],
        );
        stats.history.push(IterationRecord {
            iteration,
            cost,
            vectors: vectors.len(),
            gen_time,
            sim_time,
        });
        iteration += 1;
    }

    SimPhases {
        stats,
        patterns,
        sim,
        classes,
    }
}

/// Flushes buffered counterexamples through one word-parallel,
/// *cone-restricted* resimulation and re-partitions the working
/// classes (with the benched candidates folded back in) by the
/// updated signatures.
///
/// Only the union of fanin cones of the still-compared nodes — the
/// surviving class members plus the benched candidates, exactly the
/// nodes whose signatures the partition below reads — gets new lane
/// words; everything already resolved to a singleton keeps its stale
/// (shorter) lanes and is never compared again. `benched` entries are
/// `(candidate, origin rep)` pairs: the rep of the class the
/// candidate was disproved out of, which keys the delta partition.
///
/// Returns the refined working classes. `pending` and `benched` are
/// drained.
pub(crate) fn flush_counterexamples(
    net: &LutNetwork,
    patterns: &mut PatternSet,
    sim: &mut SimResult,
    work: Vec<Vec<NodeId>>,
    pending: &mut Vec<Vec<bool>>,
    benched: &mut Vec<(NodeId, NodeId)>,
    obs: &mut Observer,
) -> Vec<Vec<NodeId>> {
    let resim_start = obs.recorder.is_enabled().then(Instant::now);
    obs.recorder.add(Counter::ResimFlushes, 1);
    let first_new = sim.num_patterns();
    let block = PatternSet::from_vectors(net.num_pis(), pending);
    pending.clear();
    patterns.extend(&block);
    let roots: Vec<NodeId> = work
        .iter()
        .flatten()
        .copied()
        .chain(benched.iter().map(|&(cand, _)| cand))
        .collect();
    obs.trace.emit(
        "cex_flush",
        vec![
            ("patterns", Json::U64(block.num_patterns() as u64)),
            ("roots", Json::U64(roots.len() as u64)),
        ],
    );
    sim.extend_patterns_cone(net, &block, &roots);

    // Delta partition keyed on (origin class rep, newly appended
    // signature words). Exact, because simulation only advances at
    // flushes: every current and benched member of one class agrees
    // on all pre-flush patterns, while distinct classes already
    // differ on one — so grouping by origin plus the new words equals
    // the full-signature partition at O(new words) per node. It can
    // only split classes (and slot each benched candidate back beside
    // whichever former classmates it still matches), never merge.
    let from = first_new / 64;
    let sim_ref: &SimResult = sim;
    let mut index: std::collections::HashMap<(NodeId, &[u64]), usize> =
        std::collections::HashMap::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut slot = |origin: NodeId, n: NodeId, groups: &mut Vec<Vec<NodeId>>| {
        let sig = sim_ref.signature(n);
        let gi = *index
            .entry((origin, &sig[from.min(sig.len())..]))
            .or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
        groups[gi].push(n);
    };
    for class in &work {
        let origin = class[0];
        for &n in class {
            slot(origin, n, &mut groups);
        }
    }
    for &(cand, origin) in benched.iter() {
        slot(origin, cand, &mut groups);
    }
    benched.clear();
    groups.retain(|g| g.len() >= 2);
    if let Some(start) = resim_start {
        let elapsed = start.elapsed();
        obs.recorder.add_wall(Phase::CexResim, elapsed);
        obs.recorder.add_cpu(Phase::CexResim, elapsed);
    }
    groups
}

/// Partitions nodes into groups of identical full signatures,
/// preserving first-seen order; singleton groups are dropped. Kept as
/// the reference the delta partition in [`flush_counterexamples`] is
/// checked against.
#[cfg(test)]
pub(crate) fn partition_by_signature(nodes: &[NodeId], sim: &SimResult) -> Vec<Vec<NodeId>> {
    let mut index: std::collections::HashMap<&[u64], usize> = std::collections::HashMap::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for &n in nodes {
        let gi = *index.entry(sim.signature(n)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push(n);
    }
    groups.retain(|g| g.len() >= 2);
    groups
}

/// Adds `cand` to the proven group containing `rep`, or starts a new
/// group.
pub(crate) fn record_merge(groups: &mut Vec<Vec<NodeId>>, rep: NodeId, cand: NodeId) {
    for g in groups.iter_mut() {
        if g.contains(&rep) {
            g.push(cand);
            return;
        }
    }
    groups.push(vec![rep, cand]);
}

/// Re-partitions working classes by the latest signatures, dropping
/// singletons. Kept as the reference implementation that
/// [`partition_by_signature`] is checked against.
#[cfg(test)]
fn refine_groups(groups: Vec<Vec<NodeId>>, sim: &SimResult) -> Vec<Vec<NodeId>> {
    let mut out = Vec::with_capacity(groups.len());
    for g in groups {
        let mut sub: Vec<Vec<NodeId>> = Vec::new();
        'node: for n in g {
            for s in sub.iter_mut() {
                if sim.same_signature(s[0], n) {
                    s.push(n);
                    continue 'node;
                }
            }
            sub.push(vec![n]);
        }
        out.extend(sub.into_iter().filter(|s| s.len() > 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweeper;
    use simgen_core::{RandomPatterns, RevSim, SimGen, SimGenConfig};
    use simgen_dispatch::EngineMode;
    use simgen_netlist::TruthTable;

    /// Runs a plain in-memory sweep (the [`RunContext::default`] run).
    fn sweep(cfg: SweepConfig, net: &LutNetwork, gen: &mut dyn PatternGenerator) -> SweepReport {
        Sweeper::new(cfg).run(net, gen, &mut RunContext::default())
    }

    /// The BDD-only engine with room for every test network's BDDs.
    fn bdd_only(bdd_node_limit: usize) -> SweepConfig {
        SweepConfig {
            engine: EnginePolicy {
                mode: EngineMode::BddOnly,
                bdd_node_limit,
                ..EnginePolicy::default()
            },
            ..SweepConfig::default()
        }
    }

    /// Builds a network with three provably-equivalent AND variants
    /// plus assorted distinct logic.
    fn redundant_net() -> (LutNetwork, Vec<NodeId>) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let and1 = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let and2 = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        let na = net.add_lut(vec![a], TruthTable::not1()).unwrap();
        let nb = net.add_lut(vec![b], TruthTable::not1()).unwrap();
        let nor = net.add_lut(vec![na, nb], TruthTable::or2()).unwrap();
        let and3 = net.add_lut(vec![nor], TruthTable::not1()).unwrap();
        let o = net.add_lut(vec![and1, c], TruthTable::or2()).unwrap();
        net.add_po(o, "f");
        net.add_po(and2, "g");
        net.add_po(and3, "h");
        (net, vec![and1, and2, and3])
    }

    #[test]
    fn proves_redundant_ands_equivalent() {
        let (net, ands) = redundant_net();
        let mut gen = SimGen::new(SimGenConfig::default());
        let report = sweep(SweepConfig::default(), &net, &mut gen);
        // All three ANDs end up in one proven class.
        let class = report
            .proven_classes
            .iter()
            .find(|g| g.contains(&ands[0]))
            .expect("a proven class containing and1");
        for n in &ands {
            assert!(class.contains(n), "{n} proven equivalent");
        }
        assert!(report.stats.proved_equivalent >= 2);
        assert!(report.unresolved.is_empty());
    }

    #[test]
    fn certify_forces_sat_engine_over_bdd() {
        // BDD answers carry no DRAT proof, so a certified sweep must
        // route proofs through SAT — and still resolve everything.
        let (net, _) = redundant_net();
        let cfg = SweepConfig {
            certify: true,
            ..bdd_only(1 << 20)
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let report = sweep(cfg, &net, &mut gen);
        assert!(report.stats.proved_equivalent >= 2);
        assert_eq!(report.stats.certification_failures, 0);
        // SAT (not BDD) did the work, so proof clauses were recorded.
        assert!(report.stats.solver.proof_clauses > 0);
    }

    #[test]
    fn sat_phase_can_be_disabled() {
        let (net, _) = redundant_net();
        let mut gen = RandomPatterns::new(7, 64);
        let cfg = SweepConfig {
            run_sat: false,
            ..SweepConfig::default()
        };
        let report = sweep(cfg, &net, &mut gen);
        assert_eq!(report.stats.sat_calls, 0);
        assert!(report.proven_classes.is_empty());
        // But the simulation history is fully recorded.
        assert_eq!(report.stats.history.len(), 1 + cfg.guided_iterations);
    }

    #[test]
    fn counterexamples_separate_lookalikes() {
        // Two gates that agree on most inputs: nearly-equal functions
        // survive weak random simulation but SAT must split them.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        let f1 = net
            .add_lut(pis.clone(), TruthTable::from_fn(6, |m| m.count_ones() >= 3))
            .unwrap();
        let f2 = net
            .add_lut(
                pis.clone(),
                TruthTable::from_fn(6, |m| m.count_ones() >= 3 || m == 0b000011),
            )
            .unwrap();
        net.add_po(f1, "f1");
        net.add_po(f2, "f2");
        // Tiny random phase so the pair likely collides.
        let cfg = SweepConfig {
            random_batch: 2,
            guided_iterations: 0,
            ..SweepConfig::default()
        };
        let mut gen = RandomPatterns::new(1, 0);
        let report = sweep(cfg, &net, &mut gen);
        // Whether or not they collided initially, they must never be
        // proven equivalent.
        assert!(report
            .proven_classes
            .iter()
            .all(|g| !(g.contains(&f1) && g.contains(&f2))));
    }

    #[test]
    fn cost_history_is_monotone() {
        let (net, _) = redundant_net();
        for gen_fn in 0..3 {
            let mut gen: Box<dyn PatternGenerator> = match gen_fn {
                0 => Box::new(RandomPatterns::new(3, 8)),
                1 => Box::new(RevSim::new(3, 10)),
                _ => Box::new(SimGen::new(SimGenConfig::default().with_seed(3))),
            };
            let cfg = SweepConfig {
                random_batch: 4,
                ..SweepConfig::default()
            };
            let report = sweep(cfg, &net, gen.as_mut());
            let costs: Vec<u64> = report.stats.history.iter().map(|r| r.cost).collect();
            assert!(
                costs.windows(2).all(|w| w[1] <= w[0]),
                "cost must never increase: {costs:?}"
            );
        }
    }

    #[test]
    fn guided_strategies_reduce_cost_from_a_stuck_state() {
        // With exactly one all-false-ish random pattern the classes
        // are coarse; SimGen iterations must strictly improve cost.
        let (net, _) = redundant_net();
        let cfg = SweepConfig {
            random_batch: 1,
            guided_iterations: 10,
            run_sat: false,
            seed: 1,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(2));
        let report = sweep(cfg, &net, &mut gen);
        let first = report.stats.history.first().unwrap().cost;
        let last = report.stats.history.last().unwrap().cost;
        assert!(last <= first);
    }

    #[test]
    fn patterns_accumulate_across_phases() {
        let (net, _) = redundant_net();
        let mut gen = SimGen::new(SimGenConfig::default());
        let cfg = SweepConfig::default();
        let report = sweep(cfg, &net, &mut gen);
        assert!(report.patterns.num_patterns() >= cfg.random_batch);
    }

    #[test]
    fn bdd_engine_node_limit_reports_unresolved() {
        let (net, _) = redundant_net();
        let cfg = SweepConfig {
            random_batch: 1,
            ..bdd_only(1)
        };
        let mut g = SimGen::new(SimGenConfig::default());
        let r = sweep(cfg, &net, &mut g);
        assert_eq!(
            r.stats.proved_equivalent, 0,
            "nothing proven under a 1-node limit"
        );
        // Whatever survived simulation is now unresolved, not merged.
        assert_eq!(r.stats.aborted as usize, r.unresolved.len());
    }

    #[test]
    fn one_distance_generator_receives_counterexamples() {
        // A lookalike pair that initial random sim (tiny batch) is
        // unlikely to split forces SAT counterexamples, which must be
        // fed back to the generator.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        let f1 = net
            .add_lut(pis.clone(), TruthTable::from_fn(6, |m| m.count_ones() >= 3))
            .unwrap();
        let f2 = net
            .add_lut(
                pis.clone(),
                TruthTable::from_fn(6, |m| m.count_ones() >= 3 || m == 0b000011),
            )
            .unwrap();
        net.add_po(f1, "f1");
        net.add_po(f2, "f2");
        let cfg = SweepConfig {
            random_batch: 1,
            guided_iterations: 2,
            ..SweepConfig::default()
        };
        let mut gen = simgen_core::OneDistance::new(3, 2);
        let report = sweep(cfg, &net, &mut gen);
        if report.stats.disproved > 0 {
            assert!(
                gen.pool_len() > 0,
                "counterexamples must reach the generator"
            );
        }
    }

    #[test]
    fn finishing_under_deadline_matches_undeadlined_run() {
        // A generous deadline must not perturb the report.
        let (net, _) = redundant_net();
        let mut g1 = SimGen::new(SimGenConfig::default());
        let plain = sweep(SweepConfig::default(), &net, &mut g1);
        let mut g2 = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            deadline: Deadline::after(Duration::from_secs(3600)),
            ..RunContext::default()
        };
        let timed = Sweeper::new(SweepConfig::default()).run(&net, &mut g2, &mut ctx);
        assert!(!timed.interrupted);
        assert_eq!(timed.proven_classes, plain.proven_classes);
        assert_eq!(timed.unresolved, plain.unresolved);
        assert_eq!(timed.stats.proved_equivalent, plain.stats.proved_equivalent);
        assert_eq!(timed.stats.sat_calls, plain.stats.sat_calls);
    }

    #[test]
    fn refine_groups_splits_by_signature() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let x = net.add_lut(vec![a], TruthTable::buf1()).unwrap();
        let y = net.add_lut(vec![a], TruthTable::not1()).unwrap();
        let z = net.add_lut(vec![a], TruthTable::buf1()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        net.add_po(z, "z");
        let p = PatternSet::from_vectors(1, &[vec![true]]);
        let sim = simgen_sim::simulate(&net, &p);
        let groups = refine_groups(vec![vec![x, y, z]], &sim);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], vec![x, z]);
    }

    #[test]
    fn partition_by_signature_matches_refine_groups() {
        let (net, _) = redundant_net();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let p = PatternSet::random(net.num_pis(), 3, &mut rng);
        let sim = simgen_sim::simulate(&net, &p);
        let classes = EquivClasses::initial(&net, &sim);
        let groups = classes.classes().to_vec();
        let flat: Vec<NodeId> = groups.iter().flatten().copied().collect();
        assert_eq!(
            partition_by_signature(&flat, &sim),
            refine_groups(groups, &sim),
            "global partition must equal per-group refinement when \
             groups are signature classes"
        );
    }

    #[test]
    fn flush_delta_partition_matches_full_signature_partition() {
        // The cone-restricted, delta-keyed partition inside
        // `flush_counterexamples` must equal a from-scratch
        // full-signature partition of the same universe after a full
        // (all-node) resimulation.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..4).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut pool = pis.clone();
        for i in 0..40usize {
            let a = pool[i % pool.len()];
            let b = pool[(i * 7 + 1) % pool.len()];
            let tt = match i % 3 {
                0 => TruthTable::and2(),
                1 => TruthTable::or2(),
                _ => TruthTable::xor2(),
            };
            pool.push(net.add_lut(vec![a, b], tt).unwrap());
        }
        net.add_po(*pool.last().unwrap(), "f");

        // Two patterns leave plenty of multi-member classes.
        let mut patterns = PatternSet::random(net.num_pis(), 2, &mut rng);
        let mut sim = simgen_sim::simulate(&net, &patterns);
        let classes = EquivClasses::initial(&net, &sim);
        let mut work = classes.classes().to_vec();
        assert!(!work.is_empty(), "test net must leave collisions");
        // Bench the last member of every class, as a SAT disproof would.
        let mut benched_proto: Vec<(NodeId, NodeId)> = Vec::new();
        for class in &mut work {
            if class.len() > 2 {
                benched_proto.push((class.pop().unwrap(), class[0]));
            }
        }
        // 70 "counterexamples" crossing the 64-bit word boundary.
        let pending_proto: Vec<Vec<bool>> = (0..70usize)
            .map(|i| (0..4).map(|j| (i * 5 + j * 3) % 7 < 3).collect())
            .collect();

        // Reference: full resimulation of every node, then a plain
        // full-signature partition of the universe.
        let block = PatternSet::from_vectors(net.num_pis(), &pending_proto);
        let mut sim_full = sim.clone();
        sim_full.extend_patterns(&net, &block);
        let universe: Vec<NodeId> = work
            .iter()
            .flatten()
            .copied()
            .chain(benched_proto.iter().map(|&(c, _)| c))
            .collect();
        let expected = partition_by_signature(&universe, &sim_full);

        let mut pending = pending_proto;
        let mut benched = benched_proto;
        let got = flush_counterexamples(
            &net,
            &mut patterns,
            &mut sim,
            work,
            &mut pending,
            &mut benched,
            &mut Observer::disabled(),
        );
        assert_eq!(got, expected);
        assert!(pending.is_empty() && benched.is_empty());
        assert_eq!(patterns.num_patterns(), 72);
        // Universe signatures are fully extended and match the
        // all-node resimulation bit for bit.
        for &n in &universe {
            assert_eq!(sim.signature(n), sim_full.signature(n));
        }
    }

    #[test]
    fn flush_batches_counterexamples_into_words() {
        // A sweep that forces many SAT disproofs must still produce
        // sound results with batched resimulation, and the pattern set
        // must contain every counterexample it buffered.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..5).map(|i| net.add_pi(format!("p{i}"))).collect();
        // Many pairwise-distinct threshold-ish functions that collide
        // under a tiny random phase.
        let mut outs = Vec::new();
        for k in 0..8u64 {
            let f = net
                .add_lut(
                    pis.clone(),
                    TruthTable::from_fn(5, move |m| m.count_ones() >= 3 || m == k),
                )
                .unwrap();
            outs.push(f);
            net.add_po(f, format!("f{k}"));
        }
        let cfg = SweepConfig {
            random_batch: 1,
            guided_iterations: 0,
            ..SweepConfig::default()
        };
        let mut gen = RandomPatterns::new(1, 0);
        let report = sweep(cfg, &net, &mut gen);
        // No two of the distinct functions may be merged.
        for g in &report.proven_classes {
            for (i, &a) in outs.iter().enumerate() {
                for &b in &outs[i + 1..] {
                    assert!(
                        !(g.contains(&a) && g.contains(&b)),
                        "distinct functions {a} and {b} merged"
                    );
                }
            }
        }
        // Every counterexample the SAT phase produced landed in the
        // accumulated pattern set.
        assert_eq!(
            report.patterns.num_patterns() as u64,
            1 + report.stats.disproved,
        );
    }
}
