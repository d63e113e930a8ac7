//! High-level flows: full two-network CEC and the combined
//! random→guided strategy of the paper's Section 6.5.

use std::time::Instant;

use simgen_core::PatternGenerator;
use simgen_dispatch::{Deadline, Progress};
use simgen_netlist::miter::combine;
use simgen_netlist::{LutNetwork, NetlistError, NodeId};
use simgen_obs::{Counter, Json, Observer, Phase};
use simgen_sim::{EquivClasses, Replayer};

use crate::certify::{certify, count_certification, PROOF_BYTE_BUDGET};
use crate::prove::{PairProver, Verdict};
use crate::stats::SweepStats;
use crate::sweep::{spawn_watchdog, RunContext, SweepConfig};
use crate::Sweeper;

/// Why a CEC run ended without a definitive answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// The wall-clock deadline expired (or the interrupt flag was
    /// tripped) before every output pair was resolved.
    DeadlineExpired,
    /// Some output proof exhausted its conflict budget (stall-tripped
    /// proofs also land here: the solver cannot tell the two aborts
    /// apart, and the deadline had not passed).
    BudgetExhausted,
    /// The run's estimated memory footprint crossed
    /// [`SweepConfig::mem_budget`] and the
    /// [`MemoryGovernor`](crate::govern::MemoryGovernor) cancelled the
    /// remaining work — a deliberate shed, reported instead of growing
    /// toward an OOM kill. The partial result is as sound as a
    /// deadline expiry's.
    ResourceExhausted,
    /// Certification (`SweepConfig::certify`) rejected an engine
    /// answer somewhere in the run — a DRAT certificate the checker
    /// refused or a counterexample that did not replay. The affected
    /// pairs were quarantined, so the result is still sound, but an
    /// engine produced an answer its own evidence does not support;
    /// the CLI maps this to exit code 3.
    CertificationFailed,
}

impl InconclusiveReason {
    /// The snake_case name the run report and the daemon's status line
    /// spell this reason with.
    pub fn name(self) -> &'static str {
        match self {
            InconclusiveReason::DeadlineExpired => "deadline_expired",
            InconclusiveReason::BudgetExhausted => "budget_exhausted",
            InconclusiveReason::ResourceExhausted => "resource_exhausted",
            InconclusiveReason::CertificationFailed => "certification_failed",
        }
    }
}

/// Verdict of a full CEC run.
///
/// Three-valued on purpose: an anytime run that cannot finish must
/// say so rather than guess. Only [`CecVerdict::Equivalent`] claims
/// equivalence, and it is only produced when *every* output pair was
/// actually proven — partial results degrade to
/// [`CecVerdict::Inconclusive`], never to a false positive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CecVerdict {
    /// Every PO pair proven equal.
    Equivalent,
    /// A PO pair differs; carries the witness input vector and the
    /// index of the differing output pair.
    NotEquivalent {
        /// Index of the first differing output pair.
        po_index: usize,
        /// Input vector on which the outputs differ.
        witness: Vec<bool>,
    },
    /// One or more PO pairs were left unresolved — by budget, by
    /// deadline, or both. A sound partial result: no falsified pair
    /// was found, and no unproven pair is claimed equal.
    Inconclusive {
        /// Indices of the output pairs left unresolved, ascending.
        unresolved_pairs: Vec<usize>,
        /// What cut the run short.
        reason: InconclusiveReason,
    },
}

/// Report of [`check_equivalence`].
#[derive(Clone, Debug)]
pub struct CecReport {
    /// The verdict.
    pub verdict: CecVerdict,
    /// Sweep statistics (simulation + internal-node SAT calls).
    pub sweep_stats: SweepStats,
    /// SAT calls spent on the output proofs.
    pub output_sat_calls: u64,
    /// Wall time of the output proofs.
    pub output_sat_time: std::time::Duration,
    /// CDCL solver totals of the output-proof prover (the sweep's own
    /// solver totals live in [`SweepStats::solver`]).
    pub output_solver: simgen_sat::SolverStats,
    /// Class cost (Equation 5) after the simulation phase of the sweep.
    pub sweep_cost_after_sim: u64,
    /// Equivalence classes the sweep proved (each seeds the output
    /// proofs with fraig-style merges).
    pub sweep_proven_classes: u64,
    /// Internal candidate pairs the sweep left unresolved.
    pub sweep_unresolved: u64,
    /// Internal pairs quarantined: prover panics and failed
    /// certification checks.
    pub sweep_quarantined: u64,
    /// Simulation patterns the sweep accumulated.
    pub sweep_patterns: u64,
}

/// Checks combinational equivalence of two networks with identical
/// PI/PO interfaces, using sweeping to simplify the final proofs.
///
/// The whole run — sweep, internal proofs, output proofs — shares
/// `ctx` (see [`RunContext`]):
///
/// - **Deadline.** When it expires, in-flight SAT calls are
///   interrupted and the remaining output pairs are reported in
///   [`CecVerdict::Inconclusive`] instead of being guessed at. A
///   counterexample found before expiry still wins: `NotEquivalent`
///   is definitive no matter how the run ends.
/// - **Observer.** Phase timings, counters and trace events from the
///   whole flow land in `ctx.obs`.
/// - **Proof cache.** Internal sweep pairs *and* the final PO-pair
///   proofs are looked up by the merkle hash of their canonical cones
///   before any SAT work, and fresh verdicts are stored back, under
///   the trust policy of [`crate::cache`].
/// - **Journal.** The internal sweep commits each round barrier and,
///   in resume mode, replays journaled rounds instead of re-proving
///   them. The output-pair proofs always run live — they are the
///   cheap tail of the flow once the sweep's merges are seeded.
///
/// # Errors
///
/// Returns [`NetlistError::Invalid`] if the PI or PO counts differ.
pub fn check_equivalence(
    a: &LutNetwork,
    b: &LutNetwork,
    generator: &mut dyn PatternGenerator,
    config: SweepConfig,
    ctx: &mut RunContext<'_>,
) -> Result<CecReport, NetlistError> {
    if a.num_pos() != b.num_pos() {
        return Err(NetlistError::Invalid(format!(
            "po count mismatch: {} vs {}",
            a.num_pos(),
            b.num_pos()
        )));
    }
    let combined = combine(a, b)?;
    let net = &combined.network;
    // The sweep's reports are scheduling-invariant, so every `jobs`
    // value — including the default 1, which runs inline without
    // spawning threads — yields byte-identical classes and proof
    // counts. Internal pairs left unresolved (budget, deadline,
    // quarantine) only cost the output proofs their seeds; they never
    // make the verdict wrong, so the flow keeps going regardless.
    let sweep = Sweeper::new(config).run(net, generator, ctx);
    let (deadline, obs, cache) = (&ctx.deadline, &mut ctx.obs, ctx.cache);
    let mut sweep_cache = cache.map(|c| crate::cache::SweepCache::new(c, config.certify));

    // Final proofs on the PO pairs. Seeding the prover with every
    // equivalence the sweep established (fraig-style merging) is what
    // makes the output proofs tractable: without it, deep arithmetic
    // PO miters re-derive all internal equivalences from scratch.
    let mut prover = PairProver::new(net);
    prover.bind_deadline(deadline);
    if config.certify {
        prover.enable_certification(PROOF_BYTE_BUDGET);
    }
    for class in &sweep.proven_classes {
        let rep = class[0];
        for &member in &class[1..] {
            prover.assert_equal(rep, member);
        }
    }
    let progress = Progress::default();
    let _watchdog = spawn_watchdog(&config, deadline, &progress, &obs.trace);
    let t = Instant::now();
    let output_start = obs.recorder.is_enabled().then(Instant::now);
    let mut cex: Option<(usize, Vec<bool>)> = None;
    let mut unresolved_pairs: Vec<usize> = Vec::new();
    let mut replayer = Replayer::new();
    let mut output_cert_failures: u64 = 0;
    // The output proofs run under the same memory budget as the sweep.
    // The sweep's structures are freed by now, so the governor here
    // watches only the output prover's own gauges; a trip inside the
    // sweep already expired the shared deadline.
    let mut governor = crate::govern::MemoryGovernor::new(config.mem_budget);
    let mut mem_exhausted = sweep.mem_exhausted;
    for (i, (pa, pb)) in a.pos().iter().zip(b.pos()).enumerate() {
        if governor.note(crate::govern::estimate_resident(
            &prover.solver_stats(),
            &Default::default(),
        )) {
            mem_exhausted = true;
            deadline.trip();
            obs.trace.emit(
                "mem_budget_exhausted",
                vec![("estimate_bytes", Json::U64(governor.peak()))],
            );
        }
        if deadline.expired() {
            unresolved_pairs.push(i);
            continue;
        }
        let na = combined.map_a[pa.node.index()];
        let nb = combined.map_b[pb.node.index()];
        // A trusted cache hit answers the PO pair without a SAT call
        // (its trust checks already ran inside `resolve`).
        let cached = sweep_cache
            .as_mut()
            .and_then(|sc| sc.resolve(net, na, nb, obs));
        let live = cached.is_none();
        let mut verdict = cached.unwrap_or_else(|| {
            obs.recorder.add(Counter::OutputProofs, 1);
            prover.prove(na, nb, config.sat_budget).into()
        });
        progress.tick();
        if obs.trace.is_enabled() {
            obs.trace.emit(
                "output_proof",
                vec![
                    ("po_index", Json::U64(i as u64)),
                    ("verdict", Json::Str(verdict.name().to_string())),
                ],
            );
        }
        if live {
            // Trust-but-verify: an answer that fails its check neither
            // contributes to an Equivalent verdict nor terminates the
            // run. (Cache hits cleared the same bar inside `resolve`.)
            if config.certify {
                verdict = certify(verdict, &prover, net, &mut replayer, na, nb);
                count_certification(&verdict, obs);
            }
            if let Some(sc) = sweep_cache.as_mut() {
                let proof = if config.certify && verdict == Verdict::Equivalent {
                    prover.proof_blob()
                } else {
                    None
                };
                sc.store(net, na, nb, &verdict, proof, obs);
            }
        }
        match verdict {
            Verdict::Equivalent => {}
            Verdict::Counterexample(witness) => {
                cex = Some((i, witness));
                break;
            }
            Verdict::CertificationFailed { .. } => {
                output_cert_failures += 1;
                obs.trace.emit(
                    "certification_failed",
                    vec![("po_index", Json::U64(i as u64))],
                );
                unresolved_pairs.push(i);
            }
            _ => unresolved_pairs.push(i),
        }
    }
    if let Some(start) = output_start {
        let elapsed = start.elapsed();
        obs.recorder.add_wall(Phase::OutputProofs, elapsed);
        obs.recorder.add_cpu(Phase::OutputProofs, elapsed);
    }
    let verdict = if let Some((po_index, witness)) = cex {
        CecVerdict::NotEquivalent { po_index, witness }
    } else if unresolved_pairs.is_empty() {
        CecVerdict::Equivalent
    } else {
        CecVerdict::Inconclusive {
            unresolved_pairs,
            // Certification trouble outranks the softer reasons: it
            // means an engine bug was caught, not just a tight budget.
            // A memory-budget shed outranks the deadline it trips
            // through — the cause, not the mechanism, is reported.
            reason: if output_cert_failures > 0 {
                InconclusiveReason::CertificationFailed
            } else if mem_exhausted {
                InconclusiveReason::ResourceExhausted
            } else if deadline.expired() {
                InconclusiveReason::DeadlineExpired
            } else {
                InconclusiveReason::BudgetExhausted
            },
        }
    };
    // Output-proof certification failures fold into the run-wide
    // counter the report builders key exit code 3 on.
    let mut sweep_stats = sweep.stats;
    sweep_stats.certification_failures += output_cert_failures;
    Ok(CecReport {
        verdict,
        output_sat_calls: prover.calls(),
        output_sat_time: t.elapsed(),
        output_solver: prover.solver_stats(),
        sweep_cost_after_sim: sweep.cost_after_sim,
        sweep_proven_classes: sweep.proven_classes.len() as u64,
        sweep_unresolved: sweep.unresolved.len() as u64,
        sweep_quarantined: sweep.quarantined.len() as u64,
        sweep_patterns: sweep.patterns.num_patterns() as u64,
        sweep_stats,
    })
}

/// [`check_equivalence`] under `deadline` with `obs` attached. A
/// forwarder that exists only for `e2ebench/src/api.rs`, the
/// benchmark's frozen door into the library.
///
/// # Errors
///
/// Returns [`NetlistError::Invalid`] if the PI or PO counts differ.
pub fn check_equivalence_observed(
    a: &LutNetwork,
    b: &LutNetwork,
    generator: &mut dyn PatternGenerator,
    config: SweepConfig,
    deadline: &Deadline,
    obs: &mut Observer,
) -> Result<CecReport, NetlistError> {
    let mut ctx = RunContext {
        deadline: deadline.clone(),
        obs: std::mem::replace(obs, Observer::disabled()),
        ..RunContext::default()
    };
    let report = check_equivalence(a, b, generator, config, &mut ctx);
    *obs = ctx.obs;
    report
}

/// The Section 6.5 strategy: run cheap random simulation until the
/// cost plateaus for `patience` consecutive iterations, then hand over
/// to a guided generator (RevS or SimGen) permanently.
pub struct SwitchOnPlateau {
    random: Box<dyn PatternGenerator>,
    guided: Box<dyn PatternGenerator>,
    patience: usize,
    recent_costs: Vec<u64>,
    switched: bool,
}

impl std::fmt::Debug for SwitchOnPlateau {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchOnPlateau")
            .field("patience", &self.patience)
            .field("switched", &self.switched)
            .finish()
    }
}

impl SwitchOnPlateau {
    /// Creates the combined strategy. `patience` is the number of
    /// consecutive equal-cost iterations that triggers the switch
    /// (the paper uses 3).
    pub fn new(
        random: Box<dyn PatternGenerator>,
        guided: Box<dyn PatternGenerator>,
        patience: usize,
    ) -> Self {
        SwitchOnPlateau {
            random,
            guided,
            patience,
            recent_costs: Vec::new(),
            switched: false,
        }
    }

    /// True once the guided generator has taken over.
    pub fn has_switched(&self) -> bool {
        self.switched
    }
}

impl PatternGenerator for SwitchOnPlateau {
    fn name(&self) -> String {
        format!("{}->{}", self.random.name(), self.guided.name())
    }

    fn generate(&mut self, net: &LutNetwork, classes: &EquivClasses) -> Vec<Vec<bool>> {
        if !self.switched {
            let cost = classes.cost();
            self.recent_costs.push(cost);
            let n = self.recent_costs.len();
            if n >= self.patience
                && self.recent_costs[n - self.patience..]
                    .iter()
                    .all(|&c| c == cost)
            {
                self.switched = true;
            }
        }
        if self.switched {
            self.guided.generate(net, classes)
        } else {
            self.random.generate(net, classes)
        }
    }
}

/// Convenience: collects all LUT node ids of a network (used by
/// examples and benches when assembling custom target sets).
pub fn lut_nodes(net: &LutNetwork) -> Vec<NodeId> {
    net.node_ids().filter(|&n| !net.is_pi(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_core::{RandomPatterns, SimGen, SimGenConfig};
    use simgen_netlist::TruthTable;

    fn adder_pair() -> (LutNetwork, LutNetwork) {
        // sum/carry computed directly vs via De Morgan'd logic.
        let mut n1 = LutNetwork::with_name("direct");
        let a = n1.add_pi("a");
        let b = n1.add_pi("b");
        let cin = n1.add_pi("cin");
        let s = n1
            .add_lut(
                vec![a, b, cin],
                TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1),
            )
            .unwrap();
        let c = n1
            .add_lut(
                vec![a, b, cin],
                TruthTable::from_fn(3, |m| m.count_ones() >= 2),
            )
            .unwrap();
        n1.add_po(s, "sum");
        n1.add_po(c, "cout");

        let mut n2 = LutNetwork::with_name("gates");
        let a = n2.add_pi("a");
        let b = n2.add_pi("b");
        let cin = n2.add_pi("cin");
        let x1 = n2.add_lut(vec![a, b], TruthTable::xor2()).unwrap();
        let s = n2.add_lut(vec![x1, cin], TruthTable::xor2()).unwrap();
        let a1 = n2.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let a2 = n2.add_lut(vec![x1, cin], TruthTable::and2()).unwrap();
        let c = n2.add_lut(vec![a1, a2], TruthTable::or2()).unwrap();
        n2.add_po(s, "sum");
        n2.add_po(c, "cout");
        (n1, n2)
    }

    #[test]
    fn equivalent_designs_verify() {
        let (n1, n2) = adder_pair();
        let mut gen = SimGen::new(SimGenConfig::default());
        let report = check_equivalence(
            &n1,
            &n2,
            &mut gen,
            SweepConfig::default(),
            &mut RunContext::default(),
        )
        .unwrap();
        assert_eq!(report.verdict, CecVerdict::Equivalent);
        assert!(report.output_sat_calls >= 2);
    }

    #[test]
    fn broken_design_yields_witness() {
        let (n1, mut n2) = adder_pair();
        // Break cout in n2 by adding an extra output-stage inverter.
        let cout_node = n2.pos()[1].node;
        let broken = n2.add_lut(vec![cout_node], TruthTable::not1()).unwrap();
        let sum_node = n2.pos()[0].node;
        n2.clear_pos();
        n2.add_po(sum_node, "sum");
        n2.add_po(broken, "cout");
        let mut gen = SimGen::new(SimGenConfig::default());
        let report = check_equivalence(
            &n1,
            &n2,
            &mut gen,
            SweepConfig::default(),
            &mut RunContext::default(),
        )
        .unwrap();
        match report.verdict {
            CecVerdict::NotEquivalent { po_index, witness } => {
                assert_eq!(po_index, 1);
                let o1 = n1.eval_pos(&witness);
                let o2 = n2.eval_pos(&witness);
                assert_ne!(o1[1], o2[1], "witness distinguishes cout");
            }
            other => panic!("expected inequivalence, got {other:?}"),
        }
    }

    #[test]
    fn certified_cec_still_verifies_and_falsifies() {
        let (n1, n2) = adder_pair();
        let cfg = SweepConfig {
            certify: true,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let report =
            check_equivalence(&n1, &n2, &mut gen, cfg, &mut RunContext::default()).unwrap();
        assert_eq!(report.verdict, CecVerdict::Equivalent);
        assert_eq!(report.sweep_stats.certification_failures, 0);
        assert!(
            report.output_solver.proof_clauses > 0,
            "output proofs were logged"
        );

        // And a genuinely broken design still yields its witness —
        // now replay-verified before being reported.
        let (n1, mut n2) = adder_pair();
        let cout_node = n2.pos()[1].node;
        let broken = n2.add_lut(vec![cout_node], TruthTable::not1()).unwrap();
        let sum_node = n2.pos()[0].node;
        n2.clear_pos();
        n2.add_po(sum_node, "sum");
        n2.add_po(broken, "cout");
        let mut gen = SimGen::new(SimGenConfig::default());
        let report =
            check_equivalence(&n1, &n2, &mut gen, cfg, &mut RunContext::default()).unwrap();
        match report.verdict {
            CecVerdict::NotEquivalent { po_index, witness } => {
                assert_eq!(po_index, 1);
                assert_ne!(n1.eval_pos(&witness)[1], n2.eval_pos(&witness)[1]);
            }
            other => panic!("expected inequivalence, got {other:?}"),
        }
        assert_eq!(report.sweep_stats.certification_failures, 0);
    }

    #[test]
    fn expired_deadline_is_inconclusive_not_equivalent() {
        let (n1, n2) = adder_pair();
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            deadline: Deadline::after(std::time::Duration::ZERO),
            ..RunContext::default()
        };
        let report =
            check_equivalence(&n1, &n2, &mut gen, SweepConfig::default(), &mut ctx).unwrap();
        match report.verdict {
            CecVerdict::Inconclusive {
                unresolved_pairs,
                reason,
            } => {
                // Both output pairs were still open when time ran out.
                assert_eq!(unresolved_pairs, vec![0, 1]);
                assert_eq!(reason, InconclusiveReason::DeadlineExpired);
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        assert_eq!(report.output_sat_calls, 0, "no output proof may start");
    }

    #[test]
    fn zero_budget_is_inconclusive_with_budget_reason() {
        let (n1, n2) = adder_pair();
        let mut gen = SimGen::new(SimGenConfig::default());
        let cfg = SweepConfig {
            sat_budget: Some(0),
            ..SweepConfig::default()
        };
        let report =
            check_equivalence(&n1, &n2, &mut gen, cfg, &mut RunContext::default()).unwrap();
        match report.verdict {
            CecVerdict::Inconclusive {
                unresolved_pairs,
                reason,
            } => {
                assert!(!unresolved_pairs.is_empty());
                assert_eq!(reason, InconclusiveReason::BudgetExhausted);
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn tiny_mem_budget_sheds_with_resource_exhausted() {
        let (n1, n2) = adder_pair();
        let mut gen = SimGen::new(SimGenConfig::default());
        let cfg = SweepConfig {
            mem_budget: Some(1),
            ..SweepConfig::default()
        };
        let report =
            check_equivalence(&n1, &n2, &mut gen, cfg, &mut RunContext::default()).unwrap();
        match report.verdict {
            CecVerdict::Inconclusive {
                unresolved_pairs,
                reason,
            } => {
                assert_eq!(unresolved_pairs, vec![0, 1]);
                assert_eq!(reason, InconclusiveReason::ResourceExhausted);
            }
            other => panic!("expected Inconclusive, got {other:?}"),
        }
        // A generous budget changes nothing about the verdict.
        let cfg = SweepConfig {
            mem_budget: Some(1 << 30),
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let report =
            check_equivalence(&n1, &n2, &mut gen, cfg, &mut RunContext::default()).unwrap();
        assert_eq!(report.verdict, CecVerdict::Equivalent);
    }

    #[test]
    fn generous_deadline_still_verifies() {
        let (n1, n2) = adder_pair();
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            deadline: Deadline::after(std::time::Duration::from_secs(3600)),
            ..RunContext::default()
        };
        let report =
            check_equivalence(&n1, &n2, &mut gen, SweepConfig::default(), &mut ctx).unwrap();
        assert_eq!(report.verdict, CecVerdict::Equivalent);
    }

    #[test]
    fn interface_mismatch_rejected() {
        let (n1, _) = adder_pair();
        let mut single = LutNetwork::new();
        let a = single.add_pi("a");
        let b = single.add_pi("b");
        let c = single.add_pi("c");
        let g = single
            .add_lut(vec![a, b, c], TruthTable::const0(3))
            .unwrap();
        single.add_po(g, "only");
        let mut gen = RandomPatterns::new(1, 8);
        assert!(check_equivalence(
            &n1,
            &single,
            &mut gen,
            SweepConfig::default(),
            &mut RunContext::default()
        )
        .is_err());
    }

    #[test]
    fn plateau_switch_fires_after_patience() {
        let (n1, n2) = adder_pair();
        let combined = combine(&n1, &n2).unwrap();
        let net = combined.network;
        let mut gen = SwitchOnPlateau::new(
            // A "random" generator that always emits the same vector,
            // guaranteeing an immediate plateau.
            Box::new(ConstantGen),
            Box::new(SimGen::new(SimGenConfig::default())),
            3,
        );
        assert_eq!(gen.name(), "const->SimGen");
        let cfg = SweepConfig {
            random_batch: 1,
            guided_iterations: 8,
            run_sat: false,
            seed: 3,
            ..SweepConfig::default()
        };
        let _ = Sweeper::new(cfg).run(&net, &mut gen, &mut RunContext::default());
        assert!(gen.has_switched(), "plateau must trigger the switch");
    }

    /// Emits one fixed vector every iteration (test helper).
    struct ConstantGen;
    impl PatternGenerator for ConstantGen {
        fn name(&self) -> String {
            "const".into()
        }
        fn generate(&mut self, net: &LutNetwork, _c: &EquivClasses) -> Vec<Vec<bool>> {
            vec![vec![false; net.num_pis()]]
        }
    }

    #[test]
    fn lut_nodes_excludes_pis() {
        let (n1, _) = adder_pair();
        let luts = lut_nodes(&n1);
        assert_eq!(luts.len(), 2);
        assert!(luts.iter().all(|&n| !n1.is_pi(n)));
    }
}
