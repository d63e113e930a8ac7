//! SAT-based equivalence proofs for candidate node pairs.
//!
//! Each pair query runs in an assumption [`Scope`] on one long-lived
//! solver: both fanin cones are (lazily) Tseitin-encoded once, the
//! miter `a ⊕ b` is added as two clauses guarded by the scope's
//! activation literal, and the query assumes that literal. UNSAT
//! proves the pair equivalent; SAT is canonicalized to the
//! lexicographically smallest distinguishing input vector (so warm
//! and cold solvers refine simulation classes identically); a
//! conflict-budget overrun returns [`ProveOutcome::Undecided`]
//! carrying the number of conflicts the aborted attempt consumed
//! (booked as the dispatch `conflicts` total). Resolved scopes are
//! retired lazily and in batches: a finished scope parks in a pending
//! list at the *next* query (so DRAT certificates can be extracted
//! between queries while the refutation is still the tail of the
//! proof log), and the pending list is flushed — each scope's `¬act`
//! unit pushed — only once [`RETIRE_BATCH`] scopes have accumulated.
//! Deferral is sound because an unretired scope's miter clauses stay
//! guarded by its unassigned activation literal: any model extends
//! with that literal false, so later queries see the same
//! satisfiability either way; retirement only lets the solver
//! simplify the guarded clauses away sooner.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simgen_netlist::{LutNetwork, NodeId};
use simgen_sat::tseitin::NetworkEncoder;
use simgen_sat::{Lit, Scope, ScopeMetrics, SolveResult, Solver, Var};

/// Cold scopes buffered before one batched retirement pass (each
/// retire pushes a unit clause and re-propagates; batching amortizes
/// that across queries).
pub const RETIRE_BATCH: usize = 8;

/// Result of one pair proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveOutcome {
    /// The nodes compute the same function.
    Equivalent,
    /// An input vector on which the nodes differ.
    Counterexample(Vec<bool>),
    /// The proof attempt was aborted before an answer — conflict
    /// budget exhausted, interrupt raised, or (for the BDD engine)
    /// the node limit exceeded. `conflicts` is the number of solver
    /// conflicts the aborted attempt consumed (0 for BDD blow-ups).
    Undecided {
        /// Conflicts spent by the aborted attempt.
        conflicts: u64,
    },
}

impl ProveOutcome {
    /// True for [`ProveOutcome::Undecided`].
    pub fn is_undecided(&self) -> bool {
        matches!(self, ProveOutcome::Undecided { .. })
    }
}

/// What a run concluded about one pair: the one vocabulary of the
/// sweep's merge, the journal (its tags `eq`, `cex`, `undec`, `panic`,
/// `skip`, `certfail-replay` and `certfail-check` are the on-disk
/// spelling), the proof cache and the output proofs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Proven equal (and, under certify, DRAT-certified).
    Equivalent,
    /// Disproved; carries the full primary-input witness
    /// (replay-verified under certify).
    Counterexample(Vec<bool>),
    /// No engine answered: the SAT budget ran out, or (BDD-only) the
    /// node limit tripped.
    Undecided,
    /// The pair's proof panicked; the pair is quarantined.
    Panicked,
    /// The deadline expired before the pair's job started.
    Skipped,
    /// The engine answered but certification rejected the answer:
    /// `replay: false` means the DRAT checker refused an `Equivalent`
    /// proof, `replay: true` means the scalar replay could not
    /// reproduce a counterexample. The pair is quarantined either way.
    CertificationFailed {
        /// Whether the rejected evidence was a counterexample.
        replay: bool,
    },
}

impl Verdict {
    /// The verdict's name in `proof`, `output_proof` and `cache_hit`
    /// trace events; panicked and skipped pairs read `undecided`.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Equivalent => "equivalent",
            Verdict::Counterexample(_) => "disproved",
            Verdict::Undecided | Verdict::Panicked | Verdict::Skipped => "undecided",
            Verdict::CertificationFailed { .. } => "certification_failed",
        }
    }
}

impl From<ProveOutcome> for Verdict {
    fn from(outcome: ProveOutcome) -> Self {
        match outcome {
            ProveOutcome::Equivalent => Verdict::Equivalent,
            ProveOutcome::Counterexample(v) => Verdict::Counterexample(v),
            ProveOutcome::Undecided { .. } => Verdict::Undecided,
        }
    }
}

/// Incremental prover bound to one network.
#[derive(Debug)]
pub struct PairProver<'n> {
    net: &'n LutNetwork,
    solver: Solver,
    encoder: NetworkEncoder,
    calls: u64,
    time: Duration,
    metrics: ScopeMetrics,
    /// The most recent query's scope, kept open until the next query
    /// so [`PairProver::certificate`] can read the refutation first:
    /// retiring pushes the `¬act` unit into the DRAT-logged formula,
    /// which would satisfy the guarded miter clauses and make the
    /// certificate vacuous.
    open_scope: Option<Scope>,
    /// Answered scopes awaiting batched retirement (see the module
    /// docs): flushed once [`RETIRE_BATCH`] have accumulated.
    pending_retire: Vec<Scope>,
}

impl<'n> PairProver<'n> {
    /// Creates a prover for `net`.
    pub fn new(net: &'n LutNetwork) -> Self {
        PairProver {
            net,
            solver: Solver::new(),
            encoder: NetworkEncoder::new(net),
            calls: 0,
            time: Duration::ZERO,
            metrics: ScopeMetrics::default(),
            open_scope: None,
            pending_retire: Vec::new(),
        }
    }

    /// Number of SAT calls issued so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Scope/reuse metrics accumulated across this prover's queries.
    pub fn metrics(&self) -> ScopeMetrics {
        self.metrics
    }

    /// Answered scopes buffered for the next batched retirement pass.
    pub fn pending_retirements(&self) -> usize {
        self.pending_retire.len()
    }

    /// Installs a shared interrupt flag on the underlying solver;
    /// while raised, [`PairProver::prove`] returns
    /// [`ProveOutcome::Undecided`] instead of searching.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.solver.set_interrupt(flag);
    }

    /// Binds a [`Deadline`](simgen_dispatch::Deadline) to the
    /// underlying solver: its shared flag
    /// becomes the interrupt hook (so a watchdog trip aborts the
    /// in-flight solve) and its expiry instant is checked by the CDCL
    /// loop itself (so expiry fires even without a watchdog). After
    /// the deadline passes, every [`PairProver::prove`] answers
    /// [`ProveOutcome::Undecided`].
    pub fn bind_deadline(&mut self, deadline: &simgen_dispatch::Deadline) {
        self.solver.set_interrupt(deadline.flag());
        self.solver.set_deadline(deadline.expires_at());
    }

    /// Wall time spent inside the solver so far.
    pub fn time(&self) -> Duration {
        self.time
    }

    /// Turns on DRAT proof logging in the underlying solver so that
    /// every [`ProveOutcome::Equivalent`] answer can be independently
    /// revalidated (see [`certify`](crate::certify)). Must be called
    /// before the first query; `byte_budget` bounds the recorded
    /// proof text.
    pub fn enable_certification(&mut self, byte_budget: u64) {
        self.solver.enable_proof_logging(byte_budget);
    }

    /// The DRAT certificate of the most recent query, present iff
    /// that query answered [`ProveOutcome::Equivalent`] with
    /// certification enabled and the proof log intact.
    pub fn certificate(&self) -> Option<simgen_sat::Certificate<'_>> {
        self.solver.certificate()
    }

    /// Cumulative CDCL statistics of the underlying solver.
    pub fn solver_stats(&self) -> simgen_sat::SolverStats {
        self.solver.stats()
    }

    /// The serialized DRAT blob of the most recent
    /// [`ProveOutcome::Equivalent`] answer, for storage in the proof
    /// cache. `None` without proof logging — such verdicts are cached
    /// without a proof and re-proved when a certified run needs them.
    pub fn proof_blob(&self) -> Option<Vec<u8>> {
        self.certificate()
            .map(|c| simgen_cache::serialize_certificate(&c))
    }

    /// Records a *proven* equivalence as two binary clauses
    /// (`a → b`, `b → a`), so every later query benefits — the
    /// incremental analogue of fraiging's node merging, without which
    /// proofs of deep pairs re-derive all their fanin equivalences
    /// from scratch.
    ///
    /// Only call this for pairs previously answered
    /// [`ProveOutcome::Equivalent`]; asserting a false equivalence
    /// makes all subsequent answers meaningless.
    pub fn assert_equal(&mut self, a: NodeId, b: NodeId) {
        let va = self.encoder.encode_cone(self.net, &mut self.solver, a);
        let vb = self.encoder.encode_cone(self.net, &mut self.solver, b);
        self.solver.add_clause(&[Lit::neg(va), Lit::pos(vb)]);
        self.solver.add_clause(&[Lit::pos(va), Lit::neg(vb)]);
    }

    /// Proves or disproves `a ≡ b` with one assumption-scoped SAT
    /// call.
    ///
    /// `budget` bounds the solver's conflicts (`None` = unbounded).
    pub fn prove(&mut self, a: NodeId, b: NodeId, budget: Option<u64>) -> ProveOutcome {
        let start = Instant::now();
        if let Some(prev) = self.open_scope.take() {
            self.pending_retire.push(prev);
            if self.pending_retire.len() >= RETIRE_BATCH {
                for scope in self.pending_retire.drain(..) {
                    scope.retire(&mut self.solver);
                }
            }
        }
        if self.calls > 0 {
            self.metrics.warm_solves += 1;
        }
        let va = self.encoder.encode_cone(self.net, &mut self.solver, a);
        let vb = self.encoder.encode_cone(self.net, &mut self.solver, b);
        let scope = Scope::open(&mut self.solver, &mut self.metrics);
        // The miter a ⊕ b as two guarded one-directional clauses,
        // act → (a ∨ b) and act → (¬a ∨ ¬b). One-directional is what
        // keeps retirement sound: the eventual `¬act` unit must
        // deactivate the miter, not assert `a ≡ b`.
        scope.add_clause(&mut self.solver, &[Lit::pos(va), Lit::pos(vb)]);
        scope.add_clause(&mut self.solver, &[Lit::neg(va), Lit::neg(vb)]);
        self.calls += 1;
        let conflicts_before = self.solver.stats().conflicts;
        let result = scope.solve(&mut self.solver, &[], budget);
        let outcome = match result {
            SolveResult::Unsat => ProveOutcome::Equivalent,
            SolveResult::Sat => ProveOutcome::Counterexample(self.canonical_witness(&scope, a, b)),
            SolveResult::Unknown => ProveOutcome::Undecided {
                conflicts: self.solver.stats().conflicts - conflicts_before,
            },
        };
        self.open_scope = Some(scope);
        self.time += start.elapsed();
        outcome
    }

    /// The pair's support: PIs reachable from `a` or `b`, in
    /// `net.pis()` order.
    fn support_pis(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.net.len()];
        let mut stack = vec![a, b];
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            stack.extend_from_slice(self.net.fanins(n));
        }
        self.net
            .pis()
            .iter()
            .copied()
            .filter(|pi| seen[pi.index()])
            .collect()
    }

    /// Reduces the satisfying assignment to the lexicographically
    /// smallest distinguishing input vector over `net.pis()` order
    /// (false < true; PIs outside the pair's support stay false).
    ///
    /// A witness that is a pure function of `(net, a, b)` — not of
    /// solver state — is what keeps warm region solvers and cold
    /// per-pair solvers byte-identical downstream: resimulation
    /// refines the candidate classes the same way in both modes.
    /// Every auxiliary constraint a warm solver might hold (asserted
    /// equalities, retired scopes, learnt clauses) is implied or
    /// deactivated, so each minimization query is satisfiable in one
    /// mode iff it is in the other.
    fn canonical_witness(&mut self, scope: &Scope, a: NodeId, b: NodeId) -> Vec<bool> {
        let support = self.support_pis(a, b);
        let vars: Vec<Var> = support
            .iter()
            .map(|&pi| self.encoder.encode_cone(self.net, &mut self.solver, pi))
            .collect();
        let mut model: Vec<bool> = vars
            .iter()
            .map(|&v| self.solver.value(v).unwrap_or(false))
            .collect();
        let mut fixed: Vec<Lit> = Vec::with_capacity(vars.len());
        let mut needs_restore = false;
        for i in 0..vars.len() {
            let v = vars[i];
            if !model[i] {
                fixed.push(Lit::neg(v));
                continue;
            }
            // The current model has this PI true; ask whether some
            // distinguishing input keeps the fixed prefix and turns
            // it false.
            let mut assumptions = fixed.clone();
            assumptions.push(Lit::neg(v));
            match scope.solve(&mut self.solver, &assumptions, None) {
                SolveResult::Sat => {
                    fixed.push(Lit::neg(v));
                    model[i] = false;
                    for j in (i + 1)..vars.len() {
                        model[j] = self.solver.value(vars[j]).unwrap_or(false);
                    }
                    needs_restore = false;
                }
                SolveResult::Unsat => {
                    // This PI is forced true given the prefix; the
                    // model we already hold satisfies the extended
                    // prefix, so it stays valid.
                    fixed.push(Lit::pos(v));
                    needs_restore = true;
                }
                // Interrupt/deadline: keep the best vector so far.
                SolveResult::Unknown => {
                    needs_restore = false;
                    break;
                }
            }
        }
        if needs_restore {
            // The last solve answered Unsat, which (under proof
            // logging) would leave a certificate claiming a
            // refutation for a pair that is NOT equivalent. Re-solve
            // under the full prefix — guaranteed satisfiable by the
            // model we kept — so the solver's final answer matches
            // the Counterexample verdict.
            scope.solve(&mut self.solver, &fixed, None);
        }
        let mut vector = vec![false; self.net.num_pis()];
        let mut k = 0;
        for (pi_index, &pi) in self.net.pis().iter().enumerate() {
            if k < support.len() && support[k] == pi {
                vector[pi_index] = model[k];
                k += 1;
            }
        }
        vector
    }
}

/// BDD-based prover: builds the whole network's BDDs once (guarded by
/// a node limit), after which every query is a pointer comparison and
/// counterexamples are XOR paths. Mirrors the classic BDD sweeping of
/// Kuehlmann & Krohm; blows up on arithmetic, which is exactly the
/// behaviour the SAT transition of the 2000s addressed.
#[derive(Debug)]
pub struct BddProver<'n> {
    net: &'n LutNetwork,
    node_limit: usize,
    bdds: Option<Option<simgen_bdd::NetworkBdds>>,
    calls: u64,
}

impl<'n> BddProver<'n> {
    /// Creates a BDD prover; construction is lazy (first query pays).
    /// `node_limit` bounds manager growth before giving up.
    pub fn new(net: &'n LutNetwork, node_limit: usize) -> Self {
        BddProver {
            net,
            node_limit,
            bdds: None,
            calls: 0,
        }
    }

    /// True once construction was attempted and hit the node limit.
    pub fn blew_up(&self) -> bool {
        matches!(self.bdds, Some(None))
    }

    /// Proves or disproves `a ≡ b`. Equal functions share one BDD
    /// handle, so proven equivalences need no assertion; a network
    /// whose BDDs exceed the node limit answers
    /// [`ProveOutcome::Undecided`] for every query.
    pub fn prove(&mut self, a: NodeId, b: NodeId) -> ProveOutcome {
        self.calls += 1;
        if self.bdds.is_none() {
            self.bdds = Some(simgen_bdd::network_bdds(self.net, self.node_limit));
        }
        match self.bdds.as_mut().expect("just built") {
            None => ProveOutcome::Undecided { conflicts: 0 }, // node limit exceeded
            Some(nb) => match nb.counterexample(a, b) {
                None => ProveOutcome::Equivalent,
                Some(cex) => ProveOutcome::Counterexample(cex),
            },
        }
    }

    /// Queries issued so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    fn demo_net() -> (LutNetwork, NodeId, NodeId, NodeId) {
        // x = a & b; y = !(!a | !b) (equivalent); z = a | b (different).
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let na = net.add_lut(vec![a], TruthTable::not1()).unwrap();
        let nb = net.add_lut(vec![b], TruthTable::not1()).unwrap();
        let o = net.add_lut(vec![na, nb], TruthTable::or2()).unwrap();
        let y = net.add_lut(vec![o], TruthTable::not1()).unwrap();
        let z = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        net.add_po(z, "z");
        (net, x, y, z)
    }

    #[test]
    fn proves_equivalence() {
        let (net, x, y, _) = demo_net();
        let mut p = PairProver::new(&net);
        assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
        assert_eq!(p.calls(), 1);
    }

    #[test]
    fn finds_counterexample() {
        let (net, x, _, z) = demo_net();
        let mut p = PairProver::new(&net);
        match p.prove(x, z, None) {
            ProveOutcome::Counterexample(v) => {
                let vals = net.eval(&v);
                assert_ne!(vals[x.index()], vals[z.index()], "cex must distinguish");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn incremental_reuse_across_pairs() {
        let (net, x, y, z) = demo_net();
        let mut p = PairProver::new(&net);
        assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
        assert!(matches!(
            p.prove(x, z, None),
            ProveOutcome::Counterexample(_)
        ));
        assert!(matches!(
            p.prove(y, z, None),
            ProveOutcome::Counterexample(_)
        ));
        // Re-asking an answered query still works (learned clauses
        // persist but assumptions isolate queries).
        assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
        assert_eq!(p.calls(), 4);
        assert!(p.time() > Duration::ZERO);
    }

    #[test]
    fn budget_zero_gives_unknown_on_nontrivial_pair() {
        // A pair that needs at least some search: two xor trees over
        // the same inputs with different association.
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut l = pis[0];
        for &p in &pis[1..] {
            l = net.add_lut(vec![l, p], TruthTable::xor2()).unwrap();
        }
        let mut r = pis[5];
        for &p in pis[..5].iter().rev() {
            r = net.add_lut(vec![r, p], TruthTable::xor2()).unwrap();
        }
        net.add_po(l, "l");
        net.add_po(r, "r");
        let mut p = PairProver::new(&net);
        // A tiny budget is a hard cap: the attempt aborts and reports
        // how many conflicts it burned (bounded by budget + 1).
        match p.prove(l, r, Some(1)) {
            ProveOutcome::Undecided { conflicts } => {
                assert!((1..=2).contains(&conflicts), "conflicts {conflicts}");
            }
            other => panic!("expected undecided, got {other:?}"),
        }
        // Unbounded: equivalent.
        assert_eq!(p.prove(l, r, None), ProveOutcome::Equivalent);
    }

    #[test]
    fn interrupted_prover_returns_undecided() {
        use std::sync::atomic::Ordering;
        let (net, x, y, _) = demo_net();
        let mut p = PairProver::new(&net);
        let flag = Arc::new(AtomicBool::new(true));
        p.set_interrupt(Arc::clone(&flag));
        assert!(p.prove(x, y, None).is_undecided());
        flag.store(false, Ordering::Relaxed);
        assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
    }

    #[test]
    fn node_vs_itself_is_equivalent() {
        let (net, x, _, _) = demo_net();
        let mut p = PairProver::new(&net);
        assert_eq!(p.prove(x, x, None), ProveOutcome::Equivalent);
    }

    #[test]
    fn counterexamples_are_canonical_lex_minimal() {
        // x = a & b vs z = a | b differ on (0,1) and (1,0); the
        // lex-min witness over (a, b) is (false, true).
        let (net, x, y, z) = demo_net();
        let mut warm = PairProver::new(&net);
        assert_eq!(warm.prove(x, y, None), ProveOutcome::Equivalent);
        let from_warm = match warm.prove(x, z, None) {
            ProveOutcome::Counterexample(v) => v,
            other => panic!("expected counterexample, got {other:?}"),
        };
        let mut cold = PairProver::new(&net);
        let from_cold = match cold.prove(x, z, None) {
            ProveOutcome::Counterexample(v) => v,
            other => panic!("expected counterexample, got {other:?}"),
        };
        assert_eq!(from_warm, vec![false, true], "lex-min over PI order");
        assert_eq!(
            from_warm, from_cold,
            "witness is a function of the pair, not of solver history"
        );
    }

    #[test]
    fn retirement_batches_and_flushes_at_threshold() {
        let (net, x, y, _) = demo_net();
        let mut p = PairProver::new(&net);
        // Query 1 opens a scope but has no predecessor to park.
        assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
        assert_eq!(p.pending_retirements(), 0);
        // Queries 2..=RETIRE_BATCH each park one predecessor.
        for i in 2..=RETIRE_BATCH {
            assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
            assert_eq!(p.pending_retirements(), i - 1);
        }
        // Query RETIRE_BATCH+1 parks the RETIRE_BATCH-th scope, which
        // triggers the flush — and the answer is still correct with
        // the batch's deactivation units in flight.
        assert_eq!(p.prove(x, y, None), ProveOutcome::Equivalent);
        assert_eq!(p.pending_retirements(), 0);
    }

    #[test]
    fn metrics_track_scopes_and_warm_starts() {
        let (net, x, y, z) = demo_net();
        let mut p = PairProver::new(&net);
        assert_eq!(p.metrics(), ScopeMetrics::default());
        p.prove(x, y, None);
        assert_eq!(p.metrics().scopes_opened, 1);
        assert_eq!(p.metrics().warm_solves, 0, "first query is cold");
        p.prove(y, z, None);
        assert_eq!(p.metrics().scopes_opened, 2);
        assert_eq!(p.metrics().warm_solves, 1);
    }
}
