//! Algorithm 1 of the paper: the input-vector generation loop.
//!
//! For each target node (processed deepest-first), the engine assigns
//! the desired OUTgold value, then alternates *implication* passes and
//! *decision* steps until all PIs in the target's fanin cone are
//! constrained or a conflict forces rolling the target back (the
//! paper's `nodeVals = initVals; break`). Targets that survive keep
//! their assignments, so later targets are propagated under the
//! accumulated constraints — which is how one vector can split many
//! nodes at once.

use rand::Rng;

use simgen_netlist::cone::fanin_cone_into;
use simgen_netlist::{LutNetwork, NodeId};

use crate::decision::{decide, Decision, DecisionStrategy, MffcDepths};
use crate::implication::{ImplicationStrategy, Implicator, Propagation};
use crate::rows::RowDb;
use crate::tv::{Value, ValueMap};

/// Per-target result of a generation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetOutcome {
    /// The target's OUTgold value was successfully propagated to PIs.
    Honored,
    /// Propagation conflicted; the target's assignments were rolled
    /// back (the vector does not constrain this target).
    Conflicted,
    /// The target was already assigned the opposite value by an
    /// earlier target's propagation — impossible to honor.
    Preassigned,
}

/// The product of one [`InputVectorGenerator::generate`] call.
#[derive(Clone, Debug)]
pub struct GenResult {
    /// Outcome per target, aligned with the input target list.
    pub outcomes: Vec<TargetOutcome>,
    /// The complete input vector (unconstrained PIs filled randomly).
    pub vector: Vec<bool>,
    /// Number of internal value assignments performed (a work proxy).
    pub assignments: usize,
    /// Number of decisions taken.
    pub decisions: usize,
    /// Number of conflicts encountered.
    pub conflicts: usize,
}

impl GenResult {
    /// True if at least one honored pair of targets received opposite
    /// OUTgold values — the paper's usefulness criterion (Section 3):
    /// a vector that honors only one polarity cannot split the class.
    pub fn splits_targets(&self, targets: &[(NodeId, bool)]) -> bool {
        let mut saw = [false, false];
        for (outcome, &(_, gold)) in self.outcomes.iter().zip(targets) {
            if *outcome == TargetOutcome::Honored {
                saw[usize::from(gold)] = true;
            }
        }
        saw[0] && saw[1]
    }
}

/// The Algorithm 1 engine, reusable across calls on one network.
///
/// The engine owns every buffer sized to the network, and each target
/// touches only the nodes it visits: the cone list, cone mask and
/// `exhausted` mask are reset by walking the cone list when the target
/// is done, and the implication queue is left empty by every pass.
#[derive(Debug)]
pub struct InputVectorGenerator<'n> {
    net: &'n LutNetwork,
    implicator: Implicator<'n>,
    mffcs: MffcDepths,
    values: ValueMap,
    /// The current target's fanin cone in DFS pre-order (`listDfs`).
    cone: Vec<NodeId>,
    /// Membership mask of `cone`; doubles as the DFS visited set.
    in_cone: Vec<bool>,
    /// The PIs of `cone`, in cone order: the target's goal set.
    cone_pis: Vec<NodeId>,
    /// Cone gates proven unable to make further progress (their
    /// compatible rows' specified pins are all assigned).
    exhausted: Vec<bool>,
    /// The DFS stack of the cone walk.
    stack: Vec<NodeId>,
    /// The seeds of the next implication pass.
    seeds: Vec<NodeId>,
}

impl<'n> InputVectorGenerator<'n> {
    /// Creates an engine for a network.
    pub fn new(net: &'n LutNetwork) -> Self {
        Self::with_rows(net, RowDb::new())
    }

    /// Creates an engine reusing an existing row cache (the cache is
    /// keyed by truth table, so it is valid across networks).
    pub fn with_rows(net: &'n LutNetwork, rows: RowDb) -> Self {
        InputVectorGenerator {
            net,
            implicator: Implicator::with_rows(net, rows),
            mffcs: MffcDepths::new(net),
            values: ValueMap::new(net.len()),
            cone: Vec::new(),
            in_cone: vec![false; net.len()],
            cone_pis: Vec::new(),
            exhausted: vec![false; net.len()],
            stack: Vec::new(),
            seeds: Vec::new(),
        }
    }

    /// Releases the row cache for reuse by a later engine.
    pub fn into_rows(self) -> RowDb {
        self.implicator.into_rows()
    }

    /// Runs Algorithm 1 for the given `(node, OUTgold)` targets and
    /// returns the resulting vector plus per-target outcomes.
    ///
    /// `implication`/`decision` select the strategy variant; `alpha`
    /// and `beta` are Equation 4's priority weights.
    pub fn generate(
        &mut self,
        targets: &[(NodeId, bool)],
        implication: ImplicationStrategy,
        decision: DecisionStrategy,
        alpha: f64,
        beta: f64,
        rng: &mut impl Rng,
    ) -> GenResult {
        self.values.clear();
        // Line 2: order target nodes by decreasing network depth.
        let mut order: Vec<usize> = (0..targets.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.net.level(targets[i].0)));

        let mut outcomes = vec![TargetOutcome::Conflicted; targets.len()];
        let mut assignments = 0usize;
        let mut decisions = 0usize;
        let mut conflicts = 0usize;

        for &ti in &order {
            let (target, gold) = targets[ti];
            // Line 4: snapshot for rollback.
            let mark = self.values.mark();
            match self.values.get(target) {
                Value::Unknown => {}
                v => {
                    // Already fixed by an earlier target's propagation.
                    outcomes[ti] = if v.to_bool() == Some(gold) {
                        TargetOutcome::Honored
                    } else {
                        TargetOutcome::Preassigned
                    };
                    continue;
                }
            }
            self.values.assign(target, Value::from_bool(gold));
            assignments += 1;
            // Line 6: the DFS fanin cone (its PIs are the goal set).
            // `in_cone` is its visited set and, below, its region mask.
            fanin_cone_into(
                self.net,
                target,
                &mut self.in_cone,
                &mut self.stack,
                &mut self.cone,
            );
            let net = self.net;
            self.cone_pis
                .extend(self.cone.iter().copied().filter(|&n| net.is_pi(n)));

            // Seed propagation with every already-assigned cone node
            // (not just the target): earlier targets may have assigned
            // this cone's PIs from *their* regions without ever
            // examining the gates above them here. Without these seeds
            // the "all cone PIs assigned" exit below can fire while an
            // interior gate still carries an unrealizable obligation,
            // yielding a vector that does not honor the target.
            let values = &self.values;
            self.seeds.clear();
            self.seeds.extend(
                self.cone
                    .iter()
                    .copied()
                    .filter(|&n| n != target && values.is_assigned(n)),
            );
            self.seeds.push(target);
            // Assignments only accumulate until the target is done, so
            // a cone PI found assigned stays assigned.
            let mut pis_done = 0;
            let outcome = loop {
                // Line 9: implication pass from the fresh assignments,
                // confined to the target's fanin cone (listDfs).
                match self.implicator.propagate(
                    &mut self.values,
                    &self.seeds,
                    implication,
                    Some(&self.in_cone),
                ) {
                    Propagation::Conflict(_) => {
                        conflicts += 1;
                        break TargetOutcome::Conflicted;
                    }
                    Propagation::Quiescent(n) => assignments += n,
                }
                // Line 8 condition: all cone PIs set?
                while pis_done < self.cone_pis.len()
                    && self.values.is_assigned(self.cone_pis[pis_done])
                {
                    pis_done += 1;
                }
                if pis_done == self.cone_pis.len() {
                    break TargetOutcome::Honored;
                }
                // Line 15: the most recently updated cone node that
                // still has undecided fanins.
                let Some(candidate) = self.latest_updated() else {
                    // No propagation frontier remains: the leftover
                    // cone PIs are unconstrained don't-cares for this
                    // target, so the OUTgold value is already
                    // guaranteed.
                    break TargetOutcome::Honored;
                };
                // Line 16: decide the candidate's inputs.
                decisions += 1;
                let before = self.values.mark();
                match decide(
                    self.net,
                    &mut self.values,
                    self.implicator.rows_of(candidate),
                    &mut self.mffcs,
                    candidate,
                    decision,
                    alpha,
                    beta,
                    rng,
                ) {
                    Decision::Assigned(n) => {
                        assignments += n;
                        self.seeds.clear();
                        self.seeds
                            .extend_from_slice(self.values.assigned_since(before));
                    }
                    Decision::NoRows => {
                        conflicts += 1;
                        break TargetOutcome::Conflicted;
                    }
                    Decision::Saturated => {
                        // The candidate cannot make progress; rule it
                        // out and look further back on the next scan.
                        self.exhausted[candidate.index()] = true;
                        self.seeds.clear();
                    }
                }
            };
            self.leave_cone();
            if outcome == TargetOutcome::Conflicted {
                // Line 12: drop everything this target assigned.
                self.values.rollback(mark);
            }
            outcomes[ti] = outcome;
        }

        // Complete the vector: assigned PIs keep their value, free PIs
        // are filled randomly.
        let vector: Vec<bool> = self
            .net
            .pis()
            .iter()
            .map(|&pi| match self.values.get(pi) {
                Value::One => true,
                Value::Zero => false,
                Value::Unknown => rng.gen(),
            })
            .collect();
        GenResult {
            outcomes,
            vector,
            assignments,
            decisions,
            conflicts,
        }
    }

    /// Resets the per-target state by walking the cone list: every
    /// `in_cone` and `exhausted` mark lies on it.
    fn leave_cone(&mut self) {
        for &n in &self.cone {
            self.in_cone[n.index()] = false;
            self.exhausted[n.index()] = false;
        }
        self.cone.clear();
        self.cone_pis.clear();
    }

    /// Scans the trail backwards for the most recently assigned cone
    /// node whose output is known but whose fanins are not all
    /// assigned — the next decision candidate. Gates in `exhausted`
    /// (saturated in a previous decision attempt) are skipped so the
    /// loop always terminates.
    fn latest_updated(&self) -> Option<NodeId> {
        for &n in self.values.trail().iter().rev() {
            if !self.in_cone[n.index()] || self.net.is_pi(n) || self.exhausted[n.index()] {
                continue;
            }
            debug_assert!(self.values.is_assigned(n));
            let has_free_fanin = self
                .net
                .fanins(n)
                .iter()
                .any(|&f| !self.values.is_assigned(f));
            if has_free_fanin {
                return Some(n);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simgen_netlist::TruthTable;

    type Rng_ = rand::rngs::StdRng;

    fn engine_cfg() -> (ImplicationStrategy, DecisionStrategy) {
        (ImplicationStrategy::Advanced, DecisionStrategy::DcMffc)
    }

    /// The Figure 1 circuit (see implication tests).
    fn figure1() -> (LutNetwork, NodeId) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let inv = net.add_lut(vec![b], TruthTable::not1()).unwrap();
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![inv, c], TruthTable::nand2()).unwrap();
        let z = net.add_lut(vec![x, y], TruthTable::and2()).unwrap();
        net.add_po(z, "d");
        (net, z)
    }

    #[test]
    fn honors_single_target_both_polarities() {
        let (net, z) = figure1();
        let (imp, dec) = engine_cfg();
        let mut engine = InputVectorGenerator::new(&net);
        let mut rng = Rng_::seed_from_u64(1);
        for gold in [true, false] {
            for trial in 0..20 {
                let r = engine.generate(&[(z, gold)], imp, dec, 100.0, 1.0, &mut rng);
                assert_eq!(
                    r.outcomes[0],
                    TargetOutcome::Honored,
                    "gold {gold} trial {trial}"
                );
                let vals = net.eval(&r.vector);
                assert_eq!(vals[z.index()], gold, "vector must realize OUTgold");
            }
        }
    }

    #[test]
    fn honored_targets_always_get_their_value() {
        // Property: on random networks, whenever the engine reports
        // Honored, simulating the vector yields the OUTgold value.
        use rand::Rng as _;
        let mut rng = Rng_::seed_from_u64(2);
        for seed in 0..15 {
            let mut build = Rng_::seed_from_u64(seed);
            let mut net = LutNetwork::new();
            let mut pool: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
            for _ in 0..25 {
                let k = build.gen_range(1..=3usize);
                let mut fanins = Vec::new();
                while fanins.len() < k {
                    let cand = pool[build.gen_range(0..pool.len())];
                    if !fanins.contains(&cand) {
                        fanins.push(cand);
                    }
                }
                let tt = TruthTable::random(fanins.len(), &mut build);
                pool.push(net.add_lut(fanins, tt).unwrap());
            }
            net.add_po(*pool.last().unwrap(), "f");
            let luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
            let (imp, dec) = engine_cfg();
            let mut engine = InputVectorGenerator::new(&net);
            for _ in 0..10 {
                let t1 = luts[rng.gen_range(0..luts.len())];
                let t2 = luts[rng.gen_range(0..luts.len())];
                if t1 == t2 {
                    continue;
                }
                let targets = [(t1, true), (t2, false)];
                let r = engine.generate(&targets, imp, dec, 100.0, 1.0, &mut rng);
                let vals = net.eval(&r.vector);
                for (o, &(n, gold)) in r.outcomes.iter().zip(&targets) {
                    if *o == TargetOutcome::Honored {
                        assert_eq!(
                            vals[n.index()],
                            gold,
                            "honored target {n} must evaluate to its gold (seed {seed})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deeper_targets_processed_first() {
        // Two targets at different depths with contradictory demands
        // on overlapping logic: the deeper one wins (processed first),
        // the shallow one reports Preassigned or Conflicted.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let n1 = net.add_lut(vec![a], TruthTable::buf1()).unwrap(); // level 1
        let n2 = net.add_lut(vec![n1], TruthTable::buf1()).unwrap(); // level 2
        net.add_po(n2, "f");
        let (imp, dec) = engine_cfg();
        let mut engine = InputVectorGenerator::new(&net);
        let mut rng = Rng_::seed_from_u64(3);
        // n2 (deeper) wants 1, n1 wants 0 — but n2 = n1, contradiction.
        let targets = [(n1, false), (n2, true)];
        let r = engine.generate(&targets, imp, dec, 100.0, 1.0, &mut rng);
        assert_eq!(r.outcomes[1], TargetOutcome::Honored, "deep target first");
        assert_eq!(r.outcomes[0], TargetOutcome::Preassigned);
        assert!(net.eval(&r.vector)[n2.index()]);
    }

    #[test]
    fn splits_targets_criterion() {
        let (net, z) = figure1();
        let (imp, dec) = engine_cfg();
        let mut engine = InputVectorGenerator::new(&net);
        let mut rng = Rng_::seed_from_u64(4);
        // Single polarity: even when honored, it cannot split.
        let targets = [(z, true)];
        let r = engine.generate(&targets, imp, dec, 100.0, 1.0, &mut rng);
        assert!(!r.splits_targets(&targets));
    }

    #[test]
    fn opposite_golds_on_distinct_nodes_split() {
        // Two independent LUTs with opposite golds must both be
        // honored and the criterion satisfied.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let d = net.add_pi("d");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![c, d], TruthTable::or2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        let (imp, dec) = engine_cfg();
        let mut engine = InputVectorGenerator::new(&net);
        let mut rng = Rng_::seed_from_u64(5);
        let targets = [(x, true), (y, false)];
        let r = engine.generate(&targets, imp, dec, 100.0, 1.0, &mut rng);
        assert_eq!(r.outcomes, vec![TargetOutcome::Honored; 2]);
        assert!(r.splits_targets(&targets));
        let vals = net.eval(&r.vector);
        assert!(vals[x.index()] && !vals[y.index()]);
    }

    #[test]
    fn conflicting_second_target_rolls_back_cleanly() {
        // x = a & b; y = !(a & b) (nand over same inputs). Demanding
        // both to 1 is impossible: honoring the first forward-implies
        // the second to 0, so it reports Preassigned (or, with a
        // weaker propagation, Conflicted). Either way exactly one
        // target is honored and the vector realizes it.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![a, b], TruthTable::nand2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        let (imp, dec) = engine_cfg();
        let mut engine = InputVectorGenerator::new(&net);
        let mut rng = Rng_::seed_from_u64(6);
        let targets = [(x, true), (y, true)];
        let r = engine.generate(&targets, imp, dec, 100.0, 1.0, &mut rng);
        let honored: Vec<bool> = r
            .outcomes
            .iter()
            .map(|o| *o == TargetOutcome::Honored)
            .collect();
        assert_eq!(honored.iter().filter(|&&h| h).count(), 1);
        let vals = net.eval(&r.vector);
        for (i, &(n, gold)) in targets.iter().enumerate() {
            if honored[i] {
                assert_eq!(vals[n.index()], gold);
            }
        }
        assert!(r
            .outcomes
            .iter()
            .any(|o| matches!(o, TargetOutcome::Preassigned | TargetOutcome::Conflicted)));
    }

    #[test]
    fn work_counters_are_populated() {
        let (net, z) = figure1();
        let (imp, dec) = engine_cfg();
        let mut engine = InputVectorGenerator::new(&net);
        let mut rng = Rng_::seed_from_u64(7);
        let r = engine.generate(&[(z, false)], imp, dec, 100.0, 1.0, &mut rng);
        assert!(r.assignments >= 1);
        // z=0 requires a decision (x=0 or y=0).
        assert!(r.decisions >= 1);
    }
}
