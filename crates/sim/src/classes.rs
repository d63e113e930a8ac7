//! Equivalence classes over simulation signatures, and the paper's
//! class cost metric.
//!
//! Two nodes share a class when every simulated pattern gave them the
//! same value. The sweeping flow repeatedly *refines* the partition as
//! new patterns arrive; refinement never merges, so class count grows
//! monotonically and the cost (Equation 5) monotonically falls.

use std::collections::HashMap;

use simgen_netlist::{LutNetwork, NodeId};

use crate::simulator::SimResult;

/// A partition of LUT nodes into simulation-equivalence classes.
///
/// Singleton classes are dropped: a node with a unique signature can
/// never be merged with anything and needs no SAT query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EquivClasses {
    classes: Vec<Vec<NodeId>>,
    /// Pattern count this partition has already been refined against;
    /// [`EquivClasses::refine`] only hashes signature words appended
    /// since (delta refinement).
    refined_patterns: usize,
}

impl EquivClasses {
    /// Builds the initial partition of all LUT nodes (PIs excluded)
    /// from a simulation result.
    pub fn initial(net: &LutNetwork, sim: &SimResult) -> Self {
        let luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
        Self::from_nodes(&luts, sim)
    }

    /// Builds a partition of an explicit node set by signature.
    pub fn from_nodes(nodes: &[NodeId], sim: &SimResult) -> Self {
        let mut groups: HashMap<&[u64], Vec<NodeId>> = HashMap::new();
        for &n in nodes {
            groups.entry(sim.signature(n)).or_default().push(n);
        }
        let mut classes: Vec<Vec<NodeId>> = groups.into_values().filter(|g| g.len() > 1).collect();
        // Deterministic order: by smallest member id.
        classes.sort_by_key(|c| c.iter().min().copied());
        EquivClasses {
            classes,
            refined_patterns: sim.num_patterns(),
        }
    }

    /// Refines every class against a new simulation result, splitting
    /// members whose signatures now differ. Returns the number of new
    /// classes created (splits).
    ///
    /// Only the signature words holding patterns appended since the
    /// previous refinement are hashed: classmates are already equal on
    /// every earlier pattern (the class invariant), so grouping *within
    /// a class* by the new words alone produces exactly the partition
    /// full-signature hashing would — at O(new words) per node instead
    /// of O(all words). `sim` must therefore be an extension of the
    /// result this partition was last refined against.
    pub fn refine(&mut self, sim: &SimResult) -> usize {
        // Words at or past this index carry at least one new pattern;
        // re-hashing the (possibly partially old) boundary word is
        // harmless because classmates agree on its old bits.
        let from = if sim.num_patterns() >= self.refined_patterns {
            self.refined_patterns / 64
        } else {
            0
        };
        let old_len = self.total_classes_including_singletons();
        let mut next: Vec<Vec<NodeId>> = Vec::with_capacity(self.classes.len());
        let mut new_singletons = 0usize;
        for class in self.classes.drain(..) {
            let mut groups: HashMap<&[u64], Vec<NodeId>> = HashMap::new();
            for &n in &class {
                let sig = sim.signature(n);
                groups
                    .entry(&sig[from.min(sig.len())..])
                    .or_default()
                    .push(n);
            }
            for (_, g) in groups {
                if g.len() > 1 {
                    next.push(g);
                } else {
                    new_singletons += 1;
                }
            }
        }
        next.sort_by_key(|c| c.iter().min().copied());
        self.classes = next;
        self.refined_patterns = sim.num_patterns();
        let new_len = self.total_classes_including_singletons() + new_singletons;
        new_len - old_len
    }

    fn total_classes_including_singletons(&self) -> usize {
        self.classes.len()
    }

    /// The classes (each with at least two members).
    pub fn classes(&self) -> &[Vec<NodeId>] {
        &self.classes
    }

    /// Number of (non-singleton) classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if every node is in a singleton class (sweep done).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The paper's Equation (5): `Σ_i (size(i) − 1)` — the worst-case
    /// number of SAT calls needed to resolve the partition.
    pub fn cost(&self) -> u64 {
        self.classes.iter().map(|c| (c.len() - 1) as u64).sum()
    }

    /// Total number of nodes still inside multi-member classes.
    pub fn num_members(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternSet;
    use crate::simulator::simulate;
    use simgen_netlist::TruthTable;

    /// Network with two equal ANDs, two equal XORs and one OR.
    fn test_net() -> (LutNetwork, [NodeId; 5]) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let and1 = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let and2 = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        let xor1 = net.add_lut(vec![a, b], TruthTable::xor2()).unwrap();
        let xor2 = net.add_lut(vec![b, a], TruthTable::xor2()).unwrap();
        let or1 = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(or1, "o");
        net.add_po(and1, "p");
        net.add_po(xor1, "q");
        (net, [and1, and2, xor1, xor2, or1])
    }

    fn exhaustive_patterns() -> PatternSet {
        let vectors: Vec<Vec<bool>> = (0..4u32).map(|m| vec![m & 1 == 1, m & 2 == 2]).collect();
        PatternSet::from_vectors(2, &vectors)
    }

    #[test]
    fn exhaustive_simulation_finds_true_classes() {
        let (net, [and1, and2, xor1, xor2, or1]) = test_net();
        let sim = simulate(&net, &exhaustive_patterns());
        let classes = EquivClasses::initial(&net, &sim);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.cost(), 2);
        let flat: Vec<&Vec<NodeId>> = classes.classes().iter().collect();
        assert!(flat.contains(&&vec![and1, and2]));
        assert!(flat.contains(&&vec![xor1, xor2]));
        assert!(!flat.iter().any(|c| c.contains(&or1)));
    }

    #[test]
    fn under_one_pattern_everything_collides() {
        let (net, _) = test_net();
        // Pattern (0,0): and=0, xor=0, or=0 — all five in one class.
        let patterns = PatternSet::from_vectors(2, &[vec![false, false]]);
        let sim = simulate(&net, &patterns);
        let classes = EquivClasses::initial(&net, &sim);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes.cost(), 4);
    }

    #[test]
    fn refine_splits_with_new_patterns() {
        let (net, _) = test_net();
        let p1 = PatternSet::from_vectors(2, &[vec![false, false]]);
        let sim1 = simulate(&net, &p1);
        let mut classes = EquivClasses::initial(&net, &sim1);
        assert_eq!(classes.cost(), 4);
        // Add pattern (1,0): and=0, xor=1, or=1.
        let mut p2 = p1.clone();
        p2.push(&[true, false]);
        let sim2 = simulate(&net, &p2);
        classes.refine(&sim2);
        // Now {and1,and2} and {xor1,xor2,or1}.
        assert_eq!(classes.len(), 2);
        assert_eq!(classes.cost(), 3);
        // Pattern (1,1): xor=0, or=1 splits the rest.
        p2.push(&[true, true]);
        let sim3 = simulate(&net, &p2);
        classes.refine(&sim3);
        assert_eq!(classes.cost(), 2);
        // Refining with the same patterns changes nothing.
        let before = classes.clone();
        classes.refine(&sim3);
        assert_eq!(classes, before);
    }

    #[test]
    fn cost_is_monotone_under_refinement() {
        use rand::SeedableRng;
        let (net, _) = test_net();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut patterns = PatternSet::random(2, 1, &mut rng);
        let sim = simulate(&net, &patterns);
        let mut classes = EquivClasses::initial(&net, &sim);
        let mut last_cost = classes.cost();
        for _ in 0..5 {
            let extra = PatternSet::random(2, 1, &mut rng);
            patterns.extend(&extra);
            let sim = simulate(&net, &patterns);
            classes.refine(&sim);
            assert!(classes.cost() <= last_cost);
            last_cost = classes.cost();
        }
    }

    #[test]
    fn empty_when_all_distinct() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        let sim = simulate(&net, &exhaustive_patterns());
        let classes = EquivClasses::initial(&net, &sim);
        assert!(classes.is_empty());
        assert_eq!(classes.cost(), 0);
        assert_eq!(classes.num_members(), 0);
    }

    #[test]
    fn delta_refinement_equals_full_signature_refinement() {
        use rand::SeedableRng;
        use simgen_netlist::NodeId;
        // Incremental delta refinement (hashing only newly appended
        // words) must land on exactly the partition a from-scratch
        // full-signature grouping of the same universe produces, even
        // when refinements happen at unaligned pattern counts.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..4).map(|i| net.add_pi(format!("p{i}"))).collect();
        let mut pool = pis.clone();
        for i in 0..30usize {
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
        let luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();

        let mut sim = SimResult::empty(&net);
        let first = PatternSet::random(net.num_pis(), 3, &mut rng);
        sim.extend_patterns(&net, &first);
        let mut delta = EquivClasses::initial(&net, &sim);
        // Unaligned chunk sizes force refinements mid-word and across
        // word boundaries.
        for chunk in [1usize, 60, 5, 64, 37] {
            let extra = PatternSet::random(net.num_pis(), chunk, &mut rng);
            sim.extend_patterns(&net, &extra);
            delta.refine(&sim);
            let full = EquivClasses::from_nodes(&luts, &sim);
            assert_eq!(
                delta.classes(),
                full.classes(),
                "after {} patterns",
                sim.num_patterns()
            );
        }
    }

    #[test]
    fn from_nodes_restricts_the_universe() {
        let (net, [and1, and2, xor1, _xor2, _or1]) = test_net();
        let sim = simulate(&net, &exhaustive_patterns());
        let classes = EquivClasses::from_nodes(&[and1, and2, xor1], &sim);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes.classes()[0], vec![and1, and2]);
    }
}
