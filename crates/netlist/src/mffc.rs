//! Maximum fanout-free cones (MFFCs) and the depth metric of the
//! paper's Equation (2).
//!
//! The MFFC of a node `n` is the largest fanin sub-cone whose every
//! internal node reaches the POs only through `n`. Nodes inside the
//! MFFC of `n` can be assigned values during a propagation from `n`
//! without risking conflicts with propagations from other outputs —
//! the structural insight behind SimGen's MFFC decision heuristic
//! (Section 5).
//!
//! We compute MFFCs with the classic reference-count dereferencing
//! walk used by ABC and mockturtle: temporarily "delete" `n` by
//! decrementing its fanins' reference counts; any node whose count
//! drops to zero is inside the MFFC, recursively.

use crate::id::NodeId;
use crate::network::LutNetwork;

/// The maximum fanout-free cone of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mffc {
    /// The cone's output (the node the MFFC belongs to).
    pub root: NodeId,
    /// Interior nodes (LUTs whose every path to a PO passes through
    /// `root`), *including* `root` itself.
    pub interior: Vec<NodeId>,
    /// The cone's leaves: fanins of interior nodes that are not
    /// themselves interior (PIs or shared LUTs).
    pub leaves: Vec<NodeId>,
}

impl Mffc {
    /// Number of interior nodes (the conventional "MFFC size").
    pub fn size(&self) -> usize {
        self.interior.len()
    }

    /// The paper's Equation (2): the average level gap between the
    /// root and each leaf,
    /// `depth = Σ_leaf (level(root) − level(leaf)) / N_leaves`.
    ///
    /// Returns `0.0` for a cone with no leaves (cannot happen for
    /// well-formed networks, but kept total for safety).
    pub fn depth(&self, net: &LutNetwork) -> f64 {
        equation2(net, self.root, &self.leaves)
    }
}

fn equation2(net: &LutNetwork, root: NodeId, leaves: &[NodeId]) -> f64 {
    if leaves.is_empty() {
        return 0.0;
    }
    let root_level = net.level(root) as f64;
    let total: f64 = leaves
        .iter()
        .map(|&l| root_level - net.level(l) as f64)
        .sum();
    total / leaves.len() as f64
}

/// Reference counts (fanout + PO references) for every node.
pub fn reference_counts(net: &LutNetwork) -> Vec<u32> {
    let mut refs = vec![0u32; net.len()];
    for id in net.node_ids() {
        for &f in net.fanins(id) {
            refs[f.index()] += 1;
        }
    }
    for po in net.pos() {
        refs[po.node.index()] += 1;
    }
    refs
}

/// Walks many MFFCs of one network without allocating per walk.
///
/// The walker computes [`reference_counts`] once and owns a node mark
/// and the interior, leaf and undo lists. A walk decrements and then
/// restores the counts, and clears the marks by walking the lists it
/// filled, so every buffer is ready for the next root.
#[derive(Clone, Debug)]
pub struct MffcWalker {
    refs: Vec<u32>,
    mark: Vec<bool>,
    interior: Vec<NodeId>,
    leaves: Vec<NodeId>,
    touched: Vec<NodeId>,
}

impl MffcWalker {
    /// Creates a walker for `net` (one O(n) reference-count pass).
    pub fn new(net: &LutNetwork) -> Self {
        MffcWalker {
            refs: reference_counts(net),
            mark: vec![false; net.len()],
            interior: Vec::new(),
            leaves: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Walks the MFFC of `root` into `interior` (root first) and
    /// `leaves` (first-seen order).
    fn walk(&mut self, net: &LutNetwork, root: NodeId) {
        self.interior.clear();
        self.leaves.clear();
        self.touched.clear();
        deref_rec(
            net,
            root,
            &mut self.refs,
            &mut self.interior,
            &mut self.touched,
            true,
        );
        // Restore the reference counts we decremented.
        for &t in &self.touched {
            self.refs[t.index()] += 1;
        }
        // Leaves: fanins of interior nodes that are not interior, in
        // first-seen order. One mark covers both sets.
        for &n in &self.interior {
            self.mark[n.index()] = true;
        }
        for &n in &self.interior {
            for &f in net.fanins(n) {
                if !self.mark[f.index()] {
                    self.mark[f.index()] = true;
                    self.leaves.push(f);
                }
            }
        }
        for &n in self.interior.iter().chain(&self.leaves) {
            self.mark[n.index()] = false;
        }
    }

    /// The MFFC of `root`, as an owned value.
    pub fn mffc(&mut self, net: &LutNetwork, root: NodeId) -> Mffc {
        self.walk(net, root);
        Mffc {
            root,
            interior: self.interior.clone(),
            leaves: self.leaves.clone(),
        }
    }

    /// The Equation (2) depth of `root`'s MFFC (see [`Mffc::depth`]).
    pub fn depth(&mut self, net: &LutNetwork, root: NodeId) -> f64 {
        self.walk(net, root);
        equation2(net, root, &self.leaves)
    }
}

fn deref_rec(
    net: &LutNetwork,
    node: NodeId,
    refs: &mut [u32],
    interior: &mut Vec<NodeId>,
    touched: &mut Vec<NodeId>,
    is_root: bool,
) {
    // PIs never belong to an MFFC interior.
    if net.is_pi(node) {
        return;
    }
    if !is_root && refs[node.index()] != 0 {
        return;
    }
    interior.push(node);
    for &f in net.fanins(node) {
        debug_assert!(refs[f.index()] > 0);
        refs[f.index()] -= 1;
        touched.push(f);
        if refs[f.index()] == 0 {
            deref_rec(net, f, refs, interior, touched, false);
        }
    }
}

/// The MFFC of one node (a one-shot [`MffcWalker`]).
pub fn mffc_of(net: &LutNetwork, root: NodeId) -> Mffc {
    MffcWalker::new(net).mffc(net, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::TruthTable;

    /// The Figure 4 shape: two POs sharing an internal node `y`.
    ///
    /// z = x_out ∘ y_out, t = y_out ∘ e — so x is in z's MFFC but y is
    /// in nobody's MFFC (it feeds both z and t).
    fn figure4() -> (LutNetwork, [NodeId; 7]) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let e = net.add_pi("e");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![b, c], TruthTable::or2()).unwrap();
        let z = net.add_lut(vec![x, y], TruthTable::nand2()).unwrap();
        let t = net.add_lut(vec![y, e], TruthTable::and2()).unwrap();
        net.add_po(z, "d");
        net.add_po(t, "t");
        (net, [a, b, c, e, x, y, z])
    }

    #[test]
    fn shared_node_excluded() {
        let (net, [_a, _b, _c, _e, x, y, z]) = figure4();
        let m = mffc_of(&net, z);
        assert!(m.interior.contains(&z));
        assert!(m.interior.contains(&x), "x leads only to z");
        assert!(!m.interior.contains(&y), "y also feeds t");
        assert_eq!(m.size(), 2);
    }

    #[test]
    fn leaves_are_boundary() {
        let (net, [a, b, _c, _e, _x, y, z]) = figure4();
        let m = mffc_of(&net, z);
        let mut leaves = m.leaves.clone();
        leaves.sort();
        // Leaves: a, b (fanins of x) and y (shared fanin of z).
        assert_eq!(leaves, vec![a, b, y]);
    }

    #[test]
    fn walker_state_is_restored_after_each_walk() {
        let (net, ids) = figure4();
        let mut walker = MffcWalker::new(&net);
        for &root in ids.iter().chain(ids.iter().rev()) {
            let _ = walker.mffc(&net, root);
            assert_eq!(walker.refs, reference_counts(&net));
            assert!(walker.mark.iter().all(|&m| !m), "marks cleared");
        }
        // A reused walker agrees with a fresh one on every root.
        for &root in &ids {
            assert_eq!(walker.mffc(&net, root), mffc_of(&net, root));
            let depth = walker.depth(&net, root);
            assert_eq!(depth, mffc_of(&net, root).depth(&net));
        }
    }

    #[test]
    fn chain_mffc_spans_whole_chain() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let n1 = net.add_lut(vec![a], TruthTable::not1()).unwrap();
        let n2 = net.add_lut(vec![n1], TruthTable::not1()).unwrap();
        let n3 = net.add_lut(vec![n2], TruthTable::not1()).unwrap();
        net.add_po(n3, "f");
        let m = mffc_of(&net, n3);
        assert_eq!(m.size(), 3);
        assert_eq!(m.leaves, vec![a]);
        assert!((m.depth(&net) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pi_root_is_empty() {
        let (net, [a, ..]) = figure4();
        let m = mffc_of(&net, a);
        assert_eq!(m.size(), 0);
        assert!(m.leaves.is_empty());
        assert_eq!(m.depth(&net), 0.0);
    }

    #[test]
    fn depth_matches_equation2_example() {
        // Reproduce the paper's Figure 4.c arithmetic: an MFFC whose
        // output is at level 3 with leaves at levels 1, 2 and 3 has
        // depth ((3-1)+(3-2)+(3-3))/3 = 1.
        let mut net = LutNetwork::new();
        let p = net.add_pi("p");
        let q = net.add_pi("q");
        let r = net.add_pi("r");
        let s = net.add_pi("s");
        let m1 = net.add_lut(vec![p, q], TruthTable::and2()).unwrap(); // level 1
        let n1 = net.add_lut(vec![m1, r], TruthTable::or2()).unwrap(); // level 2
        let y1 = net.add_lut(vec![n1, s], TruthTable::and2()).unwrap(); // level 3
                                                                        // Make m1, n1, y1 shared so they become leaves of the root's MFFC.
        net.add_po(m1, "po_m");
        net.add_po(n1, "po_n");
        net.add_po(y1, "po_y");
        let g1 = net.add_lut(vec![m1, n1], TruthTable::and2()).unwrap(); // level 3
        let root = net.add_lut(vec![g1, y1], TruthTable::or2()).unwrap(); // level 4
        net.add_po(root, "f");
        let m = mffc_of(&net, root);
        // Interior: root and g1. Leaves: m1 (level 1), n1 (level 2), y1 (level 3).
        assert_eq!(m.size(), 2);
        let mut leaves = m.leaves.clone();
        leaves.sort();
        assert_eq!(leaves, vec![m1, n1, y1]);
        assert_eq!(net.level(root), 4);
        let expected = ((4.0 - 1.0) + (4.0 - 2.0) + (4.0 - 3.0)) / 3.0;
        assert!((m.depth(&net) - expected).abs() < 1e-12);
    }
}
