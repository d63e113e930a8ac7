//! Fanin-region partitioning.
//!
//! A *region* is a connected component of the netlist under fanin
//! edges: two nodes share a region iff their cones overlap somewhere.
//! Pairs in one region share cone structure, so they share one
//! long-lived assumption-scoped [`PairProver`](crate::PairProver) —
//! the shared Tseitin encoding is paid once and learnt clauses carry
//! across the region's miters. Pairs in different regions share
//! nothing, which is what lets the sweeper dispatch whole regions as
//! independent jobs without breaking the jobs-invariance contract.

use std::collections::HashSet;

use simgen_netlist::{LutNetwork, NodeId};

/// Default BDD node limit for the [`EngineMode::BddFirst`] primary and
/// the [`EngineMode::BddOnly`] engine when the budget schedule does not
/// supply one.
///
/// [`EngineMode::BddFirst`]: simgen_dispatch::EngineMode::BddFirst
/// [`EngineMode::BddOnly`]: simgen_dispatch::EngineMode::BddOnly
pub(crate) const DEFAULT_BDD_NODE_LIMIT: usize = 10_000;

/// Floor for the rebuild-bloat baseline: a region whose post-seeding
/// footprint is tiny would otherwise trip the multiple on its very
/// first learnt clauses, churning solvers where reuse is cheapest.
pub(crate) const REBUILD_BASELINE_FLOOR: u64 = 1024;

/// Union-find over fanin edges, partitioning the netlist into
/// cone-connected regions. Construction is a single pass over all
/// edges; lookups use path compression.
#[derive(Clone, Debug)]
pub struct RegionMap {
    parent: Vec<u32>,
}

impl RegionMap {
    /// Partitions `net` by uniting every node with its fanins.
    pub fn new(net: &LutNetwork) -> RegionMap {
        let mut map = RegionMap {
            parent: (0..net.len() as u32).collect(),
        };
        for node in net.node_ids() {
            for &fanin in net.fanins(node) {
                map.union(node.index(), fanin.index());
            }
        }
        map
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] as usize != i {
            let grand = self.parent[self.parent[i] as usize];
            self.parent[i] = grand;
            i = grand as usize;
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Smaller root wins: keys are stable, order-independent
            // names (the minimum node index reachable by roots).
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo as u32;
        }
    }

    /// The region key of a candidate pair: the smaller of the two
    /// nodes' component roots. Deterministic — a pure function of the
    /// netlist — so every worker count groups pairs identically.
    pub fn key(&mut self, a: NodeId, b: NodeId) -> usize {
        let ra = self.find(a.index());
        let rb = self.find(b.index());
        ra.min(rb)
    }
}

/// The union of both nodes' fanin cones (including the roots), used
/// to filter which proven seed equalities a cold per-pair solver
/// replays.
pub(crate) fn cone_union(net: &LutNetwork, a: NodeId, b: NodeId) -> HashSet<NodeId> {
    let mut cone = HashSet::new();
    let mut stack = vec![a, b];
    while let Some(n) = stack.pop() {
        if cone.insert(n) {
            stack.extend_from_slice(net.fanins(n));
        }
    }
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    /// Two disconnected islands: (a & b vs b & a) and (c | d vs d | c).
    fn two_island_net() -> (LutNetwork, [NodeId; 4]) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let d = net.add_pi("d");
        let x1 = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let x2 = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        let y1 = net.add_lut(vec![c, d], TruthTable::or2()).unwrap();
        let y2 = net.add_lut(vec![d, c], TruthTable::or2()).unwrap();
        net.add_po(x1, "x1");
        net.add_po(x2, "x2");
        net.add_po(y1, "y1");
        net.add_po(y2, "y2");
        (net, [x1, x2, y1, y2])
    }

    #[test]
    fn disconnected_cones_land_in_distinct_regions() {
        let (net, [x1, x2, y1, y2]) = two_island_net();
        let mut map = RegionMap::new(&net);
        assert_eq!(map.key(x1, x2), map.key(x1, x1));
        assert_eq!(map.key(y1, y2), map.key(y2, y2));
        assert_ne!(map.key(x1, x2), map.key(y1, y2), "islands are separate");
    }

    #[test]
    fn region_keys_are_order_independent() {
        let (net, [x1, x2, ..]) = two_island_net();
        let mut fwd = RegionMap::new(&net);
        let mut rev = RegionMap::new(&net);
        let k1 = fwd.key(x1, x2);
        let k2 = rev.key(x2, x1);
        assert_eq!(k1, k2);
    }
}
