//! The flat view of a network that guided generation reads.
//!
//! [`LutNetwork`] keeps each node's fanins inside its node record and
//! its fanouts in a `Vec` of their own, so every structural read
//! chases a pointer to a separate heap block. Algorithm 1 makes such a
//! read for every node of every target's cone walk, every gate an
//! implication pass queues and every pin it reads: tens of millions
//! per pass of the benchmark's `simphase-stacked` workload. The engine
//! therefore copies the structure once (per `SimGen::generate` call)
//! into compressed sparse rows, one offset array and one flat node
//! array per direction, plus a PI flag per node, and its cone walks,
//! implication passes and candidate scans read only this copy.

use simgen_netlist::{LutNetwork, NodeId};

/// Per-node node lists in compressed sparse rows: the list of node
/// `n` is `items[start[n]..start[n + 1]]`.
#[derive(Debug)]
struct Csr {
    start: Vec<u32>,
    items: Vec<NodeId>,
}

impl Csr {
    fn new<'a>(net: &'a LutNetwork, list: impl Fn(NodeId) -> &'a [NodeId]) -> Self {
        let mut start = Vec::with_capacity(net.len() + 1);
        let mut items = Vec::new();
        start.push(0);
        for id in net.node_ids() {
            items.extend_from_slice(list(id));
            start.push(u32::try_from(items.len()).expect("fewer than 2^32 edges"));
        }
        Csr { start, items }
    }

    fn get(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }
}

/// Fanins, fanouts and PI flags of one network, in the same orders as
/// [`LutNetwork::fanins`], [`LutNetwork::fanouts`] and
/// [`LutNetwork::is_pi`].
#[derive(Debug)]
pub(crate) struct NetView {
    fanins: Csr,
    fanouts: Csr,
    is_pi: Vec<bool>,
}

impl NetView {
    /// Copies the structure of `net` (one pass over its nodes).
    pub(crate) fn new(net: &LutNetwork) -> Self {
        NetView {
            fanins: Csr::new(net, |n| net.fanins(n)),
            fanouts: Csr::new(net, |n| net.fanouts(n)),
            is_pi: net.node_ids().map(|n| net.is_pi(n)).collect(),
        }
    }

    /// The fanins of `n` by index (empty for PIs and constants).
    #[inline]
    pub(crate) fn fanins(&self, n: NodeId) -> &[NodeId] {
        self.fanins.get(n)
    }

    /// The gates that list `n` as a fanin, in network order.
    #[inline]
    pub(crate) fn fanouts(&self, n: NodeId) -> &[NodeId] {
        self.fanouts.get(n)
    }

    /// True if `n` is a primary input.
    #[inline]
    pub(crate) fn is_pi(&self, n: NodeId) -> bool {
        self.is_pi[n.index()]
    }

    /// Appends the fanin cone of `root` to `cone` in DFS pre-order
    /// from the root (Algorithm 1's `listDfs`, the order of
    /// `simgen_netlist::cone::fanin_cone_dfs`), marking each node it
    /// appends in `visited`.
    ///
    /// A node already marked counts as outside the cone, so pass an
    /// all-false mask for the full cone and reset it by walking
    /// `cone`. `stack` is scratch space and is left empty.
    pub(crate) fn fanin_cone(
        &self,
        root: NodeId,
        visited: &mut [bool],
        stack: &mut Vec<NodeId>,
        cone: &mut Vec<NodeId>,
    ) {
        stack.push(root);
        while let Some(n) = stack.pop() {
            if visited[n.index()] {
                continue;
            }
            visited[n.index()] = true;
            cone.push(n);
            for &f in self.fanins(n).iter().rev() {
                if !visited[f.index()] {
                    stack.push(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simgen_netlist::cone::fanin_cone_dfs;
    use simgen_netlist::TruthTable;

    /// A seeded random network of 6 PIs and 25 LUTs of 1–3 distinct
    /// fanins, built as the engine's `honored_targets_always_get_their_value`
    /// test builds its networks, with a constant and a LUT that lists
    /// one fanin twice mixed in.
    fn random_net(seed: u64) -> LutNetwork {
        let mut build = StdRng::seed_from_u64(seed);
        let mut net = LutNetwork::new();
        let mut pool: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        pool.push(net.add_const(seed.is_multiple_of(2)));
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
        let twice = pool[build.gen_range(0..pool.len())];
        let tt = TruthTable::random(2, &mut build);
        pool.push(net.add_lut(vec![twice, twice], tt).unwrap());
        net.add_po(*pool.last().unwrap(), "f");
        net
    }

    #[test]
    fn the_view_lists_what_the_network_lists() {
        for seed in 0..20 {
            let net = random_net(seed);
            let view = NetView::new(&net);
            for n in net.node_ids() {
                assert_eq!(view.fanins(n), net.fanins(n), "fanins of {n} (seed {seed})");
                assert_eq!(
                    view.fanouts(n),
                    net.fanouts(n),
                    "fanouts of {n} (seed {seed})"
                );
                assert_eq!(view.is_pi(n), net.is_pi(n), "pi flag of {n} (seed {seed})");
            }
        }
    }

    #[test]
    fn the_cone_walk_is_fanin_cone_dfs() {
        for seed in 0..20 {
            let net = random_net(seed);
            let view = NetView::new(&net);
            let mut visited = vec![false; net.len()];
            let mut stack = Vec::new();
            let mut cone = Vec::new();
            for root in net.node_ids() {
                view.fanin_cone(root, &mut visited, &mut stack, &mut cone);
                assert_eq!(
                    cone,
                    fanin_cone_dfs(&net, root),
                    "cone of {root} (seed {seed})"
                );
                assert!(stack.is_empty());
                for &n in &cone {
                    assert!(visited[n.index()]);
                    visited[n.index()] = false;
                }
                assert!(visited.iter().all(|&v| !v), "only cone nodes are marked");
                cone.clear();
            }
        }
    }
}
