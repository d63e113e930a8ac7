//! The flat view of a network that guided generation reads, and the
//! fanin cones of its targets, 64 at a time.
//!
//! [`LutNetwork`] keeps each node's fanins inside its node record and
//! its fanouts in a `Vec` of their own, so every structural read
//! chases a pointer to a separate heap block. Algorithm 1 makes such a
//! read for every gate an implication pass queues and every pin it
//! reads: tens of millions per pass of the benchmark's
//! `simphase-stacked` workload. The engine therefore copies the
//! structure once (per `SimGen::generate` call) into compressed sparse
//! rows, one offset array and one flat node array per direction, plus
//! a PI flag and a truth table per node, and its implication passes,
//! seed orderings and candidate scans read only this copy. Each gate's
//! truth table is stored repeated across all 64 minterms of six
//! inputs, so that a fanin the gate lacks is a don't-care bit and the
//! implicator reads the function with mask arithmetic alone.
//!
//! Algorithm 1 confines each target's passes to the target's fanin
//! cone (`listDfs`) and takes the cone's PIs as its goal. The targets
//! of one call share most of their cones, so [`ConeBatch`] answers
//! membership for up to 64 targets from one sweep: since
//! `LutNetwork::add_lut` rejects a fanin that does not exist yet,
//! every fanin has a lower index than its gate, and one pass over the
//! node indices from the batch's highest target down to 0 carries each
//! target's bit from every cone node to its fanins. One pass over the
//! PIs then lists each cone's PIs.

use simgen_netlist::truth::MAX_ARITY;
use simgen_netlist::{LutNetwork, NodeId, TruthTable};

use crate::rows::members;

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

/// Fanins, fanouts, PI flags and PIs of one network, in the same
/// orders as [`LutNetwork::fanins`], [`LutNetwork::fanouts`],
/// [`LutNetwork::is_pi`] and [`LutNetwork::pis`], and each gate's
/// truth table repeated across 64 minterms.
#[derive(Debug)]
pub(crate) struct NetView {
    fanins: Csr,
    fanouts: Csr,
    is_pi: Vec<bool>,
    pis: Vec<NodeId>,
    truth: Vec<u64>,
}

impl NetView {
    /// Copies the structure of `net` (one pass over its nodes).
    pub(crate) fn new(net: &LutNetwork) -> Self {
        NetView {
            fanins: Csr::new(net, |n| net.fanins(n)),
            fanouts: Csr::new(net, |n| net.fanouts(n)),
            is_pi: net.node_ids().map(|n| net.is_pi(n)).collect(),
            pis: net.pis().to_vec(),
            truth: net
                .node_ids()
                .map(|n| net.truth_table(n).map_or(0, repeated))
                .collect(),
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

    /// The gate's function over all 64 minterms of six inputs: bit `m`
    /// is its output when fanin `i` carries bit `i` of `m`, whatever
    /// the bits of fanins it does not have. Zero for PIs.
    #[inline]
    pub(crate) fn truth(&self, gate: NodeId) -> u64 {
        self.truth[gate.index()]
    }

    /// Appends the fanin cone of `root` to `cone` in DFS pre-order
    /// from the root (the order of Algorithm 1's `listDfs` and of
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

/// `tt` repeated across 64 minterms: minterm `m` reads `tt` at the
/// low `tt.arity()` bits of `m`.
fn repeated(tt: &TruthTable) -> u64 {
    let mut bits = tt.bits();
    for var in tt.arity()..MAX_ARITY {
        bits |= bits << (1 << var);
    }
    bits
}

/// Most targets one [`ConeBatch`] holds: one bit of a `u64` each.
pub(crate) const BATCH: usize = 64;

/// The fanin cones of up to [`BATCH`] targets: bit `j` of node `n`'s
/// word is set when `n` lies in the fanin cone of target `j` (the
/// target included), and each cone's PIs are listed in network PI
/// order. Words above the batch's highest target stay zero, so a
/// refill clears only the words the last sweep reached.
#[derive(Debug)]
pub(crate) struct ConeBatch {
    bits: Vec<u64>,
    /// One past the highest node index whose word may be non-zero.
    reach: usize,
    pis: Vec<Vec<NodeId>>,
}

impl ConeBatch {
    /// An empty batch for a network of `len` nodes.
    pub(crate) fn new(len: usize) -> Self {
        ConeBatch {
            bits: vec![0; len],
            reach: 0,
            pis: vec![Vec::new(); BATCH],
        }
    }

    /// Replaces the batch with the cones of `targets`, target `j` at
    /// bit `j`: one sweep over the node indices from the highest
    /// target down, and one pass over the PIs.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`BATCH`] targets.
    pub(crate) fn fill(&mut self, view: &NetView, targets: impl IntoIterator<Item = NodeId>) {
        self.bits[..self.reach].fill(0);
        for pis in &mut self.pis {
            pis.clear();
        }
        self.reach = 0;
        for (j, t) in targets.into_iter().enumerate() {
            assert!(j < BATCH, "a batch holds at most {BATCH} targets");
            self.bits[t.index()] |= 1 << j;
            self.reach = self.reach.max(t.index() + 1);
        }
        for n in (0..self.reach).rev() {
            let word = self.bits[n];
            if word != 0 {
                for &f in view.fanins(NodeId::from_index(n)) {
                    debug_assert!(f.index() < n, "fanins precede their gate");
                    self.bits[f.index()] |= word;
                }
            }
        }
        for &pi in &view.pis {
            for j in members(self.bits[pi.index()]) {
                self.pis[j].push(pi);
            }
        }
    }

    /// Every node's cone word: bit `j` marks target `j`'s cone.
    #[inline]
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// The PIs of target `j`'s cone, in network PI order.
    pub(crate) fn pis(&self, j: usize) -> &[NodeId] {
        &self.pis[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simgen_netlist::cone::{cone_pis, fanin_cone_dfs, multi_fanin_cone_mask};
    use simgen_netlist::stack::put_on_top;
    use simgen_workloads::benchmark_network;

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
                let Some(tt) = net.truth_table(n) else {
                    assert_eq!(view.truth(n), 0, "pis have no function");
                    continue;
                };
                let inputs = (1u64 << tt.arity()) - 1;
                for m in 0..64u64 {
                    assert_eq!(
                        (view.truth(n) >> m) & 1 == 1,
                        tt.eval(m & inputs),
                        "minterm {m} of {n} (seed {seed})"
                    );
                }
            }
            assert_eq!(view.pis, net.pis(), "pis (seed {seed})");
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

    /// `len` targets drawn from `pool` in turn (repeating it when it is
    /// shorter), in Algorithm 1's order: deepest first, ties in draw
    /// order.
    fn level_order(net: &LutNetwork, pool: &[NodeId], len: usize) -> Vec<NodeId> {
        let mut targets: Vec<NodeId> = pool.iter().copied().cycle().take(len).collect();
        targets.sort_by_key(|&t| std::cmp::Reverse(net.level(t)));
        targets
    }

    /// Fills one [`ConeBatch`] with each batch of 1, 63, 64 and 65
    /// targets in level order and checks every cone word and PI list
    /// against the netlist's own single-root cone functions.
    fn batches_match_single_cones(net: &LutNetwork, pool: &[NodeId]) {
        let view = NetView::new(net);
        let mut batch = ConeBatch::new(net.len());
        for len in [1, 63, 64, 65] {
            let targets = level_order(net, pool, len);
            for chunk in targets.chunks(BATCH) {
                batch.fill(&view, chunk.iter().copied());
                for (j, &t) in chunk.iter().enumerate() {
                    let cone = multi_fanin_cone_mask(net, &[t]);
                    for n in net.node_ids() {
                        assert_eq!(
                            batch.bits()[n.index()] >> j & 1 == 1,
                            cone[n.index()],
                            "node {n} in the cone of target {j} = {t} ({len} targets)"
                        );
                    }
                    let mut pis = batch.pis(j).to_vec();
                    let mut expected = cone_pis(net, t);
                    pis.sort();
                    expected.sort();
                    assert_eq!(pis, expected, "pis of target {j} = {t} ({len} targets)");
                }
                let unused = u64::MAX.checked_shl(chunk.len() as u32).unwrap_or(0);
                assert!(
                    batch.bits().iter().all(|&word| word & unused == 0),
                    "bits of unused slots stay clear ({len} targets)"
                );
                assert!((chunk.len()..BATCH).all(|j| batch.pis(j).is_empty()));
            }
        }
    }

    #[test]
    fn batch_cones_are_single_target_cones_on_random_networks() {
        // Every node, PIs and the constant included, drawn in turn.
        for seed in 0..20 {
            let net = random_net(seed);
            let pool: Vec<NodeId> = net.node_ids().collect();
            batches_match_single_cones(&net, &pool);
        }
    }

    #[test]
    fn batch_cones_are_single_target_cones_on_a_stacked_benchmark() {
        // Three stacked copies of e64 plus a constant, which becomes
        // the highest node index; the pool spreads over every level.
        let mut net = put_on_top(&benchmark_network("e64", 6).expect("known benchmark"), 3);
        let constant = net.add_const(true);
        let step = net.len() / 70;
        let mut pool: Vec<NodeId> = net.node_ids().step_by(step).collect();
        pool.extend([net.pis()[0], constant]);
        let deepest = pool.iter().map(|&n| net.level(n)).max();
        assert!(deepest >= Some(net.depth() / 2), "deep targets too");
        batches_match_single_cones(&net, &pool);
    }
}
