//! Word-parallel network simulation over compiled kernels.
//!
//! [`simulate`] and the incremental [`SimResult`] methods execute the
//! flat opcode tapes built by [`crate::kernel::CompiledNet`] — a
//! one-time compilation pass per network — over multi-word blocks
//! with cache-blocked lanes. The previous implementation, which
//! re-interpreted each LUT's on-set cube cover per word, is preserved
//! as [`simulate_reference`] (tests and the `reference` feature) and
//! pins the kernels' semantics.

use std::sync::Arc;

use simgen_netlist::cone::multi_fanin_cone_mask;
use simgen_netlist::levels::levelized_order;
use simgen_netlist::{LutNetwork, NodeId};

use crate::kernel::CompiledNet;
use crate::patterns::{splice_bits, PatternSet};

/// Execution totals a [`SimResult`] accumulates over its lifetime:
/// how many kernel block executions ran, how much lane data they
/// computed, and how many went through the cone-restricted or scalar
/// paths. Counted at call granularity (one bump per block, not per
/// word), so keeping them always-on costs nothing measurable; the
/// observability layer copies them into run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Kernel block executions (full-net or cone-restricted).
    pub exec_calls: u64,
    /// Lane-words computed across all block executions
    /// (`words-per-block × nodes-in-order`, summed).
    pub exec_words: u64,
    /// Patterns appended across all block executions (the numerator
    /// of a patterns-per-second rate; scalar pushes not included).
    pub exec_patterns: u64,
    /// Cone-restricted executions among `exec_calls`.
    pub cone_exec_calls: u64,
    /// Single patterns appended through the scalar path.
    pub scalar_pushes: u64,
}

/// The simulation signature of every node over a pattern set.
///
/// Holds the compiled kernels of its network so incremental extension
/// never recompiles; two results compare equal on pattern count and
/// lanes alone.
#[derive(Clone, Debug)]
pub struct SimResult {
    num_patterns: usize,
    /// `lanes[node][w]`: the node's value bits for patterns `64w..`.
    lanes: Vec<Vec<u64>>,
    kernel: Arc<CompiledNet>,
    exec: ExecStats,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        self.num_patterns == other.num_patterns && self.lanes == other.lanes
    }
}

impl Eq for SimResult {}

impl SimResult {
    /// An empty result for incremental simulation (zero patterns).
    /// Compiles the network's kernels once, up front.
    pub fn empty(net: &LutNetwork) -> Self {
        SimResult {
            num_patterns: 0,
            lanes: vec![Vec::new(); net.len()],
            kernel: Arc::new(CompiledNet::compile(net)),
            exec: ExecStats::default(),
        }
    }

    /// Execution totals accumulated so far (see [`ExecStats`]).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec
    }

    /// Memory diagnostics of the backing kernel (see
    /// [`crate::PoolStats`]).
    pub fn pool_stats(&self) -> crate::PoolStats {
        self.kernel.pool_stats()
    }

    /// The compiled kernel backing this result.
    pub fn kernel(&self) -> &CompiledNet {
        &self.kernel
    }

    /// Number of simulated patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of nodes covered by this result.
    pub fn num_nodes(&self) -> usize {
        self.lanes.len()
    }

    /// Appends one pattern incrementally: a scalar evaluation of the
    /// network (O(nodes)) plus a bit append per lane — far cheaper
    /// than resimulating the whole accumulated pattern set when
    /// vectors arrive one at a time. `scratch` is the evaluation
    /// buffer, reused across calls by the sweeper's guided phase.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the network's PI count.
    pub fn push_pattern_with(
        &mut self,
        net: &LutNetwork,
        vector: &[bool],
        scratch: &mut Vec<bool>,
    ) {
        net.eval_into(vector, scratch);
        let word = self.num_patterns / 64;
        let bit = self.num_patterns % 64;
        for (lane, &v) in self.lanes.iter_mut().zip(scratch.iter()) {
            if bit == 0 {
                lane.push(0);
            }
            if v {
                lane[word] |= 1 << bit;
            }
        }
        self.num_patterns += 1;
        self.exec.scalar_pushes += 1;
    }

    /// Appends a whole pattern block incrementally (word-parallel
    /// simulation of just the new block).
    pub fn extend_patterns(&mut self, net: &LutNetwork, patterns: &PatternSet) {
        self.extend_block(net, patterns, None);
    }

    /// Cone-restricted incremental resimulation: appends the block
    /// computing new lane words **only** for nodes in the union of
    /// fanin cones of `roots`, leaving every other lane untouched
    /// (stale at its old length).
    ///
    /// This is sound for the sweepers' counterexample flushes because
    /// the still-active node set only ever shrinks: signatures are
    /// compared among roots, whose cones keep every lane they
    /// transitively read fully up to date. Once a result has been
    /// extended this way, later extensions must use the same or a
    /// smaller root set (checked by a debug assertion), and global
    /// consumers such as [`SimResult::signature`] are only meaningful
    /// for cone nodes.
    pub fn extend_patterns_cone(
        &mut self,
        net: &LutNetwork,
        patterns: &PatternSet,
        roots: &[NodeId],
    ) {
        let mask = multi_fanin_cone_mask(net, roots);
        self.extend_block(net, patterns, Some(&mask));
    }

    /// Shared block-append path: simulates `patterns` through the
    /// compiled kernels (optionally restricted to `mask` in levelized
    /// order) and splices the new lane words straight from the flat
    /// lane table onto the accumulated signatures.
    fn extend_block(&mut self, net: &LutNetwork, patterns: &PatternSet, mask: Option<&[bool]>) {
        let added = patterns.num_patterns();
        if added == 0 {
            return;
        }
        assert_eq!(
            patterns.num_pis(),
            net.num_pis(),
            "pattern width must match network pis"
        );
        let order: Vec<NodeId> = match mask {
            None => net.node_ids().collect(),
            Some(mask) => levelized_order(net, mask),
        };
        let table = self.kernel.simulate_lanes(patterns, &order);
        let old_words = self.num_patterns.div_ceil(64);
        for (&id, block) in order.iter().zip(table.chunks_exact(patterns.num_words())) {
            let lane = &mut self.lanes[id.index()];
            debug_assert_eq!(
                lane.len(),
                old_words,
                "stale lane for {id}: cone-restricted extensions must \
                 only ever shrink the root set"
            );
            splice_bits(lane, self.num_patterns, block, added);
        }
        self.num_patterns += added;
        self.exec.exec_calls += 1;
        self.exec.exec_words += (added.div_ceil(64) * order.len()) as u64;
        self.exec.exec_patterns += added as u64;
        if mask.is_some() {
            self.exec.cone_exec_calls += 1;
        }
    }

    /// The full word lane (signature) of a node.
    pub fn signature(&self, node: NodeId) -> &[u64] {
        &self.lanes[node.index()]
    }

    /// The value of `node` under pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_patterns`.
    pub fn value(&self, node: NodeId, p: usize) -> bool {
        assert!(p < self.num_patterns, "pattern index out of range");
        (self.lanes[node.index()][p / 64] >> (p % 64)) & 1 == 1
    }

    /// True if two nodes have identical signatures.
    pub fn same_signature(&self, a: NodeId, b: NodeId) -> bool {
        self.lanes[a.index()] == self.lanes[b.index()]
    }

    /// A pattern index on which the two nodes differ, if any.
    pub fn distinguishing_pattern(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let (la, lb) = (&self.lanes[a.index()], &self.lanes[b.index()]);
        for (w, (&wa, &wb)) in la.iter().zip(lb).enumerate() {
            let diff = wa ^ wb;
            if diff != 0 {
                let p = w * 64 + diff.trailing_zeros() as usize;
                if p < self.num_patterns {
                    return Some(p);
                }
            }
        }
        None
    }
}

/// Simulates all patterns through the network's compiled kernels,
/// producing per-node signatures.
///
/// # Panics
///
/// Panics if `patterns.num_pis()` differs from the network's PI count.
pub fn simulate(net: &LutNetwork, patterns: &PatternSet) -> SimResult {
    let mut sim = SimResult::empty(net);
    sim.extend_patterns(net, patterns);
    sim
}

/// The original cube-cover interpreter: each node's value over 64
/// patterns is one pass over its truth table's on-set cubes — a cube
/// contributes the AND of its specified fanin lanes (complemented as
/// needed) and the node lane is the OR of the cube terms.
///
/// Superseded by the compiled kernels as the production path; kept as
/// the executable semantics the kernels are property-tested against
/// and as the baseline the `sim_throughput` bench measures speedups
/// over (enable the `reference` feature outside test builds).
#[cfg(any(test, feature = "reference"))]
pub fn simulate_reference(net: &LutNetwork, patterns: &PatternSet) -> SimResult {
    SimResult {
        num_patterns: patterns.num_patterns(),
        lanes: reference_lanes(net, patterns),
        kernel: Arc::new(CompiledNet::compile(net)),
        exec: ExecStats::default(),
    }
}

/// The raw lane computation of [`simulate_reference`], with no kernel
/// compilation attached — the pure-interpreter baseline the
/// `sim_throughput` bench times.
#[cfg(any(test, feature = "reference"))]
pub fn reference_lanes(net: &LutNetwork, patterns: &PatternSet) -> Vec<Vec<u64>> {
    use crate::kernel::tail_mask;
    use simgen_netlist::NodeKind;
    assert_eq!(
        patterns.num_pis(),
        net.num_pis(),
        "pattern width must match network pis"
    );
    let num_words = patterns.num_words();
    let mask = tail_mask(patterns.num_patterns());
    let mut lanes: Vec<Vec<u64>> = Vec::with_capacity(net.len());
    for id in net.node_ids() {
        let lane = match net.kind(id) {
            NodeKind::Pi { index } => patterns.lane(*index).to_vec(),
            NodeKind::Lut { fanins, tt } => {
                let mut out = vec![0u64; num_words];
                if tt.is_const1() {
                    out.fill(u64::MAX);
                } else {
                    for cube in tt.onset_cover() {
                        for w in 0..num_words {
                            let mut term = u64::MAX;
                            for (i, f) in fanins.iter().enumerate() {
                                match cube.input(i) {
                                    Some(true) => term &= lanes[f.index()][w],
                                    Some(false) => term &= !lanes[f.index()][w],
                                    None => {}
                                }
                            }
                            out[w] |= term;
                        }
                    }
                }
                if let Some(last) = out.last_mut() {
                    *last &= mask;
                }
                out
            }
        };
        lanes.push(lane);
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use simgen_netlist::TruthTable;

    fn random_network(seed: u64, pis: usize, luts: usize) -> LutNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = LutNetwork::new();
        let mut pool: Vec<NodeId> = (0..pis).map(|i| net.add_pi(format!("p{i}"))).collect();
        for _ in 0..luts {
            let k = rng.gen_range(1..=4usize).min(pool.len());
            let mut fanins = Vec::with_capacity(k);
            while fanins.len() < k {
                let cand = pool[rng.gen_range(0..pool.len())];
                if !fanins.contains(&cand) {
                    fanins.push(cand);
                }
            }
            let tt = TruthTable::random(fanins.len(), &mut rng);
            pool.push(net.add_lut(fanins, tt).unwrap());
        }
        net.add_po(*pool.last().unwrap(), "f");
        net
    }

    #[test]
    fn matches_scalar_eval_exhaustively() {
        let net = random_network(1, 4, 10);
        // All 16 input combinations as one pattern set.
        let vectors: Vec<Vec<bool>> = (0..16u32)
            .map(|m| (0..4).map(|i| (m >> i) & 1 == 1).collect())
            .collect();
        let patterns = PatternSet::from_vectors(4, &vectors);
        let sim = simulate(&net, &patterns);
        for (p, v) in vectors.iter().enumerate() {
            let scalar = net.eval(v);
            for id in net.node_ids() {
                assert_eq!(
                    sim.value(id, p),
                    scalar[id.index()],
                    "node {id} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn matches_scalar_eval_on_random_patterns() {
        let net = random_network(2, 8, 40);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let patterns = PatternSet::random(8, 200, &mut rng);
        let sim = simulate(&net, &patterns);
        assert_eq!(sim.num_patterns(), 200);
        for p in (0..200).step_by(17) {
            let v = patterns.vector(p);
            let scalar = net.eval(&v);
            for id in net.node_ids() {
                assert_eq!(sim.value(id, p), scalar[id.index()]);
            }
        }
    }

    #[test]
    fn compiled_kernels_match_reference_interpreter() {
        for seed in [5u64, 6, 7] {
            let net = random_network(seed, 6, 50);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 50);
            // Ragged pattern count to cover tail masking.
            let patterns = PatternSet::random(6, 173, &mut rng);
            assert_eq!(
                simulate(&net, &patterns),
                simulate_reference(&net, &patterns)
            );
        }
    }

    #[test]
    fn signatures_detect_equality_and_difference() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        let z = net.add_lut(vec![a, b], TruthTable::xor2()).unwrap();
        net.add_po(z, "z");
        let vectors: Vec<Vec<bool>> = (0..4u32).map(|m| vec![m & 1 == 1, m & 2 == 2]).collect();
        let patterns = PatternSet::from_vectors(2, &vectors);
        let sim = simulate(&net, &patterns);
        assert!(sim.same_signature(x, y));
        assert!(!sim.same_signature(x, z));
        let p = sim.distinguishing_pattern(x, z).unwrap();
        assert_ne!(sim.value(x, p), sim.value(z, p));
        assert_eq!(sim.distinguishing_pattern(x, y), None);
    }

    #[test]
    fn constant_luts_simulate_correctly() {
        let mut net = LutNetwork::new();
        let _ = net.add_pi("a");
        let one = net.add_const(true);
        let zero = net.add_const(false);
        net.add_po(one, "one");
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let patterns = PatternSet::random(1, 100, &mut rng);
        let sim = simulate(&net, &patterns);
        for p in 0..100 {
            assert!(sim.value(one, p));
            assert!(!sim.value(zero, p));
        }
        // Tail bits beyond pattern 100 must be masked for signature
        // comparisons to be meaningful.
        assert_eq!(sim.signature(one).last().unwrap() >> (100 - 64), 0);
    }

    #[test]
    fn incremental_matches_batch_simulation() {
        let net = random_network(11, 6, 30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let patterns = PatternSet::random(6, 150, &mut rng);
        let batch = simulate(&net, &patterns);
        // Push one at a time, with a reused scratch buffer.
        let mut inc = SimResult::empty(&net);
        let mut scratch = Vec::new();
        for p in 0..150 {
            inc.push_pattern_with(&net, &patterns.vector(p), &mut scratch);
        }
        assert_eq!(inc, batch);
        // Mixed block sizes, including unaligned appends.
        let mut inc = SimResult::empty(&net);
        let mut done = 0;
        for chunk in [64usize, 1, 7, 64, 14] {
            let vectors: Vec<Vec<bool>> =
                (done..done + chunk).map(|p| patterns.vector(p)).collect();
            inc.extend_patterns(&net, &PatternSet::from_vectors(6, &vectors));
            done += chunk;
        }
        assert_eq!(done, 150);
        assert_eq!(inc, batch);
    }

    #[test]
    fn vector_blocks_match_single_pushes() {
        let net = random_network(17, 5, 24);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let patterns = PatternSet::random(5, 100, &mut rng);
        let all: Vec<Vec<bool>> = (0..100).map(|p| patterns.vector(p)).collect();
        let mut pushed = SimResult::empty(&net);
        let mut scratch = Vec::new();
        for v in &all {
            pushed.push_pattern_with(&net, v, &mut scratch);
        }
        // Batched in uneven chunks (empty, single, word, partial).
        let mut batched = SimResult::empty(&net);
        let mut done = 0;
        for chunk in [0usize, 1, 64, 13, 22] {
            let block = PatternSet::from_vectors(5, &all[done..done + chunk]);
            batched.extend_patterns(&net, &block);
            done += chunk;
        }
        assert_eq!(done, 100);
        assert_eq!(batched, pushed);
    }

    #[test]
    fn cone_restricted_extension_matches_full_on_cone_nodes() {
        let net = random_network(31, 6, 40);
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let base = PatternSet::random(6, 64, &mut rng);
        let extra = PatternSet::random(6, 70, &mut rng);

        let mut full = simulate(&net, &base);
        full.extend_patterns(&net, &extra);

        let roots: Vec<NodeId> = net
            .node_ids()
            .filter(|&n| !net.is_pi(n))
            .rev()
            .take(3)
            .collect();
        let mask = multi_fanin_cone_mask(&net, &roots);
        let mut cone = simulate(&net, &base);
        cone.extend_patterns_cone(&net, &extra, &roots);

        assert_eq!(cone.num_patterns(), full.num_patterns());
        for id in net.node_ids() {
            if mask[id.index()] {
                assert_eq!(cone.signature(id), full.signature(id), "cone node {id}");
            } else {
                // Stale lanes keep their pre-extension length.
                assert_eq!(cone.signature(id).len(), 1, "stale node {id}");
            }
        }
    }

    #[test]
    fn exec_stats_and_kernel_summary_track_work() {
        let net = random_network(41, 5, 20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let patterns = PatternSet::random(5, 128, &mut rng);
        let mut sim = SimResult::empty(&net);
        assert_eq!(sim.exec_stats(), ExecStats::default());

        sim.extend_patterns(&net, &patterns);
        let stats = sim.exec_stats();
        assert_eq!(stats.exec_calls, 1);
        assert_eq!(stats.exec_words, 2 * net.len() as u64);
        assert_eq!(stats.exec_patterns, 128);
        assert_eq!(stats.cone_exec_calls, 0);

        sim.push_pattern_with(&net, &patterns.vector(0), &mut Vec::new());
        assert_eq!(sim.exec_stats().scalar_pushes, 1);

        let roots: Vec<NodeId> = net.node_ids().rev().take(1).collect();
        let block = PatternSet::from_vectors(5, &[patterns.vector(1)]);
        sim.extend_patterns_cone(&net, &block, &roots);
        assert_eq!(sim.exec_stats().exec_calls, 2);
        assert_eq!(sim.exec_stats().cone_exec_calls, 1);

        let summary = sim.kernel().summary();
        assert_eq!(summary.nodes, net.len() as u64);
        assert_eq!(summary.pis, 5);
        assert_eq!(
            summary.pis + summary.consts + summary.fused + summary.tape_nodes,
            summary.nodes
        );
        assert_eq!(summary.tape_ops, sim.kernel().tape_len() as u64);
    }

    #[test]
    fn tail_masking_keeps_signatures_comparable() {
        // A node equal to constant 1 on all patterns must compare
        // equal to an explicit constant-1 node even with a partial
        // last word.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let na = net.add_lut(vec![a], TruthTable::not1()).unwrap();
        let taut = net.add_lut(vec![a, na], TruthTable::or2()).unwrap();
        let one = net.add_const(true);
        net.add_po(taut, "t");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let patterns = PatternSet::random(1, 70, &mut rng);
        let sim = simulate(&net, &patterns);
        assert!(sim.same_signature(taut, one));
    }
}
