//! Scalar counterexample replay — the simulator-side half of the
//! trust-but-verify story.
//!
//! A counterexample produced by the SAT engine claims "this input
//! vector drives nodes *a* and *b* to different values". Before such
//! a vector is allowed to refine equivalence classes, certified
//! sweeps replay it through [`LutNetwork::eval_into`] — the one-node-
//! at-a-time scalar evaluator — which shares no code with the
//! compiled word-parallel kernels in [`kernel`](crate::kernel) and no
//! state with the solver. A vector that fails replay is evidence of
//! an engine bug and must quarantine the pair instead of poisoning
//! the class lattice.

use simgen_netlist::{LutNetwork, NodeId};

/// Replays counterexamples through the scalar reference evaluator,
/// reusing one value buffer across calls so certification adds no
/// per-counterexample allocation.
#[derive(Default, Debug)]
pub struct Replayer {
    vals: Vec<bool>,
}

impl Replayer {
    /// Creates a replayer with an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff `inputs` really drives `a` and `b` to different
    /// values under scalar evaluation. A vector of the wrong length
    /// is a malformed counterexample and fails replay (returns
    /// `false`) rather than panicking — the caller quarantines it.
    pub fn distinguishes(
        &mut self,
        net: &LutNetwork,
        inputs: &[bool],
        a: NodeId,
        b: NodeId,
    ) -> bool {
        if inputs.len() != net.num_pis() {
            return false;
        }
        net.eval_into(inputs, &mut self.vals);
        self.vals[a.index()] != self.vals[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    /// x = a AND b, y = a OR b, z = b AND a (equivalent to x).
    fn net() -> (LutNetwork, NodeId, NodeId, NodeId) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        let z = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        net.add_po(x, "x");
        (net, x, y, z)
    }

    #[test]
    fn genuine_counterexample_replays() {
        let (net, x, y, _) = net();
        let mut r = Replayer::new();
        // a=1, b=0: AND=0, OR=1 — distinguishes.
        assert!(r.distinguishes(&net, &[true, false], x, y));
        // a=1, b=1: AND=1, OR=1 — does not.
        assert!(!r.distinguishes(&net, &[true, true], x, y));
    }

    #[test]
    fn equivalent_nodes_are_never_distinguished() {
        let (net, x, _, z) = net();
        let mut r = Replayer::new();
        for m in 0..4u32 {
            let inputs = [m & 1 == 1, m & 2 == 2];
            assert!(!r.distinguishes(&net, &inputs, x, z));
        }
    }

    #[test]
    fn malformed_vector_fails_replay_without_panicking() {
        let (net, x, y, _) = net();
        let mut r = Replayer::new();
        assert!(!r.distinguishes(&net, &[true], x, y));
        assert!(!r.distinguishes(&net, &[true, false, true], x, y));
        assert!(!r.distinguishes(&net, &[], x, y));
    }

    #[test]
    fn buffer_reuse_is_sound_across_networks() {
        let (net1, x, y, _) = net();
        let mut small = LutNetwork::new();
        let a = small.add_pi("a");
        small.add_po(a, "a");
        let mut r = Replayer::new();
        assert!(r.distinguishes(&net1, &[true, false], x, y));
        assert!(!r.distinguishes(&small, &[true], a, a));
        assert!(r.distinguishes(&net1, &[true, false], x, y));
    }
}
