//! Cut-based covering: turning an AIG plus its priority cuts into a
//! K-LUT network.

use std::collections::HashMap;

use simgen_netlist::aig::{Aig, AigLit, AigVar};
use simgen_netlist::{LutNetwork, NodeId, TruthTable};

use crate::cuts::enumerate_cuts;

/// Maps an AIG into a K-LUT network (the `if -K k` equivalent).
///
/// Covering is depth-oriented: each needed node is realized by its
/// best cut (minimum depth, then area flow), starting from the POs.
/// LUT functions are derived exactly from the covered cones, so the
/// result is functionally equivalent to the AIG by construction (see
/// the crate tests, which verify this exhaustively).
///
/// # Panics
///
/// Panics if `k` is outside `1..=6`.
pub fn map_to_luts(aig: &Aig, k: usize) -> LutNetwork {
    let sets = enumerate_cuts(aig, k, 8);

    // Mark the AND nodes that must be realized as LUTs, and in which
    // phase. Internal cut leaves are always consumed positively; a
    // complemented PO is realized by negating the root LUT's function
    // (like ABC, which absorbs output inverters into the LUT), so the
    // positive LUT is only emitted when something actually needs it.
    let mut required = vec![false; aig.num_vars()];
    let mut pos_needed = vec![false; aig.num_vars()];
    let mut neg_needed = vec![false; aig.num_vars()];
    let mut stack: Vec<AigVar> = Vec::new();
    for &(l, _) in aig.pos() {
        let v = l.var();
        if aig.is_and(v) {
            if l.is_complement() {
                neg_needed[v.0 as usize] = true;
            } else {
                pos_needed[v.0 as usize] = true;
            }
            stack.push(v);
        }
    }
    while let Some(v) = stack.pop() {
        if required[v.0 as usize] {
            continue;
        }
        required[v.0 as usize] = true;
        for &leaf in &sets[v.0 as usize].best().leaves {
            if aig.is_and(leaf) {
                pos_needed[leaf.0 as usize] = true;
                if !required[leaf.0 as usize] {
                    stack.push(leaf);
                }
            }
        }
    }

    let mut net = LutNetwork::with_name(aig.name());
    let mut node_of: Vec<Option<NodeId>> = vec![None; aig.num_vars()];
    let mut neg_node_of: Vec<Option<NodeId>> = vec![None; aig.num_vars()];
    for i in 0..aig.num_pis() {
        node_of[i + 1] = Some(net.add_pi(format!("pi{i}")));
    }
    for v in (aig.num_pis() + 1)..aig.num_vars() {
        if !required[v] {
            continue;
        }
        let var = AigVar(v as u32);
        let cut = sets[v].best();
        let fanins: Vec<NodeId> = cut
            .leaves
            .iter()
            .map(|l| node_of[l.0 as usize].expect("leaves are mapped before roots"))
            .collect();
        let tt = cone_truth_table(aig, var, &cut.leaves);
        if pos_needed[v] {
            let id = net
                .add_lut(fanins.clone(), tt)
                .expect("cut leaves precede the root in topological order");
            node_of[v] = Some(id);
        }
        if neg_needed[v] {
            let id = net
                .add_lut(fanins, tt.negate())
                .expect("cut leaves precede the root in topological order");
            neg_node_of[v] = Some(id);
        }
    }

    // Attach POs; constants get constant LUTs, complemented PIs get
    // inverter LUTs (the only case an explicit inverter remains).
    let mut inverters: HashMap<u32, NodeId> = HashMap::new();
    let mut const_node: HashMap<bool, NodeId> = HashMap::new();
    for (lit, name) in aig.pos() {
        let node = po_driver(
            aig,
            &mut net,
            *lit,
            &node_of,
            &neg_node_of,
            &mut inverters,
            &mut const_node,
        );
        net.add_po(node, name.clone());
    }
    net
}

#[allow(clippy::too_many_arguments)]
fn po_driver(
    aig: &Aig,
    net: &mut LutNetwork,
    lit: AigLit,
    node_of: &[Option<NodeId>],
    neg_node_of: &[Option<NodeId>],
    inverters: &mut HashMap<u32, NodeId>,
    const_node: &mut HashMap<bool, NodeId>,
) -> NodeId {
    if lit.is_const() {
        let value = lit == AigLit::TRUE;
        return *const_node
            .entry(value)
            .or_insert_with(|| net.add_const(value));
    }
    let vi = lit.var().0 as usize;
    if !lit.is_complement() {
        return node_of[vi].expect("positive po driver is mapped");
    }
    if aig.is_and(lit.var()) {
        return neg_node_of[vi].expect("negated po driver is mapped");
    }
    // Complemented PI: a one-input inverter LUT.
    let base = node_of[vi].expect("pi exists");
    *inverters.entry(lit.var().0).or_insert_with(|| {
        net.add_lut(vec![base], TruthTable::not1())
            .expect("inverter over existing pi")
    })
}

/// Computes the function of `root` as a truth table over `leaves`
/// (which must form a cut of `root`).
///
/// # Panics
///
/// Panics if the cone below `root` reaches the constant or a PI that
/// is not among the leaves (i.e. `leaves` is not a cut), or if
/// `leaves.len() > 6`.
pub fn cone_truth_table(aig: &Aig, root: AigVar, leaves: &[AigVar]) -> TruthTable {
    let arity = leaves.len();
    assert!(arity <= 6, "cut wider than 6 leaves");
    let mut memo: HashMap<u32, TruthTable> = HashMap::with_capacity(leaves.len() * 4);
    for (i, l) in leaves.iter().enumerate() {
        memo.insert(l.0, TruthTable::var(arity, i));
    }
    tt_rec(aig, root, arity, &mut memo)
}

fn tt_rec(aig: &Aig, v: AigVar, arity: usize, memo: &mut HashMap<u32, TruthTable>) -> TruthTable {
    if let Some(&t) = memo.get(&v.0) {
        return t;
    }
    assert!(
        aig.is_and(v),
        "cone escapes the cut at variable {v:?} (not a leaf, not an and)"
    );
    let (a, b) = aig.and_fanins(v);
    let ta = lit_tt(aig, a, arity, memo);
    let tb = lit_tt(aig, b, arity, memo);
    let t = TruthTable::from_fn(arity, |m| ta.eval(m) && tb.eval(m));
    memo.insert(v.0, t);
    t
}

fn lit_tt(aig: &Aig, l: AigLit, arity: usize, memo: &mut HashMap<u32, TruthTable>) -> TruthTable {
    let base = tt_rec(aig, l.var(), arity, memo);
    if l.is_complement() {
        base.negate()
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn assert_equivalent(aig: &Aig, net: &LutNetwork) {
        assert_eq!(aig.num_pis(), net.num_pis());
        assert_eq!(aig.num_pos(), net.num_pos());
        let n = aig.num_pis();
        if n <= 12 {
            for m in 0..(1u64 << n) {
                let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!(aig.eval(&inputs), net.eval_pos(&inputs), "at {m:b}");
            }
        } else {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
            for _ in 0..200 {
                let inputs: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                assert_eq!(aig.eval(&inputs), net.eval_pos(&inputs));
            }
        }
    }

    fn random_aig(seed: u64, pis: usize, ands: usize, pos: usize) -> Aig {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let inputs = g.add_pis(pis);
        let mut pool = inputs;
        for _ in 0..ands {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let a = if rng.gen() { a } else { !a };
            let b = if rng.gen() { b } else { !b };
            pool.push(g.and(a, b));
        }
        for i in 0..pos {
            let l = pool[pool.len() - 1 - (i % pool.len())];
            let l = if rng.gen() { l } else { !l };
            g.add_po(l, format!("o{i}"));
        }
        g
    }

    #[test]
    fn maps_single_and() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x, "f");
        let net = map_to_luts(&g, 6);
        assert_eq!(net.num_luts(), 1);
        assert_equivalent(&g, &net);
    }

    #[test]
    fn maps_complemented_and_constant_pos() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(!x, "nf");
        g.add_po(AigLit::TRUE, "one");
        g.add_po(AigLit::FALSE, "zero");
        g.add_po(!a, "na");
        let net = map_to_luts(&g, 6);
        assert_equivalent(&g, &net);
    }

    #[test]
    fn collapses_deep_cones() {
        // A 6-input AND tree maps to exactly one 6-LUT.
        let mut g = Aig::new();
        let pis = g.add_pis(6);
        let x = g.and_many(&pis);
        g.add_po(x, "f");
        let net = map_to_luts(&g, 6);
        assert_eq!(net.num_luts(), 1);
        assert_eq!(net.depth(), 1);
        assert_equivalent(&g, &net);
    }

    #[test]
    fn respects_k() {
        let mut g = Aig::new();
        let pis = g.add_pis(6);
        let x = g.and_many(&pis);
        g.add_po(x, "f");
        let net = map_to_luts(&g, 3);
        assert!(net.num_luts() > 1);
        for id in net.node_ids() {
            assert!(net.fanins(id).len() <= 3);
        }
        assert_equivalent(&g, &net);
    }

    #[test]
    fn random_aigs_map_equivalently() {
        for seed in 0..8 {
            let g = random_aig(seed, 6, 60, 4);
            for k in [2, 4, 6] {
                let net = map_to_luts(&g, k);
                assert_equivalent(&g, &net);
                for id in net.node_ids() {
                    assert!(net.fanins(id).len() <= k);
                }
            }
        }
    }

    #[test]
    fn larger_random_aig() {
        let g = random_aig(100, 16, 500, 8);
        let net = map_to_luts(&g, 6);
        assert_equivalent(&g, &net);
        assert!(net.num_luts() <= 500, "mapping should not blow up");
    }

    #[test]
    fn xor_chain_depth_is_reduced() {
        // 12-input xor chain: AIG depth ~22; 6-LUT mapping cuts depth
        // substantially.
        let mut g = Aig::new();
        let pis = g.add_pis(12);
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.xor(acc, p);
        }
        g.add_po(acc, "parity");
        let aig_depth = *g.levels().iter().max().unwrap();
        let net = map_to_luts(&g, 6);
        assert!(net.depth() < aig_depth);
        assert_equivalent(&g, &net);
    }

    #[test]
    fn cone_truth_table_of_mux() {
        let mut g = Aig::new();
        let s = g.add_pi();
        let t = g.add_pi();
        let e = g.add_pi();
        let m = g.mux(s, t, e);
        g.add_po(m, "m");
        // `mux` returns a complemented literal; cone_truth_table works
        // on variables, so apply the complement afterwards.
        let mut tt = cone_truth_table(&g, m.var(), &[s.var(), t.var(), e.var()]);
        if m.is_complement() {
            tt = tt.negate();
        }
        for mm in 0..8u64 {
            let sv = mm & 1 == 1;
            let tv = mm & 2 == 2;
            let ev = mm & 4 == 4;
            assert_eq!(tt.eval(mm), if sv { tv } else { ev });
        }
    }
}
