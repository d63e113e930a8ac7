//! Tseitin-style CNF encoding of LUT networks.
//!
//! Each network node gets a solver variable; each LUT contributes one
//! clause per on-set cube (`cube → out`) and one per off-set cube
//! (`cube → ¬out`). Using irredundant prime covers for both phases
//! yields a complete and reasonably compact encoding for K ≤ 6 LUTs —
//! the same approach ABC's `Cnf_Derive` takes for mapped networks.
//!
//! Encoding is *lazy and incremental*: [`NetworkEncoder::encode_cone`]
//! walks only the not-yet-encoded part of a node's fanin cone, so a
//! sweeping session encodes each node at most once no matter how many
//! queries touch it.

use simgen_netlist::{LutNetwork, NodeId, NodeKind};

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// Incremental encoder mapping network nodes to solver variables.
#[derive(Clone, Debug)]
pub struct NetworkEncoder {
    vars: Vec<Option<Var>>,
}

impl NetworkEncoder {
    /// Creates an encoder for a network of the given size.
    pub fn new(net: &LutNetwork) -> Self {
        NetworkEncoder {
            vars: vec![None; net.len()],
        }
    }

    /// The solver variable of `node`, if it has been encoded.
    pub fn var(&self, node: NodeId) -> Option<Var> {
        self.vars[node.index()]
    }

    /// Ensures `node` and its entire fanin cone are encoded, returning
    /// the node's solver variable.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the network the encoder was
    /// created for.
    pub fn encode_cone(&mut self, net: &LutNetwork, solver: &mut Solver, node: NodeId) -> Var {
        if let Some(v) = self.vars[node.index()] {
            return v;
        }
        // Iterative DFS to avoid stack overflows on deep netlists.
        let mut stack: Vec<(NodeId, bool)> = vec![(node, false)];
        while let Some((n, expanded)) = stack.pop() {
            if self.vars[n.index()].is_some() {
                continue;
            }
            if !expanded {
                stack.push((n, true));
                for &f in net.fanins(n) {
                    if self.vars[f.index()].is_none() {
                        stack.push((f, false));
                    }
                }
            } else {
                let v = solver.new_var();
                self.vars[n.index()] = Some(v);
                if let NodeKind::Lut { fanins, tt } = net.kind(n) {
                    let fanin_vars: Vec<Var> = fanins
                        .iter()
                        .map(|f| self.vars[f.index()].expect("fanins encoded first"))
                        .collect();
                    let mut clause: Vec<Lit> = Vec::with_capacity(fanin_vars.len() + 1);
                    for cube in tt.onset_cover() {
                        clause.clear();
                        for (i, &fv) in fanin_vars.iter().enumerate() {
                            if let Some(val) = cube.input(i) {
                                clause.push(Lit::new(fv, !val));
                            }
                        }
                        clause.push(Lit::pos(v));
                        solver.add_clause(&clause);
                    }
                    for cube in tt.offset_cover() {
                        clause.clear();
                        for (i, &fv) in fanin_vars.iter().enumerate() {
                            if let Some(val) = cube.input(i) {
                                clause.push(Lit::new(fv, !val));
                            }
                        }
                        clause.push(Lit::neg(v));
                        solver.add_clause(&clause);
                    }
                }
            }
        }
        self.vars[node.index()].expect("just encoded")
    }

    /// Extracts a PI assignment from the solver model, defaulting
    /// unencoded PIs (outside every encoded cone) to `false`.
    ///
    /// Call only after a `Sat` answer.
    pub fn extract_input_vector(&self, net: &LutNetwork, solver: &Solver) -> Vec<bool> {
        net.pis()
            .iter()
            .map(|&pi| {
                self.vars[pi.index()]
                    .and_then(|v| solver.value(v))
                    .unwrap_or(false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};
    use simgen_netlist::TruthTable;

    /// Exhaustively check that the encoding of a network agrees with
    /// direct evaluation: for every PI assignment forced through
    /// assumptions, each encoded node var must take the evaluated
    /// value.
    fn check_encoding(net: &LutNetwork) {
        let mut solver = Solver::new();
        let mut enc = NetworkEncoder::new(net);
        let roots: Vec<NodeId> = net.pos().iter().map(|po| po.node).collect();
        for &r in &roots {
            enc.encode_cone(net, &mut solver, r);
        }
        let n = net.num_pis();
        for m in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            let assumptions: Vec<Lit> = net
                .pis()
                .iter()
                .enumerate()
                .filter_map(|(i, &pi)| enc.var(pi).map(|v| Lit::new(v, inputs[i])))
                .collect();
            assert_eq!(
                solver.solve_with_assumptions(&assumptions),
                SolveResult::Sat,
                "circuit cnf must be satisfiable under full input assignment"
            );
            let vals = net.eval(&inputs);
            for id in net.node_ids() {
                if let Some(v) = enc.var(id) {
                    assert_eq!(
                        solver.value(v),
                        Some(vals[id.index()]),
                        "node {id} at inputs {m:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn encodes_basic_gates() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let xor = net.add_lut(vec![and, c], TruthTable::xor2()).unwrap();
        let maj = net
            .add_lut(
                vec![a, b, c],
                TruthTable::from_fn(3, |m| m.count_ones() >= 2),
            )
            .unwrap();
        net.add_po(xor, "x");
        net.add_po(maj, "m");
        check_encoding(&net);
    }

    #[test]
    fn encodes_random_luts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let mut net = LutNetwork::new();
            let pis: Vec<NodeId> = (0..5).map(|i| net.add_pi(format!("p{i}"))).collect();
            let mut pool = pis.clone();
            for _ in 0..12 {
                let k = rng.gen_range(1..=4usize).min(pool.len());
                let mut fanins = Vec::with_capacity(k);
                while fanins.len() < k {
                    let cand = pool[rng.gen_range(0..pool.len())];
                    if !fanins.contains(&cand) {
                        fanins.push(cand);
                    }
                }
                let tt = TruthTable::random(fanins.len(), &mut rng);
                let id = net.add_lut(fanins, tt).unwrap();
                pool.push(id);
            }
            let last = *pool.last().unwrap();
            net.add_po(last, "f");
            check_encoding(&net);
        }
    }

    #[test]
    fn encodes_constants() {
        let mut net = LutNetwork::new();
        let _a = net.add_pi("a");
        let one = net.add_const(true);
        let zero = net.add_const(false);
        net.add_po(one, "one");
        net.add_po(zero, "zero");
        let mut solver = Solver::new();
        let mut enc = NetworkEncoder::new(&net);
        let v1 = enc.encode_cone(&net, &mut solver, one);
        let v0 = enc.encode_cone(&net, &mut solver, zero);
        assert_eq!(solver.solve(), SolveResult::Sat);
        assert_eq!(solver.value(v1), Some(true));
        assert_eq!(solver.value(v0), Some(false));
    }

    #[test]
    fn lazy_encoding_is_incremental() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        let mut solver = Solver::new();
        let mut enc = NetworkEncoder::new(&net);
        enc.encode_cone(&net, &mut solver, x);
        let vars_after_x = solver.num_vars();
        assert!(enc.var(y).is_none());
        enc.encode_cone(&net, &mut solver, y);
        // Only y itself is new: a and b were already encoded.
        assert_eq!(solver.num_vars(), vars_after_x + 1);
        // Re-encoding is free.
        enc.encode_cone(&net, &mut solver, y);
        assert_eq!(solver.num_vars(), vars_after_x + 1);
    }

    #[test]
    fn equivalence_query_through_assumptions() {
        // x = a&b, y = !(!a | !b): equivalent. z = a|b: not.
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
        let mut solver = Solver::new();
        let mut enc = NetworkEncoder::new(&net);
        let vx = enc.encode_cone(&net, &mut solver, x);
        let vy = enc.encode_cone(&net, &mut solver, y);
        let vz = enc.encode_cone(&net, &mut solver, z);
        // x != y unsatisfiable in both phases => equivalent.
        assert_eq!(
            solver.solve_with_assumptions(&[Lit::pos(vx), Lit::neg(vy)]),
            SolveResult::Unsat
        );
        assert_eq!(
            solver.solve_with_assumptions(&[Lit::neg(vx), Lit::pos(vy)]),
            SolveResult::Unsat
        );
        // x != z satisfiable: counterexample with exactly one input on.
        assert_eq!(
            solver.solve_with_assumptions(&[Lit::neg(vx), Lit::pos(vz)]),
            SolveResult::Sat
        );
        let cex = enc.extract_input_vector(&net, &solver);
        assert!(!net.eval(&cex)[x.index()]);
        assert!(net.eval(&cex)[z.index()]);
    }
}
