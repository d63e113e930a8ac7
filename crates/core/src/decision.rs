//! Decision strategies (paper Section 5): choosing a truth-table row
//! when implication stalls.
//!
//! Three policies are implemented, matching the paper's ablation:
//!
//! * [`DecisionStrategy::Random`] — uniform choice among compatible
//!   rows (the `+RD` configurations).
//! * [`DecisionStrategy::Dc`] — prefer rows with the most don't-cares
//!   (Equation 1), leaving the maximum freedom to later propagations.
//! * [`DecisionStrategy::DcMffc`] — combine the DC count with the MFFC
//!   depth rank (Equations 2–4): prefer assigning definite values to
//!   fanins whose MFFC is deep (conflict-free territory) and
//!   don't-cares to shared, shallow-MFFC fanins. Rows are drawn by
//!   roulette-wheel selection with priority
//!   `α·dc_size + β·mffc_rank`, α ≫ β.

use rand::Rng;

use simgen_netlist::mffc::MffcWalker;
use simgen_netlist::truth::MAX_ARITY;
use simgen_netlist::{LutNetwork, NodeId};

use crate::rows::{members, PinAssignment, Row, MAX_ROWS};
use crate::tv::{Value, ValueMap};

/// The row-selection policy used when a decision is unavoidable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DecisionStrategy {
    /// Uniformly random among compatible rows.
    Random,
    /// Maximize the row's don't-care count (Equation 1).
    Dc,
    /// Roulette wheel over `α·dc_size + β·mffc_rank` (Equation 4).
    #[default]
    DcMffc,
}

/// Outcome of a decision attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// A row was chosen and this many pins were newly assigned; they
    /// are the newest entries of the value map's trail (the output
    /// first, then the fanins by index).
    Assigned(usize),
    /// No row is compatible with the current pin assignment — the
    /// caller must treat this as a conflict.
    NoRows,
    /// Every compatible row's specified pins are already assigned;
    /// nothing to do.
    Saturated,
}

/// Lazily computed MFFC depths (Equation 2), shared across many
/// decisions on the same network.
#[derive(Clone, Debug)]
pub struct MffcDepths {
    walker: MffcWalker,
    /// Depth per node; NaN until computed (a depth is never NaN).
    depth: Vec<f64>,
}

impl MffcDepths {
    /// Creates the cache (one O(n) reference-count pass).
    pub fn new(net: &LutNetwork) -> Self {
        MffcDepths {
            walker: MffcWalker::new(net),
            depth: vec![f64::NAN; net.len()],
        }
    }

    /// The MFFC depth of `node`, computing and caching it on first use.
    pub fn depth(&mut self, net: &LutNetwork, node: NodeId) -> f64 {
        let cached = self.depth[node.index()];
        if !cached.is_nan() {
            return cached;
        }
        let d = self.walker.depth(net, node);
        self.depth[node.index()] = d;
        d
    }
}

/// Applies one decision at `gate` under the given strategy.
///
/// `rows` are the rows of `gate`'s function. The chosen row's
/// specified values are assigned to all currently unassigned pins of
/// the gate (inputs and, if free, the output).
#[allow(clippy::too_many_arguments)]
pub fn decide(
    net: &LutNetwork,
    values: &mut ValueMap,
    rows: &[Row],
    mffcs: &mut MffcDepths,
    gate: NodeId,
    strategy: DecisionStrategy,
    alpha: f64,
    beta: f64,
    rng: &mut impl Rng,
) -> Decision {
    let candidates = PinAssignment::of(net, values, gate).matching(rows);
    if candidates == 0 {
        return Decision::NoRows;
    }
    let arity = net.fanins(gate).len();
    let pick = |set: u64, k: usize| members(set).nth(k).expect("k < |set|");
    let chosen = match strategy {
        DecisionStrategy::Random => pick(
            candidates,
            rng.gen_range(0..candidates.count_ones() as usize),
        ),
        DecisionStrategy::Dc => {
            let dc = |i: usize| rows[i].cube.dc_count(arity);
            let best = members(candidates).map(dc).max().expect("nonempty");
            let top = members(candidates)
                .filter(|&i| dc(i) == best)
                .fold(0u64, |set, i| set | 1 << i);
            pick(top, rng.gen_range(0..top.count_ones() as usize))
        }
        DecisionStrategy::DcMffc => {
            let mut depths = [0.0; MAX_ARITY];
            for (d, &f) in depths.iter_mut().zip(net.fanins(gate)) {
                *d = mffcs.depth(net, f);
            }
            let mut weights = [0.0; MAX_ROWS];
            let mut len = 0;
            for i in members(candidates) {
                let r = &rows[i];
                let dc = r.cube.dc_count(arity) as f64;
                // Equation 3: sum of MFFC depths over the row's
                // *specified* inputs.
                let rank: f64 = (0..arity)
                    .filter(|&i| r.cube.input(i).is_some())
                    .map(|i| depths[i])
                    .sum();
                weights[len] = alpha * dc + beta * rank;
                len += 1;
            }
            pick(candidates, roulette(&weights[..len], rng))
        }
    };
    apply_row(net, values, gate, &rows[chosen])
}

/// Roulette-wheel selection: index `i` is drawn with probability
/// proportional to `weights[i]` (a small epsilon keeps zero-weight
/// rows selectable, as pure roulette degenerates when all priorities
/// vanish).
pub fn roulette(weights: &[f64], rng: &mut impl Rng) -> usize {
    const EPS: f64 = 1e-9;
    let total: f64 = weights.iter().map(|w| w + EPS).sum();
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        target -= w + EPS;
        if target <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

fn apply_row(net: &LutNetwork, values: &mut ValueMap, gate: NodeId, row: &Row) -> Decision {
    let mut newly = 0;
    if !values.is_assigned(gate) {
        values.assign(gate, Value::from_bool(row.output));
        newly += 1;
    }
    for (i, &f) in net.fanins(gate).iter().enumerate() {
        if let Some(v) = row.cube.input(i) {
            if !values.is_assigned(f) {
                values.assign(f, Value::from_bool(v));
                newly += 1;
            }
        }
    }
    if newly == 0 {
        Decision::Saturated
    } else {
        Decision::Assigned(newly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::RowDb;
    use rand::SeedableRng;
    use simgen_netlist::TruthTable;

    type Rng_ = rand::rngs::StdRng;

    /// The paper's Figure 4 circuit: two POs sharing node y.
    /// z = nand(x, y), t = and(y, e'), x = and(a,b), y = or(b,c).
    struct Fig4 {
        net: LutNetwork,
        x: NodeId,
        y: NodeId,
        z: NodeId,
    }

    fn figure4() -> Fig4 {
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
        Fig4 { net, x, y, z }
    }

    #[test]
    fn random_decision_assigns_a_compatible_row() {
        let f = figure4();
        let mut vm = ValueMap::new(f.net.len());
        let mut db = RowDb::new();
        let mut mf = MffcDepths::new(&f.net);
        let mut rng = Rng_::seed_from_u64(1);
        vm.assign(f.z, Value::One);
        let d = decide(
            &f.net,
            &mut vm,
            db.rows(f.net.truth_table(f.z).unwrap()),
            &mut mf,
            f.z,
            DecisionStrategy::Random,
            100.0,
            1.0,
            &mut rng,
        );
        match d {
            Decision::Assigned(newly) => {
                assert!(newly > 0);
                assert_eq!(vm.trail_len(), 1 + newly, "z, then the new pins");
                // nand = 1 rows: x=0 or y=0; exactly one fanin gets 0.
                let vx = vm.get(f.x);
                let vy = vm.get(f.y);
                assert!(vx == Value::Zero || vy == Value::Zero);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_rows_is_reported() {
        let f = figure4();
        let mut vm = ValueMap::new(f.net.len());
        let mut db = RowDb::new();
        let mut mf = MffcDepths::new(&f.net);
        let mut rng = Rng_::seed_from_u64(2);
        // and(x=1, y=1) with output 0 is impossible at gate z's sibling:
        // use x gate directly: a=1, b=1, x=0.
        let a = f.net.pis()[0];
        let b = f.net.pis()[1];
        vm.assign(a, Value::One);
        vm.assign(b, Value::One);
        vm.assign(f.x, Value::Zero);
        let d = decide(
            &f.net,
            &mut vm,
            db.rows(f.net.truth_table(f.x).unwrap()),
            &mut mf,
            f.x,
            DecisionStrategy::Dc,
            100.0,
            1.0,
            &mut rng,
        );
        assert_eq!(d, Decision::NoRows);
    }

    #[test]
    fn saturated_when_fully_assigned_consistently() {
        let f = figure4();
        let mut vm = ValueMap::new(f.net.len());
        let mut db = RowDb::new();
        let mut mf = MffcDepths::new(&f.net);
        let mut rng = Rng_::seed_from_u64(3);
        let a = f.net.pis()[0];
        let b = f.net.pis()[1];
        vm.assign(a, Value::One);
        vm.assign(b, Value::One);
        vm.assign(f.x, Value::One);
        let d = decide(
            &f.net,
            &mut vm,
            db.rows(f.net.truth_table(f.x).unwrap()),
            &mut mf,
            f.x,
            DecisionStrategy::Random,
            100.0,
            1.0,
            &mut rng,
        );
        assert_eq!(d, Decision::Saturated);
    }

    #[test]
    fn dc_strategy_prefers_dc_rows() {
        // Gate with output 0 on an and2: rows "0-" and "-0" (1 DC each)
        // exist; with input0 already 0, rows become "0-" (specified
        // pins assigned => saturated would trigger)... Use a fresh
        // 3-input function with clearly ranked rows instead:
        // f = a & b & c. Off-set primes: 0--, -0-, --0 (2 DCs each).
        // On-set: 111 (0 DCs). With output unassigned, DC strategy
        // must never pick the on-set row.
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let g = net
            .add_lut(vec![a, b, c], TruthTable::from_fn(3, |m| m == 0b111))
            .unwrap();
        net.add_po(g, "f");
        let mut db = RowDb::new();
        let mut mf = MffcDepths::new(&net);
        let mut rng = Rng_::seed_from_u64(4);
        for _ in 0..20 {
            let mut vm = ValueMap::new(net.len());
            let d = decide(
                &net,
                &mut vm,
                db.rows(net.truth_table(g).unwrap()),
                &mut mf,
                g,
                DecisionStrategy::Dc,
                100.0,
                1.0,
                &mut rng,
            );
            match d {
                Decision::Assigned(_) => {
                    assert_eq!(vm.get(g), Value::Zero, "dc strategy picks an off row");
                    // Exactly one input assigned (2 DCs).
                    let assigned = [a, b, c].iter().filter(|&&n| vm.is_assigned(n)).count();
                    assert_eq!(assigned, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn mffc_strategy_biases_toward_deep_mffcs() {
        // Figure 4c setup: deciding z's inputs with output 0 means one
        // of x, y gets... here z = nand(x,y): output 0 needs x=1,y=1
        // (single row, no decision). Use output 1: rows x=0 (dc y) and
        // y=0 (dc x). x is z-exclusive (deeper MFFC from z's
        // perspective); y is shared (its own MFFC still has depth 1
        // though). We verify the *bias*: with β large, the row
        // assigning the deeper-MFFC fanin is chosen more often.
        let f = figure4();
        let mut db = RowDb::new();
        let mut rng = Rng_::seed_from_u64(5);
        let mut chose_x = 0usize;
        let mut total = 0usize;
        for _ in 0..200 {
            let mut vm = ValueMap::new(f.net.len());
            let mut mf = MffcDepths::new(&f.net);
            vm.assign(f.z, Value::One);
            let d = decide(
                &f.net,
                &mut vm,
                db.rows(f.net.truth_table(f.z).unwrap()),
                &mut mf,
                f.z,
                DecisionStrategy::DcMffc,
                0.0,
                10.0,
                &mut rng,
            );
            if let Decision::Assigned(_) = d {
                total += 1;
                // Row "x=0, y dc" has rank = depth(x); row "y=0, x dc"
                // has rank = depth(y).
                if vm.get(f.x) == Value::Zero && vm.get(f.y) == Value::Unknown {
                    chose_x += 1;
                }
            }
        }
        let mut mf = MffcDepths::new(&f.net);
        let dx = mf.depth(&f.net, f.x);
        let dy = mf.depth(&f.net, f.y);
        assert!(dx > 0.0 && dy > 0.0);
        // x's MFFC (x alone over PIs a, b) and y's are both depth 1
        // here; the real differentiation test is in the engine tests.
        // At minimum the split must be roughly proportional.
        assert!(total == 200);
        let frac = chose_x as f64 / total as f64;
        let expect = dx / (dx + dy);
        assert!(
            (frac - expect).abs() < 0.15,
            "frac {frac} vs expected {expect}"
        );
    }

    #[test]
    fn roulette_is_proportional() {
        let mut rng = Rng_::seed_from_u64(6);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        for _ in 0..4000 {
            counts[roulette(&weights, &mut rng)] += 1;
        }
        let frac = counts[1] as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn roulette_handles_all_zero_weights() {
        let mut rng = Rng_::seed_from_u64(7);
        let weights = [0.0, 0.0, 0.0];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[roulette(&weights, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all zero-weight rows reachable");
    }

    #[test]
    fn mffc_depth_cache_is_consistent() {
        let f = figure4();
        let mut mf = MffcDepths::new(&f.net);
        let d1 = mf.depth(&f.net, f.z);
        let d2 = mf.depth(&f.net, f.z);
        assert_eq!(d1, d2);
        let fresh = simgen_netlist::mffc::mffc_of(&f.net, f.z).depth(&f.net);
        assert_eq!(d1, fresh);
    }
}
