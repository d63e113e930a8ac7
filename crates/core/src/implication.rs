//! The implication engine (paper Sections 2.4 and 4).
//!
//! Starting from a set of freshly assigned nodes, the engine visits
//! every gate whose pins may be affected and applies forced
//! assignments until a fixpoint or a conflict:
//!
//! * **Simple implication** (Definition 2.2): a gate is propagated
//!   only when exactly *one* truth-table row is compatible with its
//!   current pin assignment; that row's specified values are asserted.
//! * **Advanced implication** (Definition 4.1): when *several* rows
//!   match, any pin on which all of them agree is asserted — the
//!   paper's key extension, which keeps propagation going where simple
//!   implication stalls (Figure 3) and postpones decisions.
//!
//! Both variants imply in both directions (inputs → output and
//! output → inputs), because compatibility is checked over the whole
//! row including the output column.

use simgen_netlist::truth::MAX_ARITY;
use simgen_netlist::{LutNetwork, NodeId};

use crate::rows::{members, PinAssignment, Row, RowDb, RowSetId, OUTPUT_PIN};
use crate::tv::{Value, ValueMap};

/// Which implication variant to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ImplicationStrategy {
    /// Propagate only uniquely-determined rows (Definition 2.2).
    Simple,
    /// Also propagate pin values shared by all matching rows
    /// (Definition 4.1).
    #[default]
    Advanced,
}

/// Outcome of a propagation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Propagation {
    /// Fixpoint reached with no contradiction; carries the number of
    /// values assigned by the pass.
    Quiescent(usize),
    /// A gate's pin assignment matches no truth-table row.
    Conflict(NodeId),
}

impl Propagation {
    /// True if the pass completed without conflict.
    pub fn is_ok(&self) -> bool {
        matches!(self, Propagation::Quiescent(_))
    }
}

/// The implication engine of one network, with every buffer a pass
/// needs, so that a pass allocates nothing and touches only the gates
/// it visits:
///
/// * the LIFO queue and its membership mask, which every pass leaves
///   empty and all-false (the queue is empty at a fixpoint and is
///   drained on a conflict);
/// * each gate's row-set id, looked up in the [`RowDb`] on the
///   gate's first visit and read from a slice on every later one.
#[derive(Debug)]
pub struct Implicator<'n> {
    net: &'n LutNetwork,
    db: RowDb,
    row_sets: Vec<Option<RowSetId>>,
    queue: Vec<NodeId>,
    in_queue: Vec<bool>,
}

impl<'n> Implicator<'n> {
    /// Creates the engine for a network.
    pub fn new(net: &'n LutNetwork) -> Self {
        Self::with_rows(net, RowDb::new())
    }

    /// Creates the engine reusing an existing row cache (the cache is
    /// keyed by truth table, so it is valid across networks).
    pub fn with_rows(net: &'n LutNetwork, db: RowDb) -> Self {
        Implicator {
            net,
            db,
            row_sets: vec![None; net.len()],
            queue: Vec::new(),
            in_queue: vec![false; net.len()],
        }
    }

    /// Releases the row cache for reuse by a later engine.
    pub fn into_rows(self) -> RowDb {
        self.db
    }

    /// The rows of `gate`'s function, on-set rows first.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is a PI.
    pub(crate) fn rows_of(&mut self, gate: NodeId) -> &[Row] {
        let id = self.row_set(gate);
        self.db.get(id)
    }

    fn row_set(&mut self, gate: NodeId) -> RowSetId {
        if let Some(id) = self.row_sets[gate.index()] {
            return id;
        }
        let tt = self.net.truth_table(gate).expect("gates are luts");
        let id = self.db.id(tt);
        self.row_sets[gate.index()] = Some(id);
        id
    }

    /// Runs implication to fixpoint from the given seed nodes.
    ///
    /// `seeds` should be the nodes assigned since the last pass (their
    /// own gates and all their fanout gates are re-examined). New
    /// assignments recursively extend the frontier. A `region` mask
    /// (Algorithm 1's `listDfs`: the target's fanin cone) confines the
    /// pass: gates outside it are never examined, which bounds each
    /// pass to the cone instead of the whole network. On conflict the
    /// value map is left as-is — the caller owns rollback via
    /// [`ValueMap::mark`].
    pub fn propagate(
        &mut self,
        values: &mut ValueMap,
        seeds: &[NodeId],
        strategy: ImplicationStrategy,
        region: Option<&[bool]>,
    ) -> Propagation {
        for &s in seeds {
            self.enqueue_around(s, region);
        }
        let mut assigned_total = 0usize;
        while let Some(gate) = self.queue.pop() {
            self.in_queue[gate.index()] = false;
            let id = self.row_set(gate);
            let rows = self.db.get(id);
            let matching = PinAssignment::of(self.net, values, gate).matching(rows);
            if matching == 0 {
                for n in self.queue.drain(..) {
                    self.in_queue[n.index()] = false;
                }
                return Propagation::Conflict(gate);
            }
            // Intersect the matching rows: a pin stays forced only
            // while every row specifies it to the first row's value.
            let (mut forced, first) = rows[matching.trailing_zeros() as usize].pin_masks();
            let others = matching & (matching - 1);
            for i in members(others) {
                let (row_care, row_values) = rows[i].pin_masks();
                forced &= row_care & !(row_values ^ first);
            }
            if strategy == ImplicationStrategy::Simple && others != 0 {
                continue;
            }
            // Apply the forced values to unassigned pins: the output,
            // then the fanins by index.
            let mut newly = [gate; MAX_ARITY + 1];
            let mut count = 0;
            if forced & OUTPUT_PIN != 0 && !values.is_assigned(gate) {
                values.assign(gate, Value::from_bool(first & OUTPUT_PIN != 0));
                newly[count] = gate;
                count += 1;
            }
            for (i, &fanin) in self.net.fanins(gate).iter().enumerate() {
                if (forced >> i) & 1 == 1 && !values.is_assigned(fanin) {
                    values.assign(fanin, Value::from_bool((first >> i) & 1 == 1));
                    newly[count] = fanin;
                    count += 1;
                }
            }
            assigned_total += count;
            for &n in &newly[..count] {
                self.enqueue_around(n, region);
            }
        }
        Propagation::Quiescent(assigned_total)
    }

    /// Queues `n`'s own gate, then its fanout gates in order, skipping
    /// queued gates and gates outside `region`.
    fn enqueue_around(&mut self, n: NodeId, region: Option<&[bool]>) {
        let net = self.net;
        let allowed = |m: NodeId| region.is_none_or(|r| r[m.index()]);
        if !net.is_pi(n) && !self.in_queue[n.index()] && allowed(n) {
            self.in_queue[n.index()] = true;
            self.queue.push(n);
        }
        for &fo in net.fanouts(n) {
            if !self.in_queue[fo.index()] && allowed(fo) {
                self.in_queue[fo.index()] = true;
                self.queue.push(fo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    /// z = x & y where x = a & b and y = nand(inv(b), c) — the
    /// Figure 1 circuit of the paper.
    struct Fig1 {
        net: LutNetwork,
        a: NodeId,
        b: NodeId,
        c: NodeId,
        inv: NodeId,
        x: NodeId,
        y: NodeId,
        z: NodeId,
    }

    fn figure1() -> Fig1 {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let inv = net.add_lut(vec![b], TruthTable::not1()).unwrap();
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![inv, c], TruthTable::nand2()).unwrap();
        let z = net.add_lut(vec![x, y], TruthTable::and2()).unwrap();
        net.add_po(z, "d");
        Fig1 {
            net,
            a,
            b,
            c,
            inv,
            x,
            y,
            z,
        }
    }

    #[test]
    fn backward_implication_through_and() {
        // Setting z=1 forces x=1, y=1, then a=1, b=1, and through the
        // inverter and nand the full Figure 1c cascade: inv=0, c must
        // make nand(0, c)=1 — always true, c stays free... but wait:
        // inv's input is b=1 so inv=0; nand(0, ?) = 1 for any c, so c
        // remains unassigned. No conflict.
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.z, Value::One);
        let r =
            Implicator::new(&f.net).propagate(&mut vm, &[f.z], ImplicationStrategy::Advanced, None);
        assert!(r.is_ok());
        assert_eq!(vm.get(f.x), Value::One);
        assert_eq!(vm.get(f.y), Value::One);
        assert_eq!(vm.get(f.a), Value::One);
        assert_eq!(vm.get(f.b), Value::One);
        assert_eq!(vm.get(f.inv), Value::Zero);
        // nand(0, c) = 1 regardless of c.
        assert_eq!(vm.get(f.c), Value::Unknown);
        // The resulting full vector indeed sets z to 1.
        let vals = f.net.eval(&[true, true, false]);
        assert!(vals[f.z.index()]);
    }

    #[test]
    fn paper_figure1c_inverter_implication() {
        // The exact scenario of Figure 1c: after b=0 is assigned, the
        // inverter's output is implied to 1, which forces c=0 at the
        // nand to keep y=1.
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.y, Value::One);
        vm.assign(f.b, Value::Zero);
        let r = Implicator::new(&f.net).propagate(
            &mut vm,
            &[f.b, f.y],
            ImplicationStrategy::Advanced,
            None,
        );
        assert!(r.is_ok());
        assert_eq!(
            vm.get(f.inv),
            Value::One,
            "forward implication through inverter"
        );
        assert_eq!(vm.get(f.c), Value::Zero, "nand(1, c) = 1 forces c = 0");
    }

    #[test]
    fn conflict_detected() {
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        // x = 1 forces a=b=1; y=... then force inv=1 which needs b=0:
        // contradiction. Build it directly: b=1 assigned, inv=1 assigned.
        vm.assign(f.b, Value::One);
        vm.assign(f.inv, Value::One);
        let r = Implicator::new(&f.net).propagate(
            &mut vm,
            &[f.b, f.inv],
            ImplicationStrategy::Advanced,
            None,
        );
        assert_eq!(r, Propagation::Conflict(f.inv));
    }

    #[test]
    fn a_conflict_leaves_the_engine_reusable() {
        // b=1 contradicts inv=1. With x and z queued below inv, the
        // conflict returns while they are still queued; the engine must
        // drain them, or the next pass would skip x and z as queued.
        let f = figure1();
        let mut imp = Implicator::new(&f.net);
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.b, Value::One);
        vm.assign(f.inv, Value::One);
        let r = imp.propagate(&mut vm, &[f.x, f.b], ImplicationStrategy::Advanced, None);
        assert_eq!(r, Propagation::Conflict(f.inv));
        let from_z = |imp: &mut Implicator| {
            let mut vm = ValueMap::new(f.net.len());
            vm.assign(f.z, Value::One);
            let r = imp.propagate(&mut vm, &[f.z], ImplicationStrategy::Advanced, None);
            (r, vm.trail().to_vec())
        };
        assert_eq!(from_z(&mut imp), from_z(&mut Implicator::new(&f.net)));
    }

    #[test]
    fn a_region_confines_the_pass() {
        // Outside the region nothing is examined: z=1 inside a region
        // of {z, x} forces x and its fanins but never reaches y.
        let f = figure1();
        let mut region = vec![false; f.net.len()];
        region[f.z.index()] = true;
        region[f.x.index()] = true;
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.z, Value::One);
        let r = Implicator::new(&f.net).propagate(
            &mut vm,
            &[f.z],
            ImplicationStrategy::Advanced,
            Some(&region),
        );
        assert!(r.is_ok());
        assert_eq!(vm.get(f.x), Value::One);
        assert_eq!(vm.get(f.y), Value::One, "z's own rows force y");
        assert_eq!(vm.get(f.a), Value::One);
        assert_eq!(vm.get(f.inv), Value::Unknown, "y's gate is outside");
    }

    #[test]
    fn forward_implication_inputs_to_output() {
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.a, Value::Zero);
        let r =
            Implicator::new(&f.net).propagate(&mut vm, &[f.a], ImplicationStrategy::Advanced, None);
        assert!(r.is_ok());
        // and(0, b) = 0 regardless of b.
        assert_eq!(vm.get(f.x), Value::Zero);
        // z = and(0, y) = 0.
        assert_eq!(vm.get(f.z), Value::Zero);
    }

    #[test]
    fn advanced_beats_simple_on_figure3_pattern() {
        // f1 = a nand b (a 2-input function whose output is forced to
        // 1 whenever b = 1 is *not* enough... we need the paper's
        // truth-table shape). Use f(b, d) with rows where b=1 forces
        // output regardless of d: f = !b | b&!d ... Simpler concrete
        // case: or2 with one input 1.
        let mut net = LutNetwork::new();
        let b = net.add_pi("b");
        let d = net.add_pi("d");
        let g = net.add_lut(vec![b, d], TruthTable::or2()).unwrap();
        let h = net.add_lut(vec![g, d], TruthTable::and2()).unwrap();
        net.add_po(h, "f");
        let mut imp = Implicator::new(&net);
        // With b=1: or(1, d)=1 has two satisfying rows under simple
        // matching (the cover is {1-, -1}); advanced implication
        // asserts g=1, simple does not.
        let mut vm = ValueMap::new(net.len());
        vm.assign(b, Value::One);
        let r = imp.propagate(&mut vm, &[b], ImplicationStrategy::Simple, None);
        assert!(r.is_ok());
        assert_eq!(vm.get(g), Value::Unknown, "simple implication stalls");

        let mut vm = ValueMap::new(net.len());
        vm.assign(b, Value::One);
        let r = imp.propagate(&mut vm, &[b], ImplicationStrategy::Advanced, None);
        assert!(r.is_ok());
        assert_eq!(vm.get(g), Value::One, "advanced implication proceeds");
    }

    #[test]
    fn quiescent_counts_assignments() {
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.z, Value::One);
        match Implicator::new(&f.net).propagate(
            &mut vm,
            &[f.z],
            ImplicationStrategy::Advanced,
            None,
        ) {
            Propagation::Quiescent(n) => assert_eq!(n, 5), // x, y, a, b, inv
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_seeds_is_noop() {
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        let r =
            Implicator::new(&f.net).propagate(&mut vm, &[], ImplicationStrategy::Advanced, None);
        assert_eq!(r, Propagation::Quiescent(0));
        assert_eq!(vm.trail_len(), 0);
    }

    #[test]
    fn implication_respects_existing_assignments() {
        // Nothing already assigned is ever overwritten: propagate on a
        // fully assigned consistent gate is a no-op.
        let f = figure1();
        let mut vm = ValueMap::new(f.net.len());
        vm.assign(f.a, Value::One);
        vm.assign(f.b, Value::One);
        vm.assign(f.x, Value::One);
        let before = vm.trail_len();
        let r = Implicator::new(&f.net).propagate(
            &mut vm,
            &[f.a, f.b, f.x],
            ImplicationStrategy::Advanced,
            None,
        );
        assert!(r.is_ok());
        // inv gets implied from b; z stays (y unknown).
        assert_eq!(vm.get(f.inv), Value::Zero);
        assert!(vm.trail_len() >= before);
        assert_eq!(vm.get(f.a), Value::One);
    }
}
