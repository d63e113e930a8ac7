//! Truth-table *rows* and their compatibility with partial assignments.
//!
//! A row is a cube over a LUT's inputs together with the output value
//! it produces — exactly the rows of the paper's Figure 3 truth table.
//! SimGen derives them once per distinct LUT function (irredundant
//! prime covers of the on- and off-set) and caches them in a [`RowDb`],
//! since mapped networks reuse a small set of functions heavily. The
//! database hands out an id per function that is the range of its
//! rows in one flat row array, so a caller that remembers each gate's
//! id slices the array instead of hashing the truth table on every
//! visit. A second flat array holds every row's pin masks at the same
//! indices, so matching a gate reads a slice of mask pairs.

use std::collections::HashMap;
use std::num::NonZeroU32;
use std::ops::Range;

use simgen_netlist::truth::MAX_ARITY;
use simgen_netlist::{Cube, LutNetwork, NodeId, TruthTable};

use crate::tv::ValueMap;

/// Bit of a pin mask that holds the gate's output; fanin `i` is bit
/// `i` (`i < MAX_ARITY`).
pub(crate) const OUTPUT_PIN: u8 = 1 << MAX_ARITY;

/// Upper bound on the rows of one function: every row of an
/// irredundant cover owns a minterm no other row of its phase covers,
/// so both covers together have at most `2^MAX_ARITY` rows. Row sets
/// therefore fit the bits of a `u64`.
pub(crate) const MAX_ROWS: usize = 1 << MAX_ARITY;

/// One truth-table row: an input cube and the output it implies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    /// The input cube (don't-cares are unspecified inputs).
    pub cube: Cube,
    /// The output value this row produces.
    pub output: bool,
}

impl Row {
    /// The row as `(care, values)` masks over the gate's pins: fanin
    /// `i` at bit `i`, the (always specified) output at `OUTPUT_PIN`,
    /// so that matching rows intersect with plain mask arithmetic.
    pub(crate) fn pin_masks(&self) -> (u8, u8) {
        let out = if self.output { OUTPUT_PIN } else { 0 };
        (self.cube.care() | OUTPUT_PIN, self.cube.values() | out)
    }
}

/// A row's `(care, values)` pin masks ([`Row::pin_masks`]).
pub(crate) type RowMask = (u8, u8);

/// Handle of one function's rows in a [`RowDb`]: their range in the
/// database's flat arrays. Every function has at least one row, so
/// the end is non-zero and an `Option<RowSetId>` per node costs eight
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RowSetId {
    start: u32,
    end: NonZeroU32,
}

impl RowSetId {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end.get() as usize
    }
}

/// Cache of row lists per distinct truth table. The arrays only grow,
/// so every id it hands out stays valid.
#[derive(Clone, Debug, Default)]
pub struct RowDb {
    ids: HashMap<TruthTable, RowSetId>,
    /// Every function's rows, one function after another.
    rows: Vec<Row>,
    /// `rows[i].pin_masks()` at index `i`.
    masks: Vec<RowMask>,
}

impl RowDb {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of a truth table's rows, computing them on first use.
    ///
    /// On-set rows precede off-set rows; within each phase the order
    /// follows the cover computation (deterministic).
    pub(crate) fn id(&mut self, tt: &TruthTable) -> RowSetId {
        if let Some(&id) = self.ids.get(tt) {
            return id;
        }
        let start = self.rows.len();
        let onset = tt.onset_cover().into_iter().map(|cube| (cube, true));
        let offset = tt.offset_cover().into_iter().map(|cube| (cube, false));
        for (cube, output) in onset.chain(offset) {
            let row = Row { cube, output };
            self.rows.push(row);
            self.masks.push(row.pin_masks());
        }
        assert!(
            self.rows.len() - start <= MAX_ROWS,
            "irredundant covers exceed {MAX_ROWS} rows"
        );
        let bound = |i: usize| u32::try_from(i).expect("fewer than 2^32 rows");
        let id = RowSetId {
            start: bound(start),
            end: NonZeroU32::new(bound(self.rows.len())).expect("every function has a row"),
        };
        self.ids.insert(*tt, id);
        id
    }

    /// The rows behind an id this database handed out.
    pub(crate) fn get(&self, id: RowSetId) -> &[Row] {
        &self.rows[id.range()]
    }

    /// The pin masks of [`RowDb::get`]'s rows, at the same indices.
    #[inline]
    pub(crate) fn masks(&self, id: RowSetId) -> &[RowMask] {
        &self.masks[id.range()]
    }

    /// The rows of a truth table (computed once, cached).
    pub fn rows(&mut self, tt: &TruthTable) -> &[Row] {
        let id = self.id(tt);
        self.get(id)
    }

    /// Number of distinct functions cached.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The indices of the set bits of `set`, ascending: the members of a
/// row set from [`matching`].
pub(crate) fn members(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

/// Reads the pins of `gate`, whose fanins by index are `fanins`, as
/// `(care, values)` masks: fanin `i` at bit `i`, the gate's output at
/// `OUTPUT_PIN`. Each pin's two-bit value code (bit 0 assigned, bit 1
/// the value) lands in the two masks with two shifts.
#[inline]
pub(crate) fn read_pins(values: &ValueMap, gate: NodeId, fanins: &[NodeId]) -> (u8, u8) {
    let out = values.code(gate);
    let mut care = (out & 1) << MAX_ARITY;
    let mut vals = (out >> 1) << MAX_ARITY;
    for (i, &f) in fanins.iter().enumerate() {
        let code = values.code(f);
        care |= (code & 1) << i;
        vals |= (code >> 1) << i;
    }
    (care, vals)
}

/// The rows compatible with the pin assignment `(care, values)` (as
/// [`read_pins`] returns it), as a set: bit `i` is set when row `i`'s
/// masks clash with no assigned pin the row specifies.
#[inline]
pub(crate) fn matching(care: u8, values: u8, rows: impl IntoIterator<Item = RowMask>) -> u64 {
    let mut set = 0u64;
    for (i, (row_care, row_values)) in rows.into_iter().enumerate() {
        if (values ^ row_values) & care & row_care == 0 {
            set |= 1 << i;
        }
    }
    set
}

/// The partial assignment of one gate's pins, extracted from a
/// [`ValueMap`]: care/value masks over its fanins plus the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PinAssignment {
    /// Bit `i` set when fanin `i` is assigned.
    pub care: u8,
    /// Fanin values under `care`.
    pub values: u8,
    /// The gate's output value, if assigned.
    pub output: Option<bool>,
}

impl PinAssignment {
    /// Reads the pin assignment of `gate` from the value map.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is a PI (PIs have no pins to match rows on).
    pub fn of(net: &LutNetwork, values: &ValueMap, gate: NodeId) -> Self {
        assert!(
            net.truth_table(gate).is_some(),
            "pin assignment of a pi is meaningless"
        );
        let (care, vals) = read_pins(values, gate, net.fanins(gate));
        PinAssignment {
            care: care & !OUTPUT_PIN,
            values: vals & !OUTPUT_PIN,
            output: values.get(gate).to_bool(),
        }
    }

    /// The rows compatible with this assignment, as a set: bit `i` is
    /// set when `rows[i]`'s output agrees with the gate's (when
    /// assigned) and none of its specified inputs clashes with an
    /// assigned fanin.
    pub(crate) fn matching(&self, rows: &[Row]) -> u64 {
        let (care, values) = match self.output {
            None => (self.care, self.values),
            Some(out) => (
                self.care | OUTPUT_PIN,
                self.values | if out { OUTPUT_PIN } else { 0 },
            ),
        };
        matching(care, values, rows.iter().map(Row::pin_masks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tv::Value;
    use simgen_netlist::LutNetwork;

    /// The rows of `gate` compatible with the current assignment.
    fn compatible_rows(net: &LutNetwork, vm: &ValueMap, db: &mut RowDb, gate: NodeId) -> Vec<Row> {
        let rows = db.rows(net.truth_table(gate).unwrap());
        let set = PinAssignment::of(net, vm, gate).matching(rows);
        members(set).map(|i| rows[i]).collect()
    }

    fn and_gate() -> (LutNetwork, NodeId, NodeId, NodeId) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        net.add_po(g, "f");
        (net, a, b, g)
    }

    #[test]
    fn rows_of_and2() {
        let mut db = RowDb::new();
        let rows = db.rows(&TruthTable::and2());
        // On-set: 11 -> 1. Off-set: 0- -> 0 and -0 -> 0.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().filter(|r| r.output).count(), 1);
        assert_eq!(rows.iter().filter(|r| !r.output).count(), 2);
        let on = rows.iter().find(|r| r.output).unwrap();
        assert_eq!(on.cube.dc_count(2), 0);
        for off in rows.iter().filter(|r| !r.output) {
            assert_eq!(off.cube.dc_count(2), 1, "and2 off rows have one dc");
        }
    }

    #[test]
    fn db_caches_by_function() {
        let mut db = RowDb::new();
        let and = db.id(&TruthTable::and2());
        assert_eq!(db.id(&TruthTable::and2()), and);
        assert_eq!(db.len(), 1);
        let or = db.id(&TruthTable::or2());
        assert_ne!(or, and);
        assert_eq!(db.len(), 2);
        let and_rows = db.rows(&TruthTable::and2()).to_vec();
        assert_eq!(db.get(and), and_rows.as_slice());
        for id in [and, or] {
            let masks: Vec<RowMask> = db.get(id).iter().map(Row::pin_masks).collect();
            assert_eq!(db.masks(id), masks.as_slice(), "masks at the rows' indices");
        }
    }

    #[test]
    fn pin_masks_put_the_output_above_the_fanins() {
        let mut db = RowDb::new();
        for tt in [
            TruthTable::and2(),
            TruthTable::from_bits(6, 0x6996_9669_9669_6996).unwrap(),
        ] {
            for row in db.rows(&tt) {
                let (care, values) = row.pin_masks();
                assert_eq!(care & !OUTPUT_PIN, row.cube.care());
                assert_eq!(values & !OUTPUT_PIN, row.cube.values());
                assert_ne!(care & OUTPUT_PIN, 0, "the output is always specified");
                assert_eq!(values & OUTPUT_PIN != 0, row.output);
            }
        }
    }

    #[test]
    fn six_input_parity_fills_the_row_bound() {
        // Parity has no don't-cares: one row per minterm, the most any
        // function can have.
        let parity = TruthTable::from_fn(6, |m| m.count_ones() % 2 == 1);
        assert_eq!(RowDb::new().rows(&parity).len(), MAX_ROWS);
    }

    #[test]
    fn pin_assignment_reads_map() {
        let (net, a, _b, g) = and_gate();
        let mut vm = ValueMap::new(net.len());
        vm.assign(a, Value::One);
        vm.assign(g, Value::Zero);
        let pins = PinAssignment::of(&net, &vm, g);
        assert_eq!(pins.care, 0b01);
        assert_eq!(pins.values, 0b01);
        assert_eq!(pins.output, Some(false));
    }

    #[test]
    fn read_pins_splits_each_code_into_care_and_value() {
        // Every assignment of an and2 gate's three pins.
        let (net, a, b, g) = and_gate();
        let all = [Value::Unknown, Value::Zero, Value::One];
        for va in all {
            for vb in all {
                for vg in all {
                    let mut vm = ValueMap::new(net.len());
                    for (n, v) in [(a, va), (b, vb), (g, vg)] {
                        if v.is_assigned() {
                            vm.assign(n, v);
                        }
                    }
                    let (care, values) = read_pins(&vm, g, net.fanins(g));
                    for (bit, v) in [(1, va), (2, vb), (OUTPUT_PIN, vg)] {
                        assert_eq!(care & bit != 0, v.is_assigned(), "care of {v}");
                        assert_eq!(values & bit != 0, v == Value::One, "value of {v}");
                    }
                    assert_eq!(care & !(OUTPUT_PIN | 0b11), 0, "no other pins");
                }
            }
        }
    }

    #[test]
    fn compatibility_filters_rows() {
        let (net, a, _b, g) = and_gate();
        let mut vm = ValueMap::new(net.len());
        let mut db = RowDb::new();
        // Unconstrained gate: all three rows compatible.
        assert_eq!(compatible_rows(&net, &vm, &mut db, g).len(), 3);
        // Output 0: the two off rows.
        vm.assign(g, Value::Zero);
        let rows = compatible_rows(&net, &vm, &mut db, g);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.output));
        // Also a=1: only the row "b=0 -> 0" remains (the a=0 row clashes).
        vm.assign(a, Value::One);
        let rows = compatible_rows(&net, &vm, &mut db, g);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cube.input(1), Some(false));
    }

    #[test]
    fn matching_checks_the_pins_both_sides_specify() {
        // The row in0=1, in1=0 -> 1.
        let row = Row {
            cube: Cube::new(0b011, 0b001),
            output: true,
        };
        let pins = |care, values, output| PinAssignment {
            care,
            values,
            output,
        };
        assert_eq!(pins(0b001, 0b001, None).matching(&[row]), 1, "in0=1 agrees");
        assert_eq!(
            pins(0b001, 0b000, None).matching(&[row]),
            0,
            "in0=0 clashes"
        );
        assert_eq!(
            pins(0b100, 0b100, None).matching(&[row]),
            1,
            "in2 is free in the row"
        );
        assert_eq!(pins(0, 0, None).matching(&[row]), 1);
        assert_eq!(
            pins(0, 0, Some(false)).matching(&[row]),
            0,
            "output clashes"
        );
        assert_eq!(pins(0b011, 0b001, Some(true)).matching(&[row, row]), 0b11);
    }

    #[test]
    fn contradictory_assignment_yields_no_rows() {
        let (net, a, b, g) = and_gate();
        let mut vm = ValueMap::new(net.len());
        let mut db = RowDb::new();
        vm.assign(a, Value::One);
        vm.assign(b, Value::One);
        vm.assign(g, Value::Zero); // and(1,1) = 0 is impossible
        assert!(compatible_rows(&net, &vm, &mut db, g).is_empty());
    }

    #[test]
    fn xor_rows_have_no_dcs() {
        let mut db = RowDb::new();
        let rows = db.rows(&TruthTable::xor2());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.cube.dc_count(2) == 0));
    }

    #[test]
    fn constant_rows() {
        let mut db = RowDb::new();
        let rows = db.rows(&TruthTable::const1(0));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].output);
        let rows = db.rows(&TruthTable::const0(3));
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].output);
        assert_eq!(rows[0].cube.dc_count(3), 3);
    }
}
