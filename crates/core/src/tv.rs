//! Ternary values and the trail-backed assignment map.
//!
//! Pattern generation reasons over partial assignments: every node is
//! `0`, `1` or unassigned (a don't-care in the paper's terminology,
//! treated as "no value yet"). [`ValueMap`] stores one [`Value`] per
//! network node and records assignment order on a *trail*, which
//! provides both the cheap rollback Algorithm 1 needs (line 12:
//! `nodeVals = initVals`) and the "latest updated node" query
//! (line 15) for free.

use simgen_netlist::NodeId;

/// A ternary signal value.
///
/// Each value is a two-bit code: bit 0 says the value is assigned and
/// bit 1 holds it, so a gate's pins split into a care mask and a value
/// mask with two shifts per pin (`rows::read_pins`), and each fanin's
/// code indexes its minterm mask directly (`implication`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Value {
    /// Unassigned / don't-care.
    #[default]
    Unknown = 0b00,
    /// Logic zero.
    Zero = 0b01,
    /// Logic one.
    One = 0b11,
}

impl Value {
    /// Converts a Boolean into a definite value.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// The Boolean content, or `None` when unassigned.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Value::Zero => Some(false),
            Value::One => Some(true),
            Value::Unknown => None,
        }
    }

    /// True if the value is assigned.
    pub fn is_assigned(self) -> bool {
        self.code() & 1 != 0
    }

    /// The two-bit code: bit 0 assigned, bit 1 the value.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Zero => write!(f, "0"),
            Value::One => write!(f, "1"),
            Value::Unknown => write!(f, "-"),
        }
    }
}

/// A snapshot token for [`ValueMap::rollback`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark(usize);

/// Dense per-node ternary assignment with an undo trail.
#[derive(Clone, Debug)]
pub struct ValueMap {
    values: Vec<Value>,
    trail: Vec<NodeId>,
}

impl ValueMap {
    /// Creates an all-unassigned map for `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        ValueMap {
            values: vec![Value::Unknown; num_nodes],
            trail: Vec::new(),
        }
    }

    /// The value of a node.
    pub fn get(&self, node: NodeId) -> Value {
        self.values[node.index()]
    }

    /// True if the node has a definite value.
    pub fn is_assigned(&self, node: NodeId) -> bool {
        self.values[node.index()].is_assigned()
    }

    /// The two-bit code of a node's value (see [`Value`]).
    #[inline]
    pub(crate) fn code(&self, node: NodeId) -> u8 {
        self.values[node.index()].code()
    }

    /// Assigns a definite value to an unassigned node.
    ///
    /// # Panics
    ///
    /// Panics if the node is already assigned (callers must check
    /// compatibility first) or `value` is [`Value::Unknown`].
    pub fn assign(&mut self, node: NodeId, value: Value) {
        assert!(value.is_assigned(), "cannot assign unknown");
        assert!(
            !self.values[node.index()].is_assigned(),
            "node {node} already assigned"
        );
        self.values[node.index()] = value;
        self.trail.push(node);
    }

    /// Number of assignments on the trail.
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// The assignment trail, oldest first.
    pub fn trail(&self) -> &[NodeId] {
        &self.trail
    }

    /// Takes a snapshot that [`ValueMap::rollback`] can return to.
    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Undoes every assignment made after `mark`.
    pub fn rollback(&mut self, mark: Mark) {
        while self.trail.len() > mark.0 {
            let n = self.trail.pop().expect("trail nonempty");
            self.values[n.index()] = Value::Unknown;
        }
    }

    /// Clears all assignments.
    pub fn clear(&mut self) {
        self.rollback(Mark(0));
    }

    /// Iterates over the assignments made after `mark`, oldest first.
    pub fn assigned_since(&self, mark: Mark) -> &[NodeId] {
        &self.trail[mark.0..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from_bool(true), Value::One);
        assert_eq!(Value::from_bool(false), Value::Zero);
        assert_eq!(Value::One.to_bool(), Some(true));
        assert_eq!(Value::Unknown.to_bool(), None);
        assert!(Value::Zero.is_assigned());
        assert!(!Value::Unknown.is_assigned());
        assert_eq!(Value::default(), Value::Unknown);
        assert_eq!(
            format!("{}{}{}", Value::Zero, Value::One, Value::Unknown),
            "01-"
        );
    }

    #[test]
    fn value_codes_round_trip() {
        for v in [Value::Unknown, Value::Zero, Value::One] {
            let code = v.code();
            assert!(code < 4, "{v} fits two bits");
            assert_eq!(code & 1 == 1, v.is_assigned(), "bit 0 of {v}");
            let back = if v.is_assigned() {
                Value::from_bool(code >> 1 == 1)
            } else {
                Value::Unknown
            };
            assert_eq!(back, v, "bit 1 of {v}");
            let mut m = ValueMap::new(1);
            if v.is_assigned() {
                m.assign(n(0), v);
            }
            assert_eq!(m.code(n(0)), code);
        }
        assert_eq!(Value::Unknown.code(), 0, "a fresh map reads unassigned");
    }

    #[test]
    fn assign_and_read() {
        let mut m = ValueMap::new(4);
        assert!(!m.is_assigned(n(2)));
        m.assign(n(2), Value::One);
        assert_eq!(m.get(n(2)), Value::One);
        assert_eq!(m.trail(), &[n(2)]);
    }

    #[test]
    fn rollback_restores() {
        let mut m = ValueMap::new(4);
        m.assign(n(0), Value::Zero);
        let mark = m.mark();
        m.assign(n(1), Value::One);
        m.assign(n(2), Value::Zero);
        assert_eq!(m.assigned_since(mark), &[n(1), n(2)]);
        m.rollback(mark);
        assert_eq!(m.get(n(0)), Value::Zero);
        assert_eq!(m.get(n(1)), Value::Unknown);
        assert_eq!(m.get(n(2)), Value::Unknown);
        assert_eq!(m.trail_len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = ValueMap::new(3);
        m.assign(n(0), Value::One);
        m.assign(n(1), Value::Zero);
        m.clear();
        assert_eq!(m.trail_len(), 0);
        for i in 0..3 {
            assert!(!m.is_assigned(n(i)));
        }
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn double_assign_panics() {
        let mut m = ValueMap::new(2);
        m.assign(n(0), Value::One);
        m.assign(n(0), Value::One);
    }

    #[test]
    #[should_panic(expected = "cannot assign unknown")]
    fn assign_unknown_panics() {
        let mut m = ValueMap::new(2);
        m.assign(n(0), Value::Unknown);
    }
}
