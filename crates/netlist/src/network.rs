//! The K-LUT Boolean network: the representation the sweeping flow,
//! the simulator and SimGen itself all operate on.
//!
//! Nodes are stored in a single dense, topologically-ordered array:
//! primary inputs and LUTs interleave freely, but every LUT's fanins
//! always precede it. Iterating node ids forward therefore is a
//! topological traversal; iterating backward is a reverse-topological
//! one. This mirrors how ABC stores its networks and keeps every
//! downstream algorithm allocation-light.

use crate::error::NetlistError;
use crate::id::NodeId;
use crate::truth::TruthTable;

/// The payload of a network node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input; `index` is its position among the PIs.
    Pi {
        /// Dense index among the network's PIs.
        index: usize,
    },
    /// A LUT computing `tt` over `fanins` (fanin `i` is truth-table
    /// input `i`).
    Lut {
        /// Fanin node ids, all strictly smaller than this node's id.
        fanins: Vec<NodeId>,
        /// The LUT function.
        tt: TruthTable,
    },
}

/// A primary output: a pointer to a driver node plus a name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Po {
    /// The node driving this output.
    pub node: NodeId,
    /// Output name (for file I/O and reporting).
    pub name: String,
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    level: u32,
    name: Option<String>,
}

/// A combinational K-LUT network (K ≤ 6).
///
/// See the [crate-level docs](crate) for a construction example.
#[derive(Clone, Debug, Default)]
pub struct LutNetwork {
    nodes: Vec<Node>,
    pis: Vec<NodeId>,
    pos: Vec<Po>,
    fanouts: Vec<Vec<NodeId>>,
    name: String,
}

impl LutNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network with a name (used in reports and file
    /// headers).
    pub fn with_name(name: impl Into<String>) -> Self {
        LutNetwork {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Appends a primary input and returns its node id.
    pub fn add_pi(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Pi {
                index: self.pis.len(),
            },
            level: 0,
            name: Some(name.into()),
        });
        self.fanouts.push(Vec::new());
        self.pis.push(id);
        id
    }

    /// Appends a LUT node.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] if `fanins.len()` differs from
    ///   the truth table's arity.
    /// * [`NetlistError::DanglingFanin`] if any fanin id has not been
    ///   added yet (the network is built strictly topologically).
    pub fn add_lut(&mut self, fanins: Vec<NodeId>, tt: TruthTable) -> Result<NodeId, NetlistError> {
        if fanins.len() != tt.arity() {
            return Err(NetlistError::ArityMismatch {
                fanins: fanins.len(),
                arity: tt.arity(),
            });
        }
        let mut level = 0;
        for &f in &fanins {
            if f.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingFanin {
                    fanin: f.index(),
                    nodes: self.nodes.len(),
                });
            }
            level = level.max(self.nodes[f.index()].level + 1);
        }
        // A zero-input LUT (constant) sits at level 0 like a PI.
        let id = NodeId(self.nodes.len() as u32);
        for &f in &fanins {
            self.fanouts[f.index()].push(id);
        }
        self.nodes.push(Node {
            kind: NodeKind::Lut { fanins, tt },
            level,
            name: None,
        });
        self.fanouts.push(Vec::new());
        Ok(id)
    }

    /// Convenience: appends a constant-0 or constant-1 LUT.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let tt = if value {
            TruthTable::const1(0)
        } else {
            TruthTable::const0(0)
        };
        self.add_lut(Vec::new(), tt)
            .expect("const lut is always valid")
    }

    /// Registers `node` as a primary output named `name`.
    ///
    /// The same node may drive several outputs.
    pub fn add_po(&mut self, node: NodeId, name: impl Into<String>) {
        assert!(
            node.index() < self.nodes.len(),
            "po driver {node} does not exist"
        );
        self.pos.push(Po {
            node,
            name: name.into(),
        });
    }

    /// Appends a copy of `src` as a structurally disjoint island: fresh
    /// PIs named `{tag}_pi{i}`, its LUTs over them, and its POs renamed
    /// `{tag}_{name}`. The copy shares no node with the rest of the
    /// network, so its cones form a fanin region of their own.
    pub fn append_island(&mut self, src: &LutNetwork, tag: &str) {
        let mut map: Vec<NodeId> = Vec::with_capacity(src.len());
        for node in &src.nodes {
            let new = match &node.kind {
                NodeKind::Pi { .. } => self.add_pi(format!("{tag}_pi{}", map.len())),
                NodeKind::Lut { fanins, tt } => {
                    let fanins = fanins.iter().map(|f| map[f.index()]).collect();
                    self.add_lut(fanins, *tt)
                        .expect("a valid network stays valid")
                }
            };
            map.push(new);
        }
        for po in &src.pos {
            self.add_po(map[po.node.index()], format!("{tag}_{}", po.name));
        }
    }

    /// Total node count (PIs + LUTs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn num_pos(&self) -> usize {
        self.pos.len()
    }

    /// Number of LUT (non-PI) nodes.
    pub fn num_luts(&self) -> usize {
        self.nodes.len() - self.pis.len()
    }

    /// The primary-input node ids, in PI order.
    pub fn pis(&self) -> &[NodeId] {
        &self.pis
    }

    /// The primary outputs.
    pub fn pos(&self) -> &[Po] {
        &self.pos
    }

    /// Iterates over all node ids in topological order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The kind (PI vs LUT payload) of a node.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// True if `id` is a primary input.
    pub fn is_pi(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].kind, NodeKind::Pi { .. })
    }

    /// The fanins of a node (empty for PIs and constants).
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        match &self.nodes[id.index()].kind {
            NodeKind::Pi { .. } => &[],
            NodeKind::Lut { fanins, .. } => fanins,
        }
    }

    /// The LUT function of a node, or `None` for PIs.
    pub fn truth_table(&self, id: NodeId) -> Option<&TruthTable> {
        match &self.nodes[id.index()].kind {
            NodeKind::Pi { .. } => None,
            NodeKind::Lut { tt, .. } => Some(tt),
        }
    }

    /// The fanouts of a node (nodes that list `id` as a fanin; PO
    /// drivership is not included).
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Number of fanouts plus the number of POs the node drives — the
    /// total reference count used by MFFC computation.
    pub fn fanout_count_with_pos(&self, id: NodeId) -> usize {
        let po_refs = self.pos.iter().filter(|po| po.node == id).count();
        self.fanouts[id.index()].len() + po_refs
    }

    /// The level (longest path from any PI) of a node.
    pub fn level(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].level
    }

    /// The maximum level over all nodes (the network depth).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// The name attached to a node, if any (PIs are always named).
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].name.as_deref()
    }

    /// Attaches a name to a node.
    pub fn set_node_name(&mut self, id: NodeId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    /// Removes all primary outputs, keeping the nodes intact.
    ///
    /// Used when repurposing a network (e.g. converting a combined
    /// CEC network into a single-output miter).
    pub fn clear_pos(&mut self) {
        self.pos.clear();
    }

    /// Evaluates the whole network on one input minterm, returning the
    /// value of every node. Used by tests and reference checks; bulk
    /// simulation lives in `simgen-sim`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut vals = Vec::new();
        self.eval_into(inputs, &mut vals);
        vals
    }

    /// Like [`LutNetwork::eval`], but writes into a caller-provided
    /// buffer so hot loops (e.g. counterexample resimulation) can
    /// evaluate many vectors without allocating per call.
    pub fn eval_into(&self, inputs: &[bool], vals: &mut Vec<bool>) {
        assert_eq!(inputs.len(), self.pis.len(), "wrong input count");
        vals.clear();
        vals.resize(self.nodes.len(), false);
        for (idx, node) in self.nodes.iter().enumerate() {
            vals[idx] = match &node.kind {
                NodeKind::Pi { index } => inputs[*index],
                NodeKind::Lut { fanins, tt } => {
                    let mut m = 0u64;
                    for (i, f) in fanins.iter().enumerate() {
                        if vals[f.index()] {
                            m |= 1 << i;
                        }
                    }
                    tt.eval(m)
                }
            };
        }
    }

    /// Evaluates only the primary outputs on one input minterm.
    pub fn eval_pos(&self, inputs: &[bool]) -> Vec<bool> {
        let vals = self.eval(inputs);
        self.pos.iter().map(|po| vals[po.node.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> (LutNetwork, NodeId, NodeId) {
        let mut net = LutNetwork::with_name("fa");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let cin = net.add_pi("cin");
        let sum = net
            .add_lut(
                vec![a, b, cin],
                TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1),
            )
            .unwrap();
        let cout = net
            .add_lut(
                vec![a, b, cin],
                TruthTable::from_fn(3, |m| m.count_ones() >= 2),
            )
            .unwrap();
        net.add_po(sum, "sum");
        net.add_po(cout, "cout");
        (net, sum, cout)
    }

    #[test]
    fn build_and_query() {
        let (net, sum, cout) = full_adder();
        assert_eq!(net.len(), 5);
        assert_eq!(net.num_pis(), 3);
        assert_eq!(net.num_pos(), 2);
        assert_eq!(net.num_luts(), 2);
        assert_eq!(net.level(sum), 1);
        assert_eq!(net.level(cout), 1);
        assert_eq!(net.depth(), 1);
        assert_eq!(net.fanins(sum).len(), 3);
        assert!(net.truth_table(net.pis()[0]).is_none());
    }

    #[test]
    fn eval_full_adder() {
        let (net, _, _) = full_adder();
        for m in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let pos = net.eval_pos(&inputs);
            let total = inputs.iter().filter(|&&b| b).count();
            assert_eq!(pos[0], total % 2 == 1, "sum at {m:03b}");
            assert_eq!(pos[1], total >= 2, "cout at {m:03b}");
        }
    }

    #[test]
    fn fanouts_tracked() {
        let (net, sum, cout) = full_adder();
        let a = net.pis()[0];
        assert_eq!(net.fanouts(a), &[sum, cout]);
        assert!(net.fanouts(sum).is_empty());
        assert_eq!(net.fanout_count_with_pos(sum), 1);
        assert_eq!(net.fanout_count_with_pos(cout), 1);
        assert_eq!(net.fanout_count_with_pos(a), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let err = net.add_lut(vec![a], TruthTable::and2()).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::ArityMismatch {
                fanins: 1,
                arity: 2
            }
        ));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let bogus = NodeId::from_index(17);
        let err = net.add_lut(vec![a, bogus], TruthTable::and2()).unwrap_err();
        assert!(matches!(err, NetlistError::DanglingFanin { fanin: 17, .. }));
    }

    #[test]
    fn constants() {
        let mut net = LutNetwork::new();
        let one = net.add_const(true);
        let zero = net.add_const(false);
        net.add_po(one, "one");
        net.add_po(zero, "zero");
        assert_eq!(net.eval_pos(&[]), vec![true, false]);
        assert_eq!(net.level(one), 0);
    }

    #[test]
    fn levels_accumulate() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let mut cur = a;
        for i in 0..10 {
            cur = net.add_lut(vec![cur], TruthTable::not1()).unwrap();
            assert_eq!(net.level(cur), i + 1);
        }
        assert_eq!(net.depth(), 10);
    }

    #[test]
    fn shared_po_driver() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        net.add_po(a, "x");
        net.add_po(a, "y");
        assert_eq!(net.num_pos(), 2);
        assert_eq!(net.fanout_count_with_pos(a), 2);
    }
}
