//! Fanin/fanout cone computations.
//!
//! SimGen's Algorithm 1 traverses the *fanin cone* of each target node
//! (the `listDfs` variable in the paper): the set of nodes that can
//! reach the target through fanin edges, discovered by a depth-first
//! search from the target toward the PIs.

use crate::id::NodeId;
use crate::network::LutNetwork;

/// Depth-first listing of the fanin cone of `root`, root first.
///
/// The returned list contains every node (including PIs and `root`
/// itself) from which `root` is reachable through fanin edges. The
/// order is DFS pre-order from the root, which is the traversal
/// order Algorithm 1's `dfs(targetNode)` produces.
pub fn fanin_cone_dfs(net: &LutNetwork, root: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    fanin_cone_into(
        net,
        root,
        &mut vec![false; net.len()],
        &mut Vec::new(),
        &mut order,
    );
    order
}

/// [`fanin_cone_dfs`] into buffers the caller owns, for callers that
/// list many cones of one network without allocating per cone.
///
/// Appends the cone of `root` to `cone` and sets `visited` for every
/// node it appends. A node already `visited` counts as outside the
/// cone, so pass an all-false mask for the full cone and reset it by
/// walking `cone`. `stack` is scratch space and is left empty.
pub fn fanin_cone_into(
    net: &LutNetwork,
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
        for &f in net.fanins(n).iter().rev() {
            if !visited[f.index()] {
                stack.push(f);
            }
        }
    }
}

/// The set of PIs inside the fanin cone of `root` (its structural
/// support).
pub fn cone_pis(net: &LutNetwork, root: NodeId) -> Vec<NodeId> {
    fanin_cone_dfs(net, root)
        .into_iter()
        .filter(|&n| net.is_pi(n))
        .collect()
}

/// Membership bitmap for the fanin cone of `root`, indexed by node id.
pub fn fanin_cone_mask(net: &LutNetwork, root: NodeId) -> Vec<bool> {
    let mut mask = vec![false; net.len()];
    for n in fanin_cone_dfs(net, root) {
        mask[n.index()] = true;
    }
    mask
}

/// Membership bitmap of the transitive fanout cone of `root`
/// (excluding `root` itself), indexed by node id.
pub fn fanout_cone_mask(net: &LutNetwork, root: NodeId) -> Vec<bool> {
    let mut mask = vec![false; net.len()];
    let mut stack: Vec<NodeId> = net.fanouts(root).to_vec();
    while let Some(n) = stack.pop() {
        if mask[n.index()] {
            continue;
        }
        mask[n.index()] = true;
        stack.extend_from_slice(net.fanouts(n));
    }
    mask
}

/// Membership bitmap of the joint fanin cone of several roots
/// (deduplicated union, roots included), indexed by node id.
///
/// This is the cone form the incremental resimulator consumes: the
/// set of nodes whose lanes must be recomputed so that every root's
/// signature stays exact.
pub fn multi_fanin_cone_mask(net: &LutNetwork, roots: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; net.len()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if mask[n.index()] {
            continue;
        }
        mask[n.index()] = true;
        for &f in net.fanins(n) {
            if !mask[f.index()] {
                stack.push(f);
            }
        }
    }
    mask
}

/// Joint fanin cone of several roots (deduplicated union), in
/// discovery order.
pub fn multi_fanin_cone(net: &LutNetwork, roots: &[NodeId]) -> Vec<NodeId> {
    let mut visited = vec![false; net.len()];
    let mut order = Vec::new();
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if visited[n.index()] {
            continue;
        }
        visited[n.index()] = true;
        order.push(n);
        for &f in net.fanins(n) {
            if !visited[f.index()] {
                stack.push(f);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::TruthTable;

    /// Diamond: f = (a & b) | (b & c); shared input b.
    fn diamond() -> (LutNetwork, [NodeId; 6]) {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![b, c], TruthTable::and2()).unwrap();
        let f = net.add_lut(vec![x, y], TruthTable::or2()).unwrap();
        net.add_po(f, "f");
        (net, [a, b, c, x, y, f])
    }

    #[test]
    fn cone_contains_all_ancestors_once() {
        let (net, [a, b, c, x, y, f]) = diamond();
        let cone = fanin_cone_dfs(&net, f);
        assert_eq!(cone[0], f);
        assert_eq!(cone.len(), 6);
        for n in [a, b, c, x, y, f] {
            assert_eq!(cone.iter().filter(|&&m| m == n).count(), 1);
        }
    }

    #[test]
    fn cone_of_intermediate_node() {
        let (net, [a, b, _c, x, _y, _f]) = diamond();
        let cone = fanin_cone_dfs(&net, x);
        assert_eq!(cone.len(), 3);
        assert!(cone.contains(&a) && cone.contains(&b) && cone.contains(&x));
    }

    #[test]
    fn cone_pis_is_structural_support() {
        let (net, [a, b, c, _x, y, f]) = diamond();
        let mut pis = cone_pis(&net, f);
        pis.sort();
        assert_eq!(pis, vec![a, b, c]);
        let mut pis = cone_pis(&net, y);
        pis.sort();
        assert_eq!(pis, vec![b, c]);
    }

    #[test]
    fn pi_cone_is_itself() {
        let (net, [a, ..]) = diamond();
        assert_eq!(fanin_cone_dfs(&net, a), vec![a]);
    }

    #[test]
    fn fanout_cone() {
        let (net, [_a, b, _c, x, y, f]) = diamond();
        let m = fanout_cone_mask(&net, b);
        assert!(m[x.index()] && m[y.index()] && m[f.index()]);
        assert!(!m[b.index()]);
        let m = fanout_cone_mask(&net, f);
        assert!(m.iter().all(|&v| !v));
    }

    #[test]
    fn multi_cone_unions() {
        let (net, [a, b, c, x, y, _f]) = diamond();
        let cone = multi_fanin_cone(&net, &[x, y]);
        assert_eq!(cone.len(), 5);
        for n in [a, b, c, x, y] {
            assert!(cone.contains(&n));
        }
    }

    #[test]
    fn multi_cone_mask_matches_listing() {
        let (net, [_a, _b, _c, x, y, f]) = diamond();
        for roots in [vec![x], vec![x, y], vec![f], vec![y, f]] {
            let mask = multi_fanin_cone_mask(&net, &roots);
            let listed = multi_fanin_cone(&net, &roots);
            for id in net.node_ids() {
                assert_eq!(mask[id.index()], listed.contains(&id), "node {id}");
            }
        }
    }
}
