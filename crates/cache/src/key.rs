//! Content addressing: merkle-style structural hashing of canonical
//! cones.
//!
//! Every node of a [`CanonicalCone`] gets a digest folding its kind
//! with the digests of its fanins — a merkle hash over the cone DAG —
//! and the [`CacheKey`] folds the root digests (in root order) with
//! the support width. Because the canonical form is insensitive to
//! node numbering (see [`simgen_netlist::canon`]), so is the key: the
//! same pair of cones re-read from disk, rebuilt in a different order,
//! or embedded in a larger network hashes to the same address, which
//! is what lets a verdict proven in one run answer a structurally
//! identical query in another.

use simgen_netlist::{canonical_cone, CanonicalCone, CanonicalNode, LutNetwork, NodeId};

use crate::digest::Sha256;

/// A 256-bit content address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u8; 32]);

impl CacheKey {
    /// Lowercase hex form — the on-disk entry file stem.
    pub fn hex(&self) -> String {
        crate::record::hex(&self.0)
    }

    /// Parses the 64-char lowercase hex form.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(CacheKey(out))
    }
}

impl std::fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CacheKey({})", &self.hex()[..12])
    }
}

/// Hashes a canonical cone into its content address.
pub fn cone_key(cone: &CanonicalCone) -> CacheKey {
    // Per-node digests; post-order guarantees fanin digests exist.
    let mut digests: Vec<[u8; 32]> = Vec::with_capacity(cone.nodes.len());
    for node in &cone.nodes {
        let mut h = Sha256::new();
        match node {
            CanonicalNode::Pi { rank } => {
                h.update(b"pi\0");
                h.update(&(*rank as u64).to_le_bytes());
            }
            CanonicalNode::Lut { fanins, tt } => {
                h.update(b"lut\0");
                h.update(&tt.to_le_bytes());
                h.update(&(fanins.len() as u64).to_le_bytes());
                for &f in fanins {
                    h.update(&digests[f]);
                }
            }
        }
        digests.push(h.finalize());
    }
    let mut h = Sha256::new();
    h.update(b"cone\0");
    h.update(&(cone.roots.len() as u64).to_le_bytes());
    for &r in &cone.roots {
        h.update(&digests[r]);
    }
    h.update(&(cone.support.len() as u64).to_le_bytes());
    CacheKey(h.finalize())
}

/// Content address of the pair `(a, b)` inside `net`, plus the cone's
/// support in canonical rank order — the order cached witnesses are
/// stored in. The pair is ordered: callers use a fixed (rep, cand) or
/// PO-pair orientation, so symmetry canonicalization is unnecessary.
pub fn pair_key(net: &LutNetwork, a: NodeId, b: NodeId) -> (CacheKey, Vec<NodeId>) {
    let cone = canonical_cone(net, &[a, b]);
    (cone_key(&cone), cone.support)
}

/// Content address of a whole query: the union cone of `roots` (for a
/// CEC job, every mitered output-pair node in PO order).
pub fn job_key(net: &LutNetwork, roots: &[NodeId]) -> CacheKey {
    cone_key(&canonical_cone(net, roots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    fn xor_chain(net: &mut LutNetwork, pis: &[NodeId]) -> NodeId {
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = net.add_lut(vec![acc, p], TruthTable::xor2()).unwrap();
        }
        acc
    }

    #[test]
    fn renumbering_preserves_the_key() {
        let mut a = LutNetwork::new();
        let pis: Vec<NodeId> = (0..4).map(|i| a.add_pi(format!("p{i}"))).collect();
        let ra = xor_chain(&mut a, &pis);
        a.add_po(ra, "f");

        // Same logic with distractor nodes shifting every id.
        let mut b = LutNetwork::new();
        let d0 = b.add_pi("d0");
        let d1 = b.add_pi("d1");
        let junk = b.add_lut(vec![d0, d1], TruthTable::and2()).unwrap();
        b.add_po(junk, "junk");
        let pis_b: Vec<NodeId> = (0..4).map(|i| b.add_pi(format!("q{i}"))).collect();
        let rb = xor_chain(&mut b, &pis_b);
        b.add_po(rb, "f");

        assert_ne!(ra, rb);
        assert_eq!(job_key(&a, &[ra]), job_key(&b, &[rb]));
        let (ka, sa) = pair_key(&a, ra, pis[0]);
        let (kb, sb) = pair_key(&b, rb, pis_b[0]);
        assert_eq!(ka, kb);
        assert_eq!(sa.len(), sb.len());
    }

    #[test]
    fn different_functions_get_different_keys() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let or = net.add_lut(vec![a, b], TruthTable::or2()).unwrap();
        net.add_po(and, "x");
        net.add_po(or, "y");
        assert_ne!(job_key(&net, &[and]), job_key(&net, &[or]));
        assert_ne!(pair_key(&net, and, or).0, pair_key(&net, or, and).0);
    }

    #[test]
    fn hex_roundtrip() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        net.add_po(a, "a");
        let key = job_key(&net, &[a]);
        let hex = key.hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(CacheKey::from_hex(&hex), Some(key));
        assert_eq!(CacheKey::from_hex("zz"), None);
        assert_eq!(CacheKey::from_hex(&hex[..63]), None);
    }
}
