//! Sweep-side adapter over the content-addressed proof cache.
//!
//! The sweeper and the output proofs of the CEC flow consult the
//! cache through this one wrapper so the trust policy lives in a
//! single place:
//!
//! - A cached **counterexample** is trusted only after the scalar
//!   reference evaluator replays it — sound no matter where the entry
//!   came from, because the replay itself re-establishes the verdict.
//! - A cached **equivalence** is trusted as-is in a plain run (same
//!   trust level as a live solver answer), but under
//!   [`SweepConfig::certify`](crate::SweepConfig) only after the
//!   stored DRAT blob passes the independent backward-RUP checker —
//!   the same bar a live proof has to clear.
//! - An entry that fails its check is **evicted** and the pair falls
//!   through to a live proof, so a corrupted or truncated cache can
//!   cost time but never an answer.
//!
//! All lookups and inserts happen on the orchestrating thread in
//! deterministic pair order, which keeps the `cache_*` counters
//! `--jobs`-invariant for a fixed starting cache state.

use std::collections::HashMap;

use simgen_cache::{pair_key, CacheEntry, CachedVerdict, ProofCache};
use simgen_netlist::{LutNetwork, NodeId};
use simgen_obs::{Counter, Json, Observer};
use simgen_sim::Replayer;

use crate::prove::ProveOutcome;

/// What a cache lookup resolved a pair to.
pub(crate) enum CacheLookup {
    /// The pair is answered by a trusted entry; the witness (if any)
    /// is already widened to a full primary-input vector.
    Hit(ProveOutcome),
    /// No usable entry — prove live (a rejected entry was evicted and
    /// also lands here).
    Miss,
}

/// A [`ProofCache`] bound to one sweep's trust settings.
pub(crate) struct SweepCache<'c> {
    cache: &'c ProofCache,
    certify: bool,
    /// Scalar evaluator for witness replay (scratch buffers reused).
    replayer: Replayer,
}

impl<'c> SweepCache<'c> {
    pub(crate) fn new(cache: &'c ProofCache, certify: bool) -> Self {
        SweepCache {
            cache,
            certify,
            replayer: Replayer::new(),
        }
    }

    /// Looks up the pair `(a, b)` and applies the trust policy.
    /// Counter bumps: every call adds exactly one of
    /// [`Counter::CacheHits`] or [`Counter::CacheMisses`]; verified
    /// replays add [`Counter::CacheReplays`]; rejected entries add
    /// [`Counter::CacheEvictions`] (and count as misses).
    pub(crate) fn resolve(
        &mut self,
        net: &LutNetwork,
        a: NodeId,
        b: NodeId,
        obs: &mut Observer,
    ) -> CacheLookup {
        let (key, support) = pair_key(net, a, b);
        let Some(entry) = self.cache.lookup(&key) else {
            obs.recorder.add(Counter::CacheMisses, 1);
            return CacheLookup::Miss;
        };
        let (verdict, replayed) = match entry.verdict {
            CachedVerdict::Equivalent { ref proof } => {
                if !self.certify {
                    (Some(ProveOutcome::Equivalent), false)
                } else if !proof.is_empty() && simgen_cache::verify_proof(proof) {
                    // Same trust level as a live certified answer: the
                    // independent checker accepted the stored proof.
                    (Some(ProveOutcome::Equivalent), true)
                } else {
                    // Uncertified entry (empty proof) or a blob the
                    // checker refused: unusable under certify.
                    (None, false)
                }
            }
            CachedVerdict::NotEquivalent { ref witness } => {
                // Witnesses are stored in canonical support order;
                // widen to a full PI vector before replaying. A
                // support/witness length mismatch simply fails the
                // replay and evicts the entry.
                match widen_witness(net, &support, witness) {
                    Some(full) if self.replayer.distinguishes(net, &full, a, b) => {
                        (Some(ProveOutcome::Counterexample(full)), true)
                    }
                    _ => (None, false),
                }
            }
        };
        match verdict {
            Some(outcome) => {
                obs.recorder.add(Counter::CacheHits, 1);
                if replayed {
                    obs.recorder.add(Counter::CacheReplays, 1);
                }
                if obs.trace.is_enabled() {
                    let name = match &outcome {
                        ProveOutcome::Equivalent => "equivalent",
                        _ => "disproved",
                    };
                    obs.trace.emit(
                        "cache_hit",
                        vec![
                            ("rep", Json::U64(a.index() as u64)),
                            ("cand", Json::U64(b.index() as u64)),
                            ("verdict", Json::Str(name.to_string())),
                            ("replayed", Json::Bool(replayed)),
                        ],
                    );
                }
                CacheLookup::Hit(outcome)
            }
            None => {
                // Trust check failed: drop the entry so the live
                // verdict can replace it, and treat the pair as a miss.
                self.cache.evict(&key);
                obs.recorder.add(Counter::CacheEvictions, 1);
                obs.recorder.add(Counter::CacheMisses, 1);
                obs.trace.emit(
                    "cache_entry_rejected",
                    vec![
                        ("rep", Json::U64(a.index() as u64)),
                        ("cand", Json::U64(b.index() as u64)),
                    ],
                );
                CacheLookup::Miss
            }
        }
    }

    /// Stores a live verdict for the pair `(a, b)`. `proof` is the
    /// serialized DRAT blob of an `Equivalent` answer when available
    /// (certified runs); an entry stored without one still answers
    /// plain lookups but is evicted-and-reproved under certify.
    /// Undecided outcomes are never cached — a budget is not a fact
    /// about the cones.
    pub(crate) fn store(
        &mut self,
        net: &LutNetwork,
        a: NodeId,
        b: NodeId,
        outcome: &ProveOutcome,
        proof: Option<Vec<u8>>,
        obs: &mut Observer,
    ) {
        let verdict = match outcome {
            ProveOutcome::Equivalent => CachedVerdict::Equivalent {
                proof: proof.unwrap_or_default(),
            },
            ProveOutcome::Counterexample(full) => {
                let (_, support) = pair_key(net, a, b);
                let Some(witness) = narrow_witness(net, &support, full) else {
                    return;
                };
                CachedVerdict::NotEquivalent { witness }
            }
            ProveOutcome::Undecided { .. } => return,
        };
        let key = pair_key(net, a, b).0;
        let evicted = self.cache.insert(key, CacheEntry::pair(verdict));
        obs.recorder.add(Counter::CacheEvictions, evicted as u64);
    }
}

/// Expands a support-ordered witness into a full primary-input vector
/// (PIs outside the support are false — they cannot affect the cones).
fn widen_witness(net: &LutNetwork, support: &[NodeId], witness: &[bool]) -> Option<Vec<bool>> {
    if support.len() != witness.len() {
        return None;
    }
    let index: HashMap<NodeId, usize> = net
        .pis()
        .iter()
        .enumerate()
        .map(|(i, &pi)| (pi, i))
        .collect();
    let mut full = vec![false; net.num_pis()];
    for (&pi, &bit) in support.iter().zip(witness) {
        full[*index.get(&pi)?] = bit;
    }
    Some(full)
}

/// Projects a full primary-input vector down to canonical support
/// order — the form witnesses are stored in, so the entry stays valid
/// under node renumbering.
fn narrow_witness(net: &LutNetwork, support: &[NodeId], full: &[bool]) -> Option<Vec<bool>> {
    if full.len() != net.num_pis() {
        return None;
    }
    let index: HashMap<NodeId, usize> = net
        .pis()
        .iter()
        .enumerate()
        .map(|(i, &pi)| (pi, i))
        .collect();
    support
        .iter()
        .map(|pi| index.get(pi).map(|&i| full[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgen_netlist::TruthTable;

    #[test]
    fn witness_round_trips_through_support_order() {
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..5).map(|i| net.add_pi(format!("p{i}"))).collect();
        // Cone over p3, p1 only (support order differs from PI order).
        let g = net
            .add_lut(vec![pis[3], pis[1]], TruthTable::and2())
            .unwrap();
        let h = net
            .add_lut(vec![pis[3], pis[1]], TruthTable::or2())
            .unwrap();
        net.add_po(g, "g");
        net.add_po(h, "h");
        let (_, support) = pair_key(&net, g, h);
        assert_eq!(support.len(), 2);
        let full = vec![false, true, false, true, false];
        let narrow = narrow_witness(&net, &support, &full).unwrap();
        let widened = widen_witness(&net, &support, &narrow).unwrap();
        // Support bits survive; non-support PIs are zeroed.
        assert!(widened[1]);
        assert!(widened[3]);
        assert_eq!(widened.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let g = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        net.add_po(g, "g");
        let (_, support) = pair_key(&net, g, a);
        assert!(widen_witness(&net, &support, &[true]).is_none() || support.len() == 1);
        assert!(widen_witness(&net, &support, &vec![true; support.len() + 1]).is_none());
        assert!(narrow_witness(&net, &support, &[true]).is_none());
    }
}
