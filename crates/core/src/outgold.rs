//! OUTgold value generation (paper Section 3, step 1).
//!
//! OUTgold values are the desired outputs for the target nodes of an
//! equivalence class. The paper's default policy assigns alternating
//! zeros and ones by node id, giving each class an equal number of
//! both polarities — any vector honoring one node of each polarity
//! then provably splits the class.
//!
//! The paper notes that "other strategies could be explored for
//! OUTgold selection (e.g., circuit topology-aware methods)";
//! [`topology_aware`] implements that extension using static signal
//! probabilities: each target is asked for its statically *unlikely*
//! value — the polarity random simulation rarely exercises — while
//! still keeping both polarities present in the class.

use simgen_netlist::NodeId;

/// Assigns alternating OUTgold values to a class, ordered by node id:
/// the lowest id gets `0`, the next `1`, and so on.
pub fn alternating(class: &[NodeId]) -> Vec<(NodeId, bool)> {
    let mut sorted: Vec<NodeId> = class.to_vec();
    sorted.sort();
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, i % 2 == 1))
        .collect()
}

/// Assigns all-equal OUTgold values (useful for ablations: such a
/// vector can never split the class by the paper's criterion).
pub fn uniform(class: &[NodeId], value: bool) -> Vec<(NodeId, bool)> {
    class.iter().map(|&n| (n, value)).collect()
}

/// Topology-aware OUTgold (the paper's suggested extension): each
/// target gets its statically *less probable* value per
/// [`signal_probabilities`](simgen_sim::signal_probabilities), so the
/// requested behaviour is the one random patterns under-sample. If
/// that leaves the class single-polarity (useless for splitting), the
/// node whose probability is closest to ½ is flipped to restore both
/// polarities.
///
/// `probs` are precomputed signal probabilities for the whole
/// network (compute once per sweep, reuse across classes).
pub fn topology_aware(class: &[NodeId], probs: &[f64]) -> Vec<(NodeId, bool)> {
    let mut sorted: Vec<NodeId> = class.to_vec();
    sorted.sort();
    let mut golds: Vec<(NodeId, bool)> = sorted
        .iter()
        .map(|&n| (n, probs[n.index()] < 0.5))
        .collect();
    let polarities: Vec<bool> = golds.iter().map(|&(_, g)| g).collect();
    if polarities.iter().all(|&g| g) || polarities.iter().all(|&g| !g) {
        // Flip the least-biased node: honoring its common value is the
        // cheapest way to reintroduce the second polarity.
        let flip = golds
            .iter()
            .enumerate()
            .min_by(|(_, (n1, _)), (_, (n2, _))| {
                let d1 = (probs[n1.index()] - 0.5).abs();
                let d2 = (probs[n2.index()] - 0.5).abs();
                d1.partial_cmp(&d2).expect("probabilities are finite")
            })
            .map(|(i, _)| i)
            .expect("class is nonempty");
        golds[flip].1 = !golds[flip].1;
    }
    golds
}

/// Runtime-adaptive OUTgold (the paper's other suggested extension):
/// like [`topology_aware`], but driven by *observed* one-frequencies
/// from the simulation run so far instead of static estimates —
/// demand what the patterns have not yet shown. The same
/// polarity-diversity flip applies.
pub fn adaptive(class: &[NodeId], observed_one_freq: &[f64]) -> Vec<(NodeId, bool)> {
    // The math is identical to the topology-aware rule; only the
    // probability source differs.
    topology_aware(class, observed_one_freq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn alternates_by_sorted_id() {
        let golds = alternating(&[n(7), n(3), n(5)]);
        assert_eq!(golds, vec![(n(3), false), (n(5), true), (n(7), false)]);
    }

    #[test]
    fn balanced_polarities() {
        let class: Vec<NodeId> = (0..10).map(n).collect();
        let golds = alternating(&class);
        let ones = golds.iter().filter(|(_, g)| *g).count();
        assert_eq!(ones, 5);
    }

    #[test]
    fn pair_gets_opposite_values() {
        let golds = alternating(&[n(1), n(2)]);
        assert_ne!(golds[0].1, golds[1].1);
    }

    #[test]
    fn uniform_is_uniform() {
        let golds = uniform(&[n(1), n(2), n(3)], true);
        assert!(golds.iter().all(|(_, g)| *g));
    }
}
