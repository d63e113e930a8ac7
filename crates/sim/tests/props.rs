//! Property tests of the simulation layer: word-parallel vs scalar
//! agreement, incremental-update equivalence under arbitrary
//! chunkings, and refinement monotonicity.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use simgen_netlist::cone::multi_fanin_cone_mask;
use simgen_netlist::levels::levelized_order;
use simgen_netlist::{LutNetwork, NodeId, TruthTable};

use simgen_sim::signal_probabilities;
use simgen_sim::EquivClasses;
use simgen_sim::PatternSet;
use simgen_sim::{reference_lanes, CompiledNet, SimdLevel};
use simgen_sim::{simulate, simulate_reference, SimResult};

#[derive(Clone, Debug)]
struct NetSpec {
    pis: usize,
    luts: Vec<(Vec<usize>, u64)>,
}

fn arb_net() -> impl Strategy<Value = NetSpec> {
    (
        1usize..6,
        prop::collection::vec(
            (prop::collection::vec(0usize..999, 1..4), any::<u64>()),
            1..25,
        ),
    )
        .prop_map(|(pis, luts)| NetSpec { pis, luts })
}

/// Like [`arb_net`] but with LUT arities up to 6 so the compiled
/// kernels' Shannon-decomposed tape path (arity > 3) gets exercised,
/// not just the fused fast paths.
fn arb_wide_net() -> impl Strategy<Value = NetSpec> {
    (
        1usize..8,
        prop::collection::vec(
            (prop::collection::vec(0usize..999, 1..7), any::<u64>()),
            1..25,
        ),
    )
        .prop_map(|(pis, luts)| NetSpec { pis, luts })
}

fn build(spec: &NetSpec) -> LutNetwork {
    let mut net = LutNetwork::new();
    let mut pool: Vec<NodeId> = (0..spec.pis).map(|i| net.add_pi(format!("p{i}"))).collect();
    for (picks, bits) in &spec.luts {
        let mut fanins = Vec::new();
        for &p in picks {
            let cand = pool[p % pool.len()];
            if !fanins.contains(&cand) {
                fanins.push(cand);
            }
        }
        let tt = TruthTable::from_bits(fanins.len(), *bits).expect("arity <= 3");
        pool.push(net.add_lut(fanins, tt).expect("topo"));
    }
    net.add_po(*pool.last().expect("nonempty"), "f");
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn word_parallel_matches_scalar(spec in arb_net(), seed in any::<u64>(), n in 1usize..150) {
        let net = build(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let pats = PatternSet::random(net.num_pis(), n, &mut rng);
        let sim = simulate(&net, &pats);
        for p in (0..n).step_by(1 + n / 10) {
            let scalar = net.eval(&pats.vector(p));
            for id in net.node_ids() {
                prop_assert_eq!(sim.value(id, p), scalar[id.index()]);
            }
        }
    }

    #[test]
    fn incremental_equals_batch_under_chunking(
        spec in arb_net(),
        seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..70, 1..6)
    ) {
        let net = build(&spec);
        let total: usize = chunks.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let pats = PatternSet::random(net.num_pis(), total, &mut rng);
        let batch = simulate(&net, &pats);
        let mut inc = SimResult::empty(&net);
        let mut done = 0;
        for &c in &chunks {
            let vectors: Vec<Vec<bool>> = (done..done + c).map(|p| pats.vector(p)).collect();
            inc.extend_patterns(&net, &PatternSet::from_vectors(net.num_pis(), &vectors));
            done += c;
        }
        prop_assert_eq!(inc, batch);
    }

    #[test]
    fn kernels_interpreter_and_scalar_agree(
        spec in arb_wide_net(),
        seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..70, 1..6),
    ) {
        // Three independent evaluators must agree bit for bit on any
        // network: the compiled opcode kernels (whole and fed in
        // arbitrary unaligned chunks), the original cube-cover
        // interpreter, and the scalar `net.eval` path.
        let net = build(&spec);
        let total: usize = chunks.iter().sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let pats = PatternSet::random(net.num_pis(), total, &mut rng);

        let reference = simulate_reference(&net, &pats);
        let compiled = simulate(&net, &pats);
        prop_assert_eq!(&compiled, &reference, "compiled vs interpreter");

        let mut inc = SimResult::empty(&net);
        let mut done = 0;
        for &c in &chunks {
            let vectors: Vec<Vec<bool>> = (done..done + c).map(|p| pats.vector(p)).collect();
            inc.extend_patterns(&net, &PatternSet::from_vectors(net.num_pis(), &vectors));
            done += c;
        }
        prop_assert_eq!(&inc, &reference, "chunked compiled vs interpreter");

        // Scalar spot checks, plus the tail-mask invariant: bits at
        // or past `total` in the last signature word stay zero.
        let tail = if total.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (total % 64)) - 1
        };
        for p in (0..total).step_by(1 + total / 8) {
            let scalar = net.eval(&pats.vector(p));
            for id in net.node_ids() {
                prop_assert_eq!(compiled.value(id, p), scalar[id.index()]);
            }
        }
        for id in net.node_ids() {
            let sig = compiled.signature(id);
            prop_assert_eq!(sig.last().copied().unwrap_or(0) & !tail, 0, "tail bits leak");
        }
    }

    #[test]
    fn simd_levels_are_byte_identical(
        spec in arb_wide_net(),
        seed in any::<u64>(),
        n in 1usize..200,
        root_step in 1usize..5,
    ) {
        // Every SIMD level of the compiled kernels must produce
        // byte-identical lanes, equal to the cube-cover
        // interpreter, on the full node order *and* on cone-restricted
        // levelized orders — with unaligned pattern counts so the
        // tail-word masking is exercised at every width. A forced
        // wide level on a machine without the feature takes the
        // portable pack path and must still match.
        let net = build(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let pats = PatternSet::random(net.num_pis(), n, &mut rng);
        let expected = reference_lanes(&net, &pats);
        let words = pats.num_words();
        let kernel = CompiledNet::compile(&net);
        let full: Vec<NodeId> = net.node_ids().collect();
        let roots: Vec<NodeId> = net
            .node_ids()
            .filter(|id| !net.is_pi(*id))
            .step_by(root_step)
            .collect();
        let mask = multi_fanin_cone_mask(&net, &roots);
        let cone = levelized_order(&net, &mask);
        // The lane of `order[p]` sits at `p * words`: the full order
        // lays the lanes out as the interpreter's, concatenated.
        let expected_flat = expected.concat();
        let cone_nodes = mask.iter().filter(|&&m| m).count();
        for level in [SimdLevel::Scalar, SimdLevel::Wide256, SimdLevel::Wide512] {
            let lanes = kernel.simulate_lanes_at(&pats, &full, level);
            prop_assert_eq!(&lanes, &expected_flat, "full order, {:?}", level);
            let restricted = kernel.simulate_lanes_at(&pats, &cone, level);
            prop_assert_eq!(
                restricted.len(), cone_nodes * words,
                "nodes outside the cone must get no lane at {:?}", level
            );
            for (lane, &id) in restricted.chunks_exact(words).zip(&cone) {
                prop_assert!(mask[id.index()], "node {} outside the cone got a lane", id);
                prop_assert_eq!(
                    lane, &expected[id.index()][..],
                    "cone lane {} at {:?}", id, level
                );
            }
        }
    }

    #[test]
    fn refinement_is_monotone_and_consistent(spec in arb_net(), seed in any::<u64>()) {
        let net = build(&spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = SimResult::empty(&net);
        let first = PatternSet::random(net.num_pis(), 2, &mut rng);
        sim.extend_patterns(&net, &first);
        let mut classes = EquivClasses::initial(&net, &sim);
        let mut last_cost = classes.cost();
        for _ in 0..5 {
            let extra = PatternSet::random(net.num_pis(), 1, &mut rng);
            sim.extend_patterns(&net, &extra);
            classes.refine(&sim);
            let cost = classes.cost();
            prop_assert!(cost <= last_cost, "cost must not increase");
            last_cost = cost;
            for class in classes.classes() {
                for &n in &class[1..] {
                    prop_assert!(sim.same_signature(class[0], n));
                }
            }
        }
    }

    #[test]
    fn probabilities_are_probabilities(spec in arb_net()) {
        let net = build(&spec);
        let probs = signal_probabilities(&net);
        for id in net.node_ids() {
            let p = probs[id.index()];
            prop_assert!((0.0..=1.0).contains(&p), "p({id}) = {p}");
        }
        // Complemented function has complemented probability.
        let last = net.node_ids().last().expect("nonempty");
        if let Some(tt) = net.truth_table(last) {
            let mut net2 = net.clone();
            let inv = net2
                .add_lut(vec![last], TruthTable::not1())
                .expect("inverter");
            let probs2 = signal_probabilities(&net2);
            prop_assert!((probs2[inv.index()] - (1.0 - probs[last.index()])).abs() < 1e-9);
            let _ = tt;
        }
    }
}
