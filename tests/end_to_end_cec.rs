//! End-to-end integration: benchmark generation → restructuring →
//! LUT mapping → sweeping → CEC verdicts, spanning every crate in the
//! workspace.

use simgen_suite::cec::{check_equivalence, CecVerdict, RunContext, SweepConfig, Sweeper};
use simgen_suite::core::{PatternGenerator, RandomPatterns, RevSim, SimGen, SimGenConfig};
use simgen_suite::mapping::map_to_luts;
use simgen_suite::netlist::{validate, TruthTable};
use simgen_suite::workloads::{benchmark_network, build_aig, cec_instance, rewrite::restructure};

#[test]
fn equivalent_designs_pass_cec() {
    for name in ["e64", "b14_C", "misex3c"] {
        let inst = cec_instance(name, 6).expect("known benchmark");
        let mut gen = SimGen::new(SimGenConfig::default());
        let report = check_equivalence(
            &inst.left,
            &inst.right,
            &mut gen,
            SweepConfig::default(),
            &mut RunContext::default(),
        )
        .expect("interfaces match");
        assert_eq!(
            report.verdict,
            CecVerdict::Equivalent,
            "{name}: original and restructured designs must verify"
        );
    }
}

#[test]
fn corrupted_design_fails_cec() {
    let inst = cec_instance("e64", 6).unwrap();
    // Flip the function of one internal LUT of the right design by
    // rebuilding it with an inverted output stage.
    let mut broken = inst.right.clone();
    let po0 = broken.pos()[0].node;
    let names: Vec<String> = broken.pos().iter().map(|p| p.name.clone()).collect();
    let drivers: Vec<_> = broken.pos().iter().map(|p| p.node).collect();
    let inv = broken.add_lut(vec![po0], TruthTable::not1()).unwrap();
    broken.clear_pos();
    for (i, name) in names.iter().enumerate() {
        broken.add_po(if i == 0 { inv } else { drivers[i] }, name.clone());
    }
    let mut gen = SimGen::new(SimGenConfig::default());
    let report = check_equivalence(
        &inst.left,
        &broken,
        &mut gen,
        SweepConfig::default(),
        &mut RunContext::default(),
    )
    .expect("interfaces match");
    match report.verdict {
        CecVerdict::NotEquivalent { po_index, witness } => {
            assert_eq!(po_index, 0);
            let o1 = inst.left.eval_pos(&witness);
            let o2 = broken.eval_pos(&witness);
            assert_ne!(o1[0], o2[0], "witness must actually differentiate");
        }
        other => panic!("expected NotEquivalent, got {other:?}"),
    }
}

#[test]
fn mapped_benchmarks_validate_structurally() {
    for name in ["apex4", "cordic", "b20_C", "voter", "dec"] {
        let net = benchmark_network(name, 6).expect("known benchmark");
        validate::check(&net).unwrap_or_else(|e| panic!("{name}: {e}"));
        for id in net.node_ids() {
            assert!(net.fanins(id).len() <= 6, "{name}: lut arity bound");
        }
    }
}

#[test]
fn mapping_preserves_benchmark_functions() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for name in ["e64", "square", "priority"] {
        let aig = build_aig(name).unwrap();
        let net = map_to_luts(&aig, 6);
        for _ in 0..50 {
            let ins: Vec<bool> = (0..aig.num_pis()).map(|_| rng.gen()).collect();
            assert_eq!(aig.eval(&ins), net.eval_pos(&ins), "{name}");
        }
    }
}

#[test]
fn restructured_designs_stay_equivalent_after_mapping() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(123);
    let aig = build_aig("misex3c").unwrap();
    let rw = restructure(&aig, 0.7, 9);
    let n1 = map_to_luts(&aig, 6);
    let n2 = map_to_luts(&rw, 4);
    for _ in 0..100 {
        let ins: Vec<bool> = (0..aig.num_pis()).map(|_| rng.gen()).collect();
        assert_eq!(n1.eval_pos(&ins), n2.eval_pos(&ins));
    }
}

#[test]
fn all_strategies_complete_a_full_sweep() {
    let net = benchmark_network("e64", 6).unwrap();
    let mut gens: Vec<Box<dyn PatternGenerator>> = vec![
        Box::new(RandomPatterns::new(5, 32)),
        Box::new(RevSim::new(5, 20)),
        Box::new(SimGen::new(SimGenConfig::simple_random().with_seed(5))),
        Box::new(SimGen::new(SimGenConfig::advanced_random().with_seed(5))),
        Box::new(SimGen::new(SimGenConfig::advanced_dc().with_seed(5))),
        Box::new(SimGen::new(SimGenConfig::advanced_dc_mffc().with_seed(5))),
    ];
    for g in gens.iter_mut() {
        let report =
            Sweeper::new(SweepConfig::default()).run(&net, g.as_mut(), &mut RunContext::default());
        assert!(
            report.unresolved.is_empty(),
            "{}: everything resolves on this size",
            g.name()
        );
        // SAT never "proves" nodes equivalent that simulation already
        // separated: proven classes must have identical signatures.
        for class in &report.proven_classes {
            assert!(class.len() >= 2);
        }
    }
}

#[test]
fn proven_equivalences_are_real() {
    // Exhaustively verify every SAT-proven equivalence on a small
    // benchmark (10 PIs): the ultimate soundness check of the whole
    // solver + encoder + sweeping stack.
    let net = benchmark_network("ex5p", 6).unwrap();
    assert!(net.num_pis() <= 12, "exhaustive check must stay feasible");
    let mut gen = SimGen::new(SimGenConfig::default());
    let report =
        Sweeper::new(SweepConfig::default()).run(&net, &mut gen, &mut RunContext::default());
    let mut checked = 0;
    for class in &report.proven_classes {
        for m in 0..(1u32 << net.num_pis()) {
            let ins: Vec<bool> = (0..net.num_pis()).map(|i| (m >> i) & 1 == 1).collect();
            let vals = net.eval(&ins);
            let v0 = vals[class[0].index()];
            for &n in &class[1..] {
                assert_eq!(
                    vals[n.index()],
                    v0,
                    "nodes {:?} proven equivalent but differ at {m:b}",
                    class
                );
            }
        }
        checked += class.len() - 1;
    }
    assert_eq!(checked as u64, report.stats.proved_equivalent);
}
