//! Full combinational equivalence check between a benchmark circuit
//! and its resynthesized variant — the workload the paper's sweeping
//! flow is built for — followed by a negative check against a
//! deliberately broken design.
//!
//! ```text
//! cargo run --release --example cec_two_designs
//! ```

use simgen_suite::cec::{check_equivalence, CecVerdict, RunContext, SweepConfig};
use simgen_suite::core::{SimGen, SimGenConfig};
use simgen_suite::mapping::map_to_luts;
use simgen_suite::netlist::TruthTable;
use simgen_suite::workloads::{build_aig, rewrite::restructure};

fn main() {
    // Original design and a function-preserving restructuring
    // (stand-in for "the same RTL after a synthesis run").
    let original = build_aig("apex2").expect("known benchmark");
    let optimized = restructure(&original, 0.5, 2024);
    println!(
        "apex2: original {} ANDs, optimized {} ANDs",
        original.num_ands(),
        optimized.num_ands()
    );

    let left = map_to_luts(&original, 6);
    let right = map_to_luts(&optimized, 6);
    println!("mapped: {} vs {} 6-LUTs", left.num_luts(), right.num_luts());

    let mut generator = SimGen::new(SimGenConfig::default());
    let report = check_equivalence(
        &left,
        &right,
        &mut generator,
        SweepConfig::default(),
        &mut RunContext::default(),
    )
    .expect("interfaces match");
    println!(
        "verdict: {:?} (sweep SAT calls: {}, output SAT calls: {})",
        matches!(report.verdict, CecVerdict::Equivalent),
        report.sweep_stats.sat_calls,
        report.output_sat_calls
    );
    assert_eq!(report.verdict, CecVerdict::Equivalent);
    println!("original and optimized designs are equivalent\n");

    // Negative case: flip one output of the optimized design.
    let mut broken = right.clone();
    let victim = broken.pos()[0].node;
    let names: Vec<String> = broken.pos().iter().map(|p| p.name.clone()).collect();
    let flipped = broken
        .add_lut(vec![victim], TruthTable::not1())
        .expect("inverter over existing node");
    let drivers: Vec<_> = broken.pos().iter().map(|p| p.node).collect();
    broken.clear_pos();
    for (i, name) in names.iter().enumerate() {
        broken.add_po(if i == 0 { flipped } else { drivers[i] }, name.clone());
    }

    let mut generator = SimGen::new(SimGenConfig::default());
    let report = check_equivalence(
        &left,
        &broken,
        &mut generator,
        SweepConfig::default(),
        &mut RunContext::default(),
    )
    .expect("interfaces match");
    match report.verdict {
        CecVerdict::NotEquivalent { po_index, witness } => {
            println!("broken design caught: output pair {po_index} differs");
            let o1 = left.eval_pos(&witness);
            let o2 = broken.eval_pos(&witness);
            assert_ne!(o1[po_index], o2[po_index]);
            println!(
                "witness vector (first 16 bits): {:?}",
                &witness[..witness.len().min(16)]
            );
        }
        other => panic!("expected inequivalence, got {other:?}"),
    }
}
