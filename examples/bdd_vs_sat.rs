//! The "BDD or SAT" choice of the paper's Figure 2, measured: sweep
//! the same benchmark with both proof engines and watch BDDs blow up
//! where SAT cruises — the historical reason sweeping moved to SAT.
//!
//! ```text
//! cargo run --release --example bdd_vs_sat [benchmark]
//! ```

use std::time::Instant;

use simgen_suite::cec::{EngineMode, EnginePolicy, RunContext, SweepConfig, Sweeper};
use simgen_suite::core::{SimGen, SimGenConfig};
use simgen_suite::workloads::benchmark_network;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "k2".into());
    let net = benchmark_network(&name, 6).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(1);
    });
    println!(
        "benchmark {name}: {} PIs, {} LUTs, depth {}\n",
        net.num_pis(),
        net.num_luts(),
        net.depth()
    );

    for (label, mode) in [
        ("SAT (CDCL, incremental)", EngineMode::Sat),
        ("BDD (2M-node limit)", EngineMode::BddOnly),
    ] {
        let cfg = SweepConfig {
            engine: EnginePolicy {
                mode,
                bdd_node_limit: 2_000_000,
                ..EnginePolicy::default()
            },
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let t = Instant::now();
        let report = Sweeper::new(cfg).run(&net, &mut gen, &mut RunContext::default());
        let proofs = report
            .stats
            .dispatch
            .as_ref()
            .map_or(0, |d| d.total_proofs());
        println!("{label}:");
        println!("  pair proofs     : {proofs}");
        println!("  proven equal    : {}", report.stats.proved_equivalent);
        println!("  disproved       : {}", report.stats.disproved);
        println!(
            "  unresolved      : {} {}",
            report.unresolved.len(),
            if report.stats.aborted > 0 {
                "(BDD node limit hit — the classic blow-up)"
            } else {
                ""
            }
        );
        println!("  total sweep time: {:?}\n", t.elapsed());
    }
    println!("Both engines agree wherever BDDs finish; canonicity answers queries in O(1)");
    println!("but building the diagrams costs exponential memory on multiplier-like cones.");
}
