//! Head-to-head of the three simulation strategies on one benchmark:
//! per-iteration class cost of RandS, RevS and SimGen, plus final SAT
//! effort — a miniature of the paper's Figure 7 / Table 2 story.
//!
//! ```text
//! cargo run --release --example sweep_strategies [benchmark]
//! ```

use simgen_suite::cec::{RunContext, SweepConfig, Sweeper};
use simgen_suite::core::{PatternGenerator, RandomPatterns, RevSim, SimGen, SimGenConfig};
use simgen_suite::workloads::benchmark_network;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "apex2".into());
    let net = benchmark_network(&name, 6).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; try apex2, cps, b17_C, ...");
        std::process::exit(1);
    });
    println!(
        "benchmark {name}: {} PIs, {} LUTs, depth {}\n",
        net.num_pis(),
        net.num_luts(),
        net.depth()
    );

    let cfg = SweepConfig {
        guided_iterations: 15,
        ..SweepConfig::default()
    };
    let mut gens: Vec<Box<dyn PatternGenerator>> = vec![
        Box::new(RandomPatterns::new(1, 64)),
        Box::new(RevSim::new(1, 30)),
        Box::new(SimGen::new(SimGenConfig::default().with_seed(1))),
    ];
    let mut reports = Vec::new();
    for g in gens.iter_mut() {
        let name = g.name();
        let report = Sweeper::new(cfg).run(&net, g.as_mut(), &mut RunContext::default());
        reports.push((name, report));
    }

    println!(
        "{:>5} | {:>10} {:>10} {:>10}",
        "iter", reports[0].0, reports[1].0, reports[2].0
    );
    let iters = reports[0].1.stats.history.len();
    for it in 0..iters {
        print!("{:>5} |", it);
        for (_, r) in &reports {
            print!(" {:>10}", r.stats.history[it].cost);
        }
        println!();
    }
    println!();
    for (name, r) in &reports {
        println!(
            "{:>10}: cost {:>5} | SAT calls {:>5} | SAT time {:>9.2?} | sim phase {:>9.2?}",
            name,
            r.cost_after_sim,
            r.stats.sat_calls,
            r.stats.sat_time,
            r.stats.total_sim_phase()
        );
    }
}
