//! Regenerates **Figure 7**: per-iteration cost and cumulative
//! simulation runtime of three strategies on `apex2` and `cps`:
//! pure random simulation (RandS), RandS switching to RevS on a cost
//! plateau, and RandS switching to SimGen (the paper's Section 6.5
//! synergy experiment; the switch fires after 3 stagnant iterations).
//!
//! ```text
//! cargo run --release -p simgen-bench --bin figure7
//! ```

use simgen_bench::{
    experiment_config, make_combined, make_generator, write_bench_report, BenchReport, Json,
    Strategy,
};
use simgen_cec::{RunContext, SweepConfig, Sweeper};
use simgen_core::PatternGenerator;
use simgen_workloads::benchmark_network;

fn main() {
    let cfg = SweepConfig {
        guided_iterations: 30,
        run_sat: false,
        ..experiment_config(false)
    };
    let mut report = BenchReport::new("figure7");
    report.param("guided_iterations", Json::U64(30));
    for bmk in ["apex2", "cps"] {
        let net = benchmark_network(bmk, 6).expect("known benchmark");
        println!("=== {bmk} ({} luts) ===", net.num_luts());
        println!(
            "{:>4} | {:>10} {:>12} | {:>10} {:>12} | {:>10} {:>12}",
            "iter", "RandS", "ms(cum)", "R->RevS", "ms(cum)", "R->SimGen", "ms(cum)"
        );
        let mut gens: Vec<Box<dyn PatternGenerator>> = vec![
            make_generator(Strategy::Random, 7),
            make_combined(Strategy::RevS, 7),
            make_combined(Strategy::AiDcMffc, 7),
        ];
        let reports: Vec<_> = gens
            .iter_mut()
            .map(|g| Sweeper::new(cfg).run(&net, g.as_mut(), &mut RunContext::default()))
            .collect();
        let iters = reports[0].stats.history.len();
        let mut cum = [0.0f64; 3];
        for it in 0..iters {
            print!("{:>4} |", it);
            for (k, r) in reports.iter().enumerate() {
                let rec = &r.stats.history[it];
                cum[k] += (rec.gen_time + rec.sim_time).as_secs_f64() * 1e3;
                print!(" {:>10} {:>12.3} |", rec.cost, cum[k]);
            }
            println!();
        }
        let final_costs: Vec<u64> = reports
            .iter()
            .map(|r| r.stats.history.last().map_or(0, |rec| rec.cost))
            .collect();
        println!(
            "final costs: RandS {}, RandS->RevS {}, RandS->SimGen {}",
            final_costs[0], final_costs[1], final_costs[2]
        );
        println!();
        for (label, r) in ["rands", "rands_revs", "rands_simgen"]
            .into_iter()
            .zip(&reports)
        {
            report.metric(
                &format!("{bmk}_{label}_cost_curve"),
                Json::Arr(
                    r.stats
                        .history
                        .iter()
                        .map(|rec| Json::U64(rec.cost))
                        .collect(),
                ),
            );
            report.metric(
                &format!("{bmk}_{label}_final_cost"),
                Json::U64(r.stats.history.last().map_or(0, |rec| rec.cost)),
            );
        }
    }
    println!("Paper reference (Figure 7): RandS plateaus after a few iterations; switching");
    println!("to SimGen keeps splitting classes (lowest final cost) at extra runtime, with");
    println!("RevS in between.");
    let path = write_bench_report(&report, "results/BENCH_figure7.json");
    println!("wrote {}", path.display());
}
