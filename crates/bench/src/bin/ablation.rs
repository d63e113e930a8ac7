//! Ablations of SimGen's design choices beyond the paper's Table 1:
//!
//! 1. α/β sensitivity of the row-priority blend (Equation 4);
//! 2. OUTgold policy: alternating (paper default) vs topology-aware
//!    (the extension the paper proposes in Section 3);
//! 3. SimGen's per-iteration class-attempt budget;
//! 4. RevS's pair-retry budget (baseline fairness check);
//! 5. extra strategies: the 1-distance counterexample perturbation of
//!    Mishchenko et al. alongside RandS / RevS / SimGen.
//!
//! ```text
//! cargo run --release -p simgen-bench --bin ablation
//! ```

use simgen_bench::{experiment_config, write_bench_report, BenchReport, Json, REVSIM_ATTEMPTS};
use simgen_cec::{BudgetSchedule, EngineMode, EnginePolicy, RunContext, SweepConfig, Sweeper};
use simgen_core::{OneDistance, PatternGenerator, RandomPatterns, RevSim, SimGen, SimGenConfig};
use simgen_obs::{Observer, Phase};
use simgen_workloads::benchmark_network;

const BENCHES: [&str; 6] = ["apex2", "k2", "cps", "b17_C", "b21_C", "i10"];

fn avg_cost(mut make: impl FnMut(u64) -> Box<dyn PatternGenerator>, run_sat: bool) -> (f64, f64) {
    let cfg = experiment_config(run_sat);
    let mut cost = 0.0;
    let mut calls = 0.0;
    for name in BENCHES {
        let net = benchmark_network(name, 6).expect("known benchmark");
        for seed in 0..2u64 {
            let mut gen = make(seed);
            let r = Sweeper::new(cfg).run(&net, gen.as_mut(), &mut RunContext::default());
            cost += r.cost_after_sim as f64;
            calls += r.stats.sat_calls as f64;
        }
    }
    let n = (BENCHES.len() * 2) as f64;
    (cost / n, calls / n)
}

fn main() {
    println!("Ablations over {BENCHES:?} (2 seeds each, cost = Eq.5 after sim phase)\n");
    let mut report = BenchReport::new("ablation");
    report.param(
        "benchmarks",
        Json::Arr(BENCHES.iter().map(|b| Json::Str(b.to_string())).collect()),
    );
    report.param("seeds", Json::U64(2));

    println!("1. Equation 4 priority weights (AI+DC+MFFC):");
    println!("{:>8} {:>8} {:>12}", "alpha", "beta", "avg cost");
    for (alpha, beta) in [
        (0.0, 0.0),   // pure roulette over uniform weights
        (0.0, 1.0),   // MFFC rank only
        (1.0, 0.0),   // DC count only
        (1.0, 1.0),   // equal blend
        (100.0, 1.0), // the paper's alpha >> beta
        (1000.0, 1.0),
    ] {
        let (cost, _) = avg_cost(
            |seed| {
                let mut cfg = SimGenConfig::advanced_dc_mffc().with_seed(seed);
                cfg.alpha = alpha;
                cfg.beta = beta;
                Box::new(SimGen::new(cfg))
            },
            false,
        );
        println!("{alpha:>8} {beta:>8} {cost:>12.1}");
        report.metric(
            &format!("eq4_alpha{alpha}_beta{beta}_avg_cost"),
            Json::F64(cost),
        );
    }

    println!("\n2. OUTgold policy:");
    for (label, topo) in [("alternating", false), ("topology-aware", true)] {
        let (cost, _) = avg_cost(
            |seed| {
                let mut cfg = SimGenConfig::default().with_seed(seed);
                if topo {
                    cfg = cfg.with_topology_aware_outgold();
                }
                Box::new(SimGen::new(cfg))
            },
            false,
        );
        println!("{label:>16}: avg cost {cost:.1}");
        report.metric(
            &format!("outgold_{}_avg_cost", label.replace('-', "_")),
            Json::F64(cost),
        );
    }

    println!("\n3. SimGen class attempts per iteration:");
    for attempts in [1usize, 2, 4, 8, 16] {
        let (cost, _) = avg_cost(
            |seed| {
                let mut g = SimGen::new(SimGenConfig::default().with_seed(seed));
                g.max_attempts = attempts;
                Box::new(g)
            },
            false,
        );
        println!("{attempts:>16}: avg cost {cost:.1}");
        report.metric(
            &format!("simgen_attempts{attempts}_avg_cost"),
            Json::F64(cost),
        );
    }

    println!("\n4. RevS pair-retry budget:");
    for attempts in [5usize, REVSIM_ATTEMPTS, 100] {
        let (cost, _) = avg_cost(|seed| Box::new(RevSim::new(seed, attempts)), false);
        println!("{attempts:>16}: avg cost {cost:.1}");
        report.metric(
            &format!("revs_attempts{attempts}_avg_cost"),
            Json::F64(cost),
        );
    }

    println!("\n5. Strategy roundup (full sweep incl. SAT; note RandS emits 64 vectors");
    println!("   per iteration vs <=1 for guided strategies - volume, not guidance):");
    println!(
        "{:>16} {:>12} {:>12}",
        "strategy", "avg cost", "avg SAT calls"
    );
    type GenCtor = Box<dyn Fn(u64) -> Box<dyn PatternGenerator>>;
    let entries: [(&str, GenCtor); 4] = [
        ("RandS", Box::new(|s| Box::new(RandomPatterns::new(s, 64)))),
        ("1-dist", Box::new(|s| Box::new(OneDistance::new(s, 8)))),
        (
            "RevS",
            Box::new(|s| Box::new(RevSim::new(s, REVSIM_ATTEMPTS))),
        ),
        (
            "SimGen",
            Box::new(|s| Box::new(SimGen::new(SimGenConfig::default().with_seed(s)))),
        ),
    ];
    for (label, make) in entries {
        let (cost, calls) = avg_cost(|s| make(s), true);
        println!("{label:>16} {cost:>12.1} {calls:>12.1}");
        let key = label.to_ascii_lowercase().replace('-', "_");
        report.metric(&format!("strategy_{key}_avg_cost"), Json::F64(cost));
        report.metric(&format!("strategy_{key}_avg_sat_calls"), Json::F64(calls));
    }

    println!("\n6. Proof engine (SimGen patterns; resolution time per benchmark):");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "bmk", "SAT ms", "BDD ms", "BDD result"
    );
    for name in BENCHES {
        let net = benchmark_network(name, 6).expect("known benchmark");
        let mut row = Vec::new();
        let mut bdd_note = "ok";
        for mode in [EngineMode::Auto, EngineMode::BddOnly] {
            let cfg = SweepConfig {
                engine: EnginePolicy {
                    mode,
                    ..EnginePolicy::default()
                },
                budget_schedule: (mode == EngineMode::BddOnly).then_some(BudgetSchedule {
                    bdd_node_limit: 2_000_000,
                    ..BudgetSchedule::default()
                }),
                ..experiment_config(true)
            };
            let mut gen = SimGen::new(SimGenConfig::default());
            // Resolution wall time from the observer: BDD answers
            // spend no SAT time, so `stats.sat_time` cannot compare
            // the two engines.
            let mut ctx = RunContext {
                obs: Observer::with(true, false),
                ..RunContext::default()
            };
            let r = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
            row.push(ctx.obs.recorder.wall(Phase::SatResolution).as_secs_f64() * 1e3);
            if mode == EngineMode::BddOnly && r.stats.aborted > 0 {
                bdd_note = "blow-up";
            }
        }
        println!(
            "{name:>10} {:>12.2} {:>12.2} {bdd_note:>12}",
            row[0], row[1]
        );
        report.metric(&format!("{name}_sat_ms"), Json::F64(row[0]));
        report.metric(&format!("{name}_bdd_ms"), Json::F64(row[1]));
        report.metric(
            &format!("{name}_bdd_result"),
            Json::Str(bdd_note.to_string()),
        );
    }
    let path = write_bench_report(&report, "results/BENCH_ablation.json");
    println!("wrote {}", path.display());
}
