//! Shape-level regression tests pinning the paper's headline claims
//! on fixed benchmarks and seeds — the experiment binaries in
//! miniature. If one of these fails after a refactor, the reproduced
//! result has drifted, not just an implementation detail.

use simgen_suite::cec::{RunContext, SweepConfig, Sweeper, SwitchOnPlateau};
use simgen_suite::core::{PatternGenerator, RandomPatterns, RevSim, SimGen, SimGenConfig};
use simgen_suite::workloads::benchmark_network;

fn sweep(
    net: &simgen_suite::netlist::LutNetwork,
    gen: &mut dyn PatternGenerator,
    run_sat: bool,
) -> simgen_suite::cec::SweepReport {
    let cfg = SweepConfig {
        run_sat,
        ..SweepConfig::default()
    };
    Sweeper::new(cfg).run(net, gen, &mut RunContext::default())
}

/// Table 1's direction: every SimGen variant beats RevS on class cost
/// (averaged over seeds on a deeply reconvergent benchmark).
#[test]
fn simgen_variants_beat_revs_on_cost() {
    let net = benchmark_network("k2", 6).expect("known benchmark");
    let avg = |mk: &dyn Fn(u64) -> Box<dyn PatternGenerator>| -> f64 {
        (0..3u64)
            .map(|s| sweep(&net, mk(s).as_mut(), false).cost_after_sim as f64)
            .sum::<f64>()
            / 3.0
    };
    let revs = avg(&|s| Box::new(RevSim::new(s, 30)));
    let si_rd = avg(&|s| Box::new(SimGen::new(SimGenConfig::simple_random().with_seed(s))));
    let full = avg(&|s| Box::new(SimGen::new(SimGenConfig::advanced_dc_mffc().with_seed(s))));
    assert!(si_rd < revs, "SI+RD {si_rd} must beat RevS {revs}");
    assert!(full < revs, "AI+DC+MFFC {full} must beat RevS {revs}");
    assert!(
        full <= si_rd * 1.05,
        "advanced should not lose to simple: {full} vs {si_rd}"
    );
}

/// Table 2's direction: SimGen needs no more SAT calls than RevS on
/// the ITC'99 family where the paper's reductions are largest.
#[test]
fn simgen_cuts_sat_calls_on_itc_family() {
    for name in ["b20_C", "b21_C"] {
        let net = benchmark_network(name, 6).expect("known benchmark");
        let calls = |mk: &dyn Fn(u64) -> Box<dyn PatternGenerator>| -> f64 {
            (0..3u64)
                .map(|s| sweep(&net, mk(s).as_mut(), true).stats.sat_calls as f64)
                .sum::<f64>()
                / 3.0
        };
        let revs = calls(&|s| Box::new(RevSim::new(s, 30)));
        let sgen = calls(&|s| Box::new(SimGen::new(SimGenConfig::default().with_seed(s))));
        assert!(
            sgen < revs * 0.8,
            "{name}: SimGen {sgen} should clearly undercut RevS {revs}"
        );
    }
}

/// Figure 7's direction: the random→SimGen synergy ends at a cost no
/// worse than random→RevS.
#[test]
fn synergy_with_simgen_beats_synergy_with_revs() {
    let net = benchmark_network("apex2", 6).expect("known benchmark");
    let run = |guided: Box<dyn PatternGenerator>| -> u64 {
        let mut gen = SwitchOnPlateau::new(Box::new(RandomPatterns::new(7, 64)), guided, 3);
        let cfg = SweepConfig {
            guided_iterations: 30,
            run_sat: false,
            ..SweepConfig::default()
        };
        Sweeper::new(cfg)
            .run(&net, &mut gen, &mut RunContext::default())
            .cost_after_sim
    };
    let with_revs = run(Box::new(RevSim::new(8, 30)));
    let with_sgen = run(Box::new(SimGen::new(SimGenConfig::default().with_seed(8))));
    assert!(
        with_sgen <= with_revs,
        "SimGen synergy {with_sgen} vs RevS synergy {with_revs}"
    );
}

/// The sweep's SAT phase is sound regardless of strategy: proven
/// classes on a small benchmark are exhaustively equivalent.
#[test]
fn sat_phase_soundness_small_benchmark() {
    let net = benchmark_network("ex5p", 6).expect("known benchmark");
    assert!(net.num_pis() <= 12);
    let mut gen = RevSim::new(2, 20);
    let report = sweep(&net, &mut gen, true);
    for class in &report.proven_classes {
        for m in 0..(1u32 << net.num_pis()) {
            let ins: Vec<bool> = (0..net.num_pis()).map(|i| (m >> i) & 1 == 1).collect();
            let vals = net.eval(&ins);
            let v0 = vals[class[0].index()];
            for &n in &class[1..] {
                assert_eq!(vals[n.index()], v0, "false equivalence at {m:b}");
            }
        }
    }
}

/// Determinism: identical seeds give identical sweeps end to end.
#[test]
fn experiments_are_deterministic() {
    let net = benchmark_network("misex3c", 6).expect("known benchmark");
    let run = || {
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(11));
        let r = sweep(&net, &mut gen, true);
        (
            r.cost_after_sim,
            r.stats.sat_calls,
            r.stats.proved_equivalent,
            r.stats.disproved,
            r.patterns.num_patterns(),
        )
    };
    assert_eq!(run(), run());
}
