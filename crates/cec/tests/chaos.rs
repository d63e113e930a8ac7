//! Chaos suite: deterministic fault injection against the parallel
//! sweeper (build with `--features fault-inject`).
//!
//! A seeded [`FaultPlan`] panics, stalls, or spoofs `Unknown` on
//! chosen proof jobs, keyed on the job's global input-order index —
//! never on scheduling. The suite holds the sweeper to two promises
//! under any such plan:
//!
//! 1. **Soundness**: verdicts under faults are a subset of the
//!    fault-free run's. Faults only move pairs to quarantine or
//!    unresolved; they never flip a verdict or merge anything the
//!    clean run would not merge.
//! 2. **Determinism**: for a fixed fault seed, the stripped run
//!    report is byte-identical for every `--jobs` value.

#![cfg(feature = "fault-inject")]

use std::collections::HashMap;

use simgen_cec::{
    design_info, sweep_run_report, FaultAction, FaultPlan, RunContext, RunMeta, SweepConfig,
    SweepReport, Sweeper,
};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_netlist::{miter::combine, LutNetwork, NodeId};
use simgen_obs::Observer;
use simgen_workloads::{build_aig, rewrite::restructure};

/// Three seeds, each exercising a different mix of panics, stalls,
/// and spurious Unknowns over the workload's job indices.
const FAULT_SEEDS: [u64; 3] = [3, 5, 9];
const JOB_COUNTS: [usize; 3] = [1, 2, 4];

/// The golden workload's little sibling: `e64` miter'd against its
/// restructured self, so plenty of provable pairs survive simulation.
fn workload() -> LutNetwork {
    let aig = build_aig("e64").expect("known benchmark");
    let variant = restructure(&aig, 0.4, 11);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    combine(&left, &right).expect("matched interfaces").network
}

fn run(net: &LutNetwork, jobs: usize, plan: Option<FaultPlan>) -> (SweepReport, String) {
    let cfg = SweepConfig {
        guided_iterations: 2,
        seed: 11,
        jobs,
        certify: true,
        ..SweepConfig::default()
    };
    let mut gen = SimGen::new(SimGenConfig::default().with_seed(11));
    let mut ctx = RunContext {
        obs: Observer::enabled(),
        ..RunContext::default()
    };
    let mut sweeper = Sweeper::new(cfg);
    if let Some(plan) = plan {
        sweeper = sweeper.with_fault_plan(plan);
    }
    let report = sweeper.run(net, &mut gen, &mut ctx);
    let meta = RunMeta {
        command: "sweep".to_string(),
        argv: vec![
            "sweep".to_string(),
            "e64.blif".to_string(),
            jobs.to_string(),
        ],
        design: design_info(net, "e64", "e64.blif"),
    };
    let json = sweep_run_report(meta, &cfg, &report, &ctx.obs).deterministic_json();
    (report, json)
}

/// node → class index, for subset checks between runs.
fn class_map(classes: &[Vec<NodeId>]) -> HashMap<NodeId, usize> {
    let mut map = HashMap::new();
    for (i, class) in classes.iter().enumerate() {
        for &n in class {
            map.insert(n, i);
        }
    }
    map
}

#[test]
fn faults_only_degrade_never_flip() {
    let net = workload();
    let (clean, _) = run(&net, 2, None);
    assert!(
        clean.stats.proved_equivalent > 0,
        "workload sanity: provable pairs exist"
    );
    assert!(
        clean.unresolved.is_empty(),
        "workload sanity: the clean run resolves everything"
    );
    let clean_classes = class_map(&clean.proven_classes);

    for seed in FAULT_SEEDS {
        let plan = FaultPlan::from_seed(seed);
        let (faulty, _) = run(&net, 2, Some(plan));

        // Soundness: everything merged under faults was merged by the
        // clean run too (which resolved all pairs, so this subset
        // check is exact).
        for class in &faulty.proven_classes {
            let rep_class = clean_classes.get(&class[0]);
            assert!(
                rep_class.is_some(),
                "seed {seed}: merged node unknown to clean run"
            );
            for n in class {
                assert_eq!(
                    clean_classes.get(n),
                    rep_class,
                    "seed {seed}: fault run merged {n}, the clean run did not"
                );
            }
        }

        // Faults demote, they never fabricate: no certification
        // failure (evidence stays sound), and every quarantined pair
        // is reported unresolved, never merged.
        assert_eq!(faulty.stats.certification_failures, 0, "seed {seed}");
        for p in &faulty.quarantined {
            assert!(faulty.unresolved.contains(p), "seed {seed}");
            assert!(
                faulty
                    .proven_classes
                    .iter()
                    .all(|c| !(c.contains(&p.0) && c.contains(&p.1))),
                "seed {seed}: quarantined pair appears merged"
            );
        }

        // Cross-check the injected panics against the plan itself:
        // jobs are indexed 0..(proofs+panics) in dispatch order, so
        // the merge-side panic total must equal the number of Panic
        // actions the plan assigns to that index range.
        let d = faulty.stats.dispatch.as_ref().expect("parallel run");
        let total_jobs = d.proofs + d.panics;
        let planned_panics = (0..total_jobs)
            .filter(|&i| plan.action(i as usize) == FaultAction::Panic)
            .count() as u64;
        assert_eq!(d.panics, planned_panics, "seed {seed}");
        assert!(
            d.panics > 0,
            "seed {seed}: plan sanity — injects at least one panic"
        );
        let planned_spurious = (0..total_jobs)
            .filter(|&i| plan.action(i as usize) == FaultAction::SpuriousUnknown)
            .count() as u64;
        assert!(
            d.timeouts >= planned_spurious,
            "seed {seed}: every spurious Unknown must surface as a timeout"
        );
        assert_eq!(
            d.quarantined,
            faulty.quarantined.len() as u64,
            "seed {seed}"
        );
    }
}

#[test]
fn fault_runs_are_byte_identical_across_jobs() {
    let net = workload();
    for seed in FAULT_SEEDS {
        let plan = FaultPlan::from_seed(seed);
        let mut first: Option<(SweepReport, String)> = None;
        for jobs in JOB_COUNTS {
            let (report, json) = run(&net, jobs, Some(plan));
            match &first {
                None => first = Some((report, json)),
                Some((r1, j1)) => {
                    assert_eq!(
                        &json, j1,
                        "seed {seed} jobs {jobs}: stripped run report must be byte-identical"
                    );
                    assert_eq!(
                        report.proven_classes, r1.proven_classes,
                        "seed {seed} jobs {jobs}"
                    );
                    assert_eq!(report.unresolved, r1.unresolved, "seed {seed} jobs {jobs}");
                    assert_eq!(
                        report.quarantined, r1.quarantined,
                        "seed {seed} jobs {jobs}"
                    );
                    assert_eq!(
                        report.stats.solver, r1.stats.solver,
                        "seed {seed} jobs {jobs}"
                    );
                }
            }
        }
    }
}
