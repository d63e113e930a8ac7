//! Incremental-vs-cold solver parity (docs/solving.md).
//!
//! The assumption-scoped region solvers are a pure efficiency device:
//! routing a region's pairs through one long-lived solver must change
//! *nothing* observable except effort counters. This suite holds the
//! sweeper to that contract on a workload with several independent
//! fanin regions:
//!
//! 1. **Verdict parity**: incremental and cold runs prove the same
//!    classes, disprove the same pairs, leave the same residue.
//! 2. **Report parity**: engine-stripped `RunReport`s are
//!    byte-identical between the two modes and across `--jobs` 1/2/4,
//!    with and without `--certify`.
//! 3. **The win is real**: the incremental run reports
//!    `clauses_reused > 0` and spends strictly fewer solver conflicts
//!    than the cold run on the same workload.
//!
//! The configs here keep the default conflict budget, which no pair
//! of this workload exhausts: a pair that ran out of budget warm but
//! not cold would move the verdicts, which survive engine-stripping
//! (the caveat documented in docs/solving.md).

use simgen_cec::{
    design_info, sweep_run_report, EnginePolicy, RegionMap, RunContext, RunMeta, SweepConfig,
    SweepReport, Sweeper,
};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_netlist::{miter::combine, LutNetwork};
use simgen_obs::{report::strip_engine_dependent, Counter, Json, Observer};
use simgen_workloads::{build_aig, rewrite::restructure};

/// One benchmark miter'd against its restructured self: a block with
/// plenty of provable pairs, all sharing primary inputs.
fn miter_of(name: &str, seed: u64) -> LutNetwork {
    let aig = build_aig(name).expect("known benchmark");
    let variant = restructure(&aig, 0.4, seed);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    combine(&left, &right).expect("matched interfaces").network
}

/// Two disjoint benchmark miters in one network — at least two fanin
/// regions, each with many candidate pairs for the region solver to
/// warm-start across.
fn multi_region_workload() -> LutNetwork {
    let mut net = miter_of("e64", 11);
    let second = miter_of("dec", 37);
    net.append_island(&second, "dec");
    net
}

fn config(incremental: bool, jobs: usize, certify: bool) -> SweepConfig {
    SweepConfig {
        guided_iterations: 2,
        seed: 11,
        jobs,
        certify,
        engine: EnginePolicy {
            incremental,
            ..EnginePolicy::default()
        },
        ..SweepConfig::default()
    }
}

fn run(net: &LutNetwork, cfg: SweepConfig) -> (SweepReport, Observer) {
    let mut gen = SimGen::new(SimGenConfig::default().with_seed(11));
    let mut ctx = RunContext {
        obs: Observer::enabled(),
        ..RunContext::default()
    };
    let report = Sweeper::new(cfg).run(net, &mut gen, &mut ctx);
    (report, ctx.obs)
}

/// The engine-stripped deterministic form of a run's `RunReport`.
fn stripped_report(
    net: &LutNetwork,
    cfg: &SweepConfig,
    report: &SweepReport,
    obs: &Observer,
) -> String {
    let meta = RunMeta {
        command: "sweep".to_string(),
        argv: vec!["sweep".to_string(), "workload.blif".to_string()],
        design: design_info(net, "workload", "workload.blif"),
    };
    let run = sweep_run_report(meta, cfg, report, obs);
    simgen_obs::RunReport::validate(&run.to_json()).expect("report validates");
    let mut json = Json::parse(&run.deterministic_json()).expect("own JSON parses");
    strip_engine_dependent(&mut json);
    json.to_pretty()
}

/// Sanity: the workload really spans more than one fanin region, so
/// the incremental sweeper exercises several independent solvers.
#[test]
fn workload_spans_multiple_regions() {
    let net = multi_region_workload();
    let mut regions = RegionMap::new(&net);
    let keys: std::collections::HashSet<usize> = net
        .node_ids()
        .filter(|&n| !net.is_pi(n))
        .map(|n| regions.key(n, n))
        .collect();
    assert!(
        keys.len() >= 2,
        "expected at least two fanin regions, got {}",
        keys.len()
    );
}

/// Verdict and engine-stripped report parity between solver modes,
/// across worker counts, with and without certification.
#[test]
fn incremental_and_cold_reports_are_byte_identical() {
    let net = multi_region_workload();
    for certify in [false, true] {
        let mut forms: Vec<(String, String)> = Vec::new();
        let mut baseline: Option<SweepReport> = None;
        for incremental in [true, false] {
            for jobs in [1usize, 2, 4] {
                let cfg = config(incremental, jobs, certify);
                let (report, obs) = run(&net, cfg);
                assert!(!report.interrupted, "nothing may time out");
                assert_eq!(report.stats.certification_failures, 0);
                match &baseline {
                    None => baseline = Some(report.clone()),
                    Some(first) => {
                        let label =
                            format!("certify={certify} incremental={incremental} jobs={jobs}");
                        assert_eq!(report.proven_classes, first.proven_classes, "{label}");
                        assert_eq!(report.unresolved, first.unresolved, "{label}");
                        assert_eq!(
                            report.stats.proved_equivalent, first.stats.proved_equivalent,
                            "{label}"
                        );
                        assert_eq!(report.stats.disproved, first.stats.disproved, "{label}");
                    }
                }
                forms.push((
                    format!("certify={certify} incremental={incremental} jobs={jobs}"),
                    stripped_report(&net, &cfg, &report, &obs),
                ));
            }
        }
        let (first_label, first_form) = &forms[0];
        for (label, form) in &forms[1..] {
            assert_eq!(
                form, first_form,
                "stripped report for {label} diverges from {first_label}"
            );
        }
        assert!(
            baseline.expect("ran").stats.proved_equivalent > 0,
            "workload sanity: the sweep proves real equivalences"
        );
    }
}

/// The point of the whole exercise: warm region solvers reuse learnt
/// clauses and resolve the workload with strictly fewer conflicts
/// than cold per-pair solving.
#[test]
fn incremental_mode_reuses_clauses_and_saves_conflicts() {
    let net = multi_region_workload();
    let (warm, warm_obs) = run(&net, config(true, 2, false));
    let (cold, cold_obs) = run(&net, config(false, 2, false));
    assert_eq!(warm.proven_classes, cold.proven_classes, "verdict parity");

    assert!(
        warm_obs.recorder.get(Counter::ClausesReused) > 0,
        "warm runs must inherit learnt clauses across a region's pairs"
    );
    assert!(
        warm_obs.recorder.get(Counter::WarmSolves) > 0,
        "later pairs in a region warm-start"
    );
    assert!(
        warm_obs.recorder.get(Counter::ScopesOpened) >= warm.stats.sat_calls,
        "every SAT-resolved pair opens a scope"
    );
    assert_eq!(
        cold_obs.recorder.get(Counter::ClausesReused),
        0,
        "cold solvers start empty"
    );
    assert_eq!(cold_obs.recorder.get(Counter::WarmSolves), 0);

    assert!(
        warm.stats.solver.conflicts < cold.stats.solver.conflicts,
        "incremental solving must save conflicts: warm {} vs cold {}",
        warm.stats.solver.conflicts,
        cold.stats.solver.conflicts
    );
}
