//! Cross-engine parity and an independent oracle: the SAT and BDD
//! proof engines must agree on every resolved query, the sweep must
//! produce identical proven equivalences under either engine wherever
//! BDDs stay within their node limit, and on small miters the proven
//! classes must be exactly the functional classes a brute-force truth
//! table evaluation finds.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgen_cec::{
    check_equivalence, design_info, sweep_run_report, BddProver, BudgetSchedule, CecVerdict,
    Deadline, EngineMode, EnginePolicy, InconclusiveReason, PairProver, ProveOutcome, RunContext,
    RunMeta, SweepConfig, Sweeper,
};
use simgen_core::{SimGen, SimGenConfig};
use simgen_mapping::map_to_luts;
use simgen_netlist::{LutNetwork, NodeId};
use simgen_workloads::{build_aig, rewrite::restructure};

/// A moderate CEC-style network with many truly equivalent pairs.
fn test_network() -> LutNetwork {
    let aig = build_aig("e64").expect("known benchmark");
    let variant = restructure(&aig, 0.5, 77);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    simgen_netlist::miter::combine(&left, &right)
        .expect("matched interfaces")
        .network
}

#[test]
fn provers_agree_pairwise() {
    let net = test_network();
    let luts: Vec<NodeId> = net.node_ids().filter(|&n| !net.is_pi(n)).collect();
    let mut sat = PairProver::new(&net);
    let mut bdd = BddProver::new(&net, 5_000_000);
    // A deterministic scatter of pairs across the network.
    for k in 0..40usize {
        let a = luts[(k * 7) % luts.len()];
        let b = luts[(k * 13 + 5) % luts.len()];
        let ra = sat.prove(a, b, None);
        let rb = bdd.prove(a, b);
        match (&ra, &rb) {
            (ProveOutcome::Equivalent, ProveOutcome::Equivalent) => {}
            (ProveOutcome::Counterexample(ca), ProveOutcome::Counterexample(cb)) => {
                // Different witnesses are fine; both must distinguish.
                for (label, c) in [("sat", ca), ("bdd", cb)] {
                    let vals = net.eval(c);
                    assert_ne!(
                        vals[a.index()],
                        vals[b.index()],
                        "{label} witness fails for pair {k}"
                    );
                }
            }
            other => panic!("engines disagree on pair {k}: {other:?}"),
        }
    }
    assert_eq!(sat.calls(), 40);
    assert_eq!(bdd.calls(), 40);
}

#[test]
fn sweeps_agree_on_proven_sets() {
    let net = test_network();
    let run = |mode: EngineMode| {
        let cfg = SweepConfig {
            engine: EnginePolicy {
                mode,
                ..EnginePolicy::default()
            },
            budget_schedule: (mode == EngineMode::BddOnly).then_some(BudgetSchedule {
                bdd_node_limit: 5_000_000,
                ..BudgetSchedule::default()
            }),
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(3));
        Sweeper::new(cfg).run(&net, &mut gen, &mut RunContext::default())
    };
    let sat = run(EngineMode::Auto);
    let bdd = run(EngineMode::BddOnly);
    assert_eq!(bdd.stats.sat_calls, 0, "the BDD engine answered every pair");
    // The engines produce different counterexamples, so the number of
    // disproof calls may differ; the *semantic* outcome — which nodes
    // end up proven equivalent — must not.
    assert_eq!(sat.stats.proved_equivalent, bdd.stats.proved_equivalent);
    let norm = |mut classes: Vec<Vec<NodeId>>| {
        for c in classes.iter_mut() {
            c.sort();
        }
        classes.sort();
        classes
    };
    assert_eq!(
        norm(sat.proven_classes),
        norm(bdd.proven_classes),
        "identical equivalence structure from both engines"
    );
}

/// A seeded sweep workload: a benchmark miter'd against its own
/// restructured variant, guaranteeing plenty of true equivalences.
fn workload(name: &str, seed: u64) -> LutNetwork {
    let aig = build_aig(name).expect("known benchmark");
    let variant = restructure(&aig, 0.4, seed);
    let left = map_to_luts(&aig, 6);
    let right = map_to_luts(&variant, 6);
    simgen_netlist::miter::combine(&left, &right)
        .expect("matched interfaces")
        .network
}

fn norm(mut classes: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    for c in classes.iter_mut() {
        c.sort();
    }
    classes.sort();
    classes
}

/// The brute-force oracle: every LUT node's complete truth table over
/// the primary inputs, from [`LutNetwork::eval`] on all 2ⁿ input
/// vectors, grouped into the classes of identical functions (size ≥ 2)
/// in [`norm`] order. It shares no code with the sweep — no simulation
/// kernel, no SAT, no BDD. `None` above 16 primary inputs.
fn oracle_classes(net: &LutNetwork) -> Option<Vec<Vec<NodeId>>> {
    let n = net.num_pis();
    if n > 16 {
        return None;
    }
    let luts: Vec<NodeId> = net.node_ids().filter(|&x| !net.is_pi(x)).collect();
    let mut tables = vec![vec![0u64; (1usize << n).div_ceil(64)]; luts.len()];
    let mut input = vec![false; n];
    for m in 0..1usize << n {
        for (i, bit) in input.iter_mut().enumerate() {
            *bit = (m >> i) & 1 == 1;
        }
        let values = net.eval(&input);
        for (table, node) in tables.iter_mut().zip(&luts) {
            if values[node.index()] {
                table[m / 64] |= 1 << (m % 64);
            }
        }
    }
    let mut by_function: BTreeMap<Vec<u64>, Vec<NodeId>> = BTreeMap::new();
    for (table, node) in tables.into_iter().zip(luts) {
        by_function.entry(table).or_default().push(node);
    }
    Some(norm(
        by_function.into_values().filter(|c| c.len() >= 2).collect(),
    ))
}

/// Soundness fallback for miters too wide to enumerate: every proven
/// class must agree on 2048 seeded random input vectors under
/// [`LutNetwork::eval`].
fn assert_classes_agree_on_random_inputs(net: &LutNetwork, classes: &[Vec<NodeId>], what: &str) {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    for _ in 0..2048 {
        let input: Vec<bool> = (0..net.num_pis()).map(|_| rng.gen()).collect();
        let values = net.eval(&input);
        for class in classes {
            assert!(
                class
                    .iter()
                    .all(|n| values[n.index()] == values[class[0].index()]),
                "{what}: proven class {class:?} splits on input {input:?}"
            );
        }
    }
}

/// The sweep is sound and complete against the brute-force oracle at
/// every worker count: on miters with at most 16 inputs the proven
/// classes are exactly the functional classes (wider miters get a
/// random-vector soundness check), and across worker counts the
/// reports are identical in every deterministic respect.
#[test]
fn sweeps_match_brute_force_oracle_across_workloads() {
    let circuits = [
        ("e64", 11u64),
        ("e64", 19),
        ("priority", 23),
        ("priority", 31),
        ("dec", 37),
    ];
    for (name, seed) in circuits {
        let net = workload(name, seed);
        let oracle = oracle_classes(&net);
        let base = SweepConfig {
            guided_iterations: 5,
            seed,
            ..SweepConfig::default()
        };
        let mut reports = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig {
                jobs,
                budget_schedule: Some(BudgetSchedule {
                    initial: 2_000,
                    multiplier: 50,
                    attempts: 2,
                    bdd_node_limit: 0,
                }),
                ..base
            };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let par = Sweeper::new(cfg).run(&net, &mut gen, &mut RunContext::default());
            assert_eq!(
                par.stats.aborted, 0,
                "{name} jobs={jobs}: nothing may time out"
            );
            assert!(par.unresolved.is_empty(), "{name} jobs={jobs}");
            match &oracle {
                Some(truth) => assert_eq!(
                    &norm(par.proven_classes.clone()),
                    truth,
                    "{name} jobs={jobs}: proven classes must be the functional classes"
                ),
                None => assert_classes_agree_on_random_inputs(
                    &net,
                    &par.proven_classes,
                    &format!("{name} jobs={jobs}"),
                ),
            }
            reports.push(par);
        }
        // Across worker counts the reports are identical in every
        // deterministic respect (not just up to reordering).
        let first = &reports[0];
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(r.proven_classes, first.proven_classes, "{name} report {i}");
            assert_eq!(r.unresolved, first.unresolved, "{name} report {i}");
            assert_eq!(
                r.stats.disproved, first.stats.disproved,
                "{name} report {i}"
            );
            assert_eq!(
                r.stats.sat_calls, first.stats.sat_calls,
                "{name} report {i}"
            );
            assert_eq!(
                r.patterns.num_patterns(),
                first.patterns.num_patterns(),
                "{name} report {i}"
            );
            let (da, db) = (
                r.stats.dispatch.as_ref().unwrap(),
                first.stats.dispatch.as_ref().unwrap(),
            );
            assert_eq!(da.rounds, db.rounds, "{name} report {i}");
            assert_eq!(da.total_proofs(), db.total_proofs(), "{name} report {i}");
            assert_eq!(
                da.total_escalations(),
                db.total_escalations(),
                "{name} report {i}"
            );
        }
    }
}

/// The observability layer must not weaken the scheduling-invariance
/// contract: a fully instrumented run serialized as a [`RunReport`]
/// and reduced to its deterministic form (timing `*_ms` fields and
/// scheduling keys stripped) is byte-identical for every worker count.
#[test]
fn run_reports_are_byte_identical_across_worker_counts() {
    for (name, seed) in [("e64", 11u64), ("priority", 23)] {
        let net = workload(name, seed);
        let base = SweepConfig {
            guided_iterations: 5,
            seed,
            ..SweepConfig::default()
        };
        let mut deterministic_forms = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig { jobs, ..base };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let mut ctx = RunContext {
                obs: simgen_obs::Observer::enabled(),
                ..RunContext::default()
            };
            let report = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
            let meta = RunMeta {
                command: "sweep".to_string(),
                argv: vec![
                    "sweep".to_string(),
                    format!("{name}.blif"),
                    "--jobs".to_string(),
                    jobs.to_string(),
                ],
                design: design_info(&net, name, &format!("{name}.blif")),
            };
            let run = sweep_run_report(meta, &cfg, &report, &ctx.obs);
            simgen_obs::RunReport::validate(&run.to_json()).expect("instrumented run validates");
            deterministic_forms.push(run.deterministic_json());
        }
        for (i, form) in deterministic_forms.iter().enumerate().skip(1) {
            assert_eq!(
                form, &deterministic_forms[0],
                "{name}: deterministic RunReport for jobs index {i} diverges"
            );
        }
    }
}

/// Same contract under an already-expired deadline: the interrupted
/// partial report keeps its deterministic form byte-identical across
/// `--jobs`, so anytime results stay comparable run-over-run.
#[test]
fn expired_deadline_run_reports_are_byte_identical() {
    let (name, seed) = ("e64", 11u64);
    let net = workload(name, seed);
    let base = SweepConfig {
        guided_iterations: 5,
        seed,
        ..SweepConfig::default()
    };
    let mut deterministic_forms = Vec::new();
    for jobs in [1usize, 2, 4] {
        let cfg = SweepConfig { jobs, ..base };
        let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
        let mut ctx = RunContext {
            deadline: Deadline::after(std::time::Duration::ZERO),
            obs: simgen_obs::Observer::enabled(),
            ..RunContext::default()
        };
        let report = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
        assert!(report.interrupted, "jobs={jobs} must flag interruption");
        let meta = RunMeta {
            command: "sweep".to_string(),
            argv: vec!["sweep".to_string(), format!("{name}.blif")],
            design: design_info(&net, name, &format!("{name}.blif")),
        };
        let run = sweep_run_report(meta, &cfg, &report, &ctx.obs);
        simgen_obs::RunReport::validate(&run.to_json()).expect("interrupted run validates");
        assert_eq!(run.outcome.status, "interrupted");
        assert_eq!(run.outcome.exit_code, 2);
        deterministic_forms.push(run.deterministic_json());
    }
    for (i, form) in deterministic_forms.iter().enumerate().skip(1) {
        assert_eq!(
            form, &deterministic_forms[0],
            "deterministic interrupted RunReport for jobs index {i} diverges"
        );
    }
}

/// Anytime degradation is as scheduling-invariant as completion: under
/// an already-expired deadline, every worker count produces the same
/// partial sweep report, and the full CEC flow returns the same
/// `Inconclusive` verdict naming the same unresolved output pairs.
#[test]
fn expired_deadline_reports_are_identical_across_worker_counts() {
    for (name, seed) in [("e64", 11u64), ("priority", 23)] {
        let net = workload(name, seed);
        let base = SweepConfig {
            guided_iterations: 5,
            seed,
            ..SweepConfig::default()
        };
        let mut reports = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig { jobs, ..base };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let mut ctx = RunContext {
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..RunContext::default()
            };
            let par = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
            assert!(par.interrupted, "{name} jobs={jobs} must flag interruption");
            assert_eq!(
                par.stats.sat_calls, 0,
                "{name} jobs={jobs}: no proof may start past the deadline"
            );
            assert!(
                par.proven_classes.is_empty(),
                "{name} jobs={jobs}: partial results never claim unproven equivalences"
            );
            reports.push(par);
        }
        let first = &reports[0];
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(r.proven_classes, first.proven_classes, "{name} report {i}");
            assert_eq!(r.unresolved, first.unresolved, "{name} report {i}");
            assert_eq!(r.quarantined, first.quarantined, "{name} report {i}");
            assert_eq!(
                r.patterns.num_patterns(),
                first.patterns.num_patterns(),
                "{name} report {i}"
            );
        }

        // End-to-end flow: same Inconclusive verdict for every jobs value.
        let left = map_to_luts(&build_aig(name).expect("known benchmark"), 6);
        let right = map_to_luts(
            &restructure(&build_aig(name).expect("known benchmark"), 0.4, seed),
            6,
        );
        let mut verdicts = Vec::new();
        for jobs in [1usize, 2, 4] {
            let cfg = SweepConfig { jobs, ..base };
            let mut gen = SimGen::new(SimGenConfig::default().with_seed(seed));
            let mut ctx = RunContext {
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..RunContext::default()
            };
            let report = check_equivalence(&left, &right, &mut gen, cfg, &mut ctx)
                .expect("interfaces match");
            match &report.verdict {
                CecVerdict::Inconclusive {
                    unresolved_pairs,
                    reason,
                } => {
                    assert_eq!(*reason, InconclusiveReason::DeadlineExpired, "{name}");
                    assert_eq!(
                        unresolved_pairs.len(),
                        left.num_pos(),
                        "{name}: every output pair unresolved"
                    );
                    verdicts.push(unresolved_pairs.clone());
                }
                other => panic!("{name} jobs={jobs}: expected Inconclusive, got {other:?}"),
            }
        }
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "{name}: identical unresolved sets across worker counts"
        );
    }
}
