//! The writer of the versioned [`RunReport`] (`simgen-run-report/7`):
//! it lays a finished sweep or CEC run out as JSON straight from the
//! engine's own statistics ([`SweepStats`], [`CecReport`], the
//! [`DispatchSummary`], the kernel and executor totals) and the
//! run's [`Observer`]. `docs/observability.md` spells the document out
//! field by field. Everything the writer takes from `stats` is
//! `--jobs`-invariant, so the deterministic form of the report is
//! byte-identical for any worker count.

use std::time::Duration;

use simgen_netlist::LutNetwork;
use simgen_obs::report::Design;
use simgen_obs::{Counter, Json, Observer, Phase, RunReport};
use simgen_sat::SolverStats;

use crate::flow::{CecReport, CecVerdict, InconclusiveReason};
use crate::stats::{DispatchSummary, SweepStats};
use crate::sweep::{SweepConfig, SweepReport};

/// Run identity shared by both builders: what command ran, with what
/// arguments, on which design.
#[derive(Clone, Debug, Default)]
pub struct RunMeta {
    /// Subcommand name (`"sweep"` or `"cec"`).
    pub command: String,
    /// Raw argument vector, echoed into the report (stripped from the
    /// deterministic form — it contains `--jobs`).
    pub argv: Vec<String>,
    /// Design identity and size.
    pub design: Design,
}

/// The design name a run report carries for the file at `path`: its
/// file stem (the whole path when it has none).
pub fn design_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string()
}

/// Extracts [`Design`] identity from a network. `path` is the
/// command-line path (empty for in-memory designs).
pub fn design_info(net: &LutNetwork, name: &str, path: &str) -> Design {
    Design {
        name: name.to_string(),
        path: path.to_string(),
        pis: net.num_pis() as u64,
        nodes: (net.len() - net.num_pis()) as u64,
        pos: net.num_pos() as u64,
    }
}

/// The report's `config` object. Only `stall` is a duration, and it is
/// configuration, not measurement, so it is written as a plain
/// millisecond number (no `_ms` suffix: the suffix is reserved for
/// measured times the deterministic form must strip).
fn config_json(cfg: &SweepConfig) -> Json {
    let mut config = Json::obj();
    config.push("random_batch", Json::U64(cfg.random_batch as u64));
    config.push("guided_iterations", Json::U64(cfg.guided_iterations as u64));
    config.push("sat_budget", cfg.sat_budget.map_or(Json::Null, Json::U64));
    config.push("run_sat", Json::Bool(cfg.run_sat));
    config.push("seed", Json::U64(cfg.seed));
    config.push("jobs", Json::U64(cfg.jobs as u64));
    config.push(
        "bdd_node_limit",
        Json::U64(cfg.engine.bdd_node_limit as u64),
    );
    config.push("stall", cfg.stall.map_or(Json::Null, |d| Json::F64(ms(d))));
    config.push("certify", Json::Bool(cfg.certify));
    config.push("engine_mode", Json::Str(cfg.engine.mode.name().to_string()));
    config.push("incremental", Json::Bool(cfg.engine.incremental));
    config.push(
        "rebuild_bloat",
        Json::U64(u64::from(cfg.engine.rebuild_bloat)),
    );
    config.push("mem_budget", cfg.mem_budget.map_or(Json::Null, Json::U64));
    config
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An object of counts, in the given key order.
fn counts(fields: &[(&str, u64)]) -> Json {
    let mut obj = Json::obj();
    for &(key, n) in fields {
        obj.push(key, Json::U64(n));
    }
    obj
}

/// The `outcome` object. A failed certification outranks every other
/// exit (exit code 3, and a `certification_failures` detail): it means
/// an engine produced an answer its own evidence does not support.
fn outcome_json(
    status: &str,
    exit_code: u64,
    interrupted: bool,
    detail: Vec<(&str, Json)>,
    certification_failures: u64,
) -> Json {
    let mut outcome = Json::obj();
    outcome.push("status", Json::Str(status.to_string()));
    let exit_code = if certification_failures > 0 {
        3
    } else {
        exit_code
    };
    outcome.push("exit_code", Json::U64(exit_code));
    outcome.push("interrupted", Json::Bool(interrupted));
    for (key, value) in detail {
        outcome.push(key, value);
    }
    if certification_failures > 0 {
        outcome.push("certification_failures", Json::U64(certification_failures));
    }
    outcome
}

/// The `sweep` totals: the verdict counts from `stats`, the rest from
/// the run's own report.
fn sweep_json(
    stats: &SweepStats,
    cost_after_sim: u64,
    unresolved: u64,
    quarantined: u64,
    proven_classes: u64,
    patterns: u64,
) -> Json {
    counts(&[
        ("cost_after_sim", cost_after_sim),
        ("proved_equivalent", stats.proved_equivalent),
        ("disproved", stats.disproved),
        ("aborted", stats.aborted),
        ("unresolved", unresolved),
        ("quarantined", quarantined),
        ("proven_classes", proven_classes),
        ("patterns", patterns),
    ])
}

/// The `sat` section: the sweep's internal proofs plus, for a CEC run,
/// the output proofs' calls, solver totals and wall time.
fn sat_json(stats: &SweepStats, (calls, solver, time): (u64, SolverStats, Duration)) -> Json {
    let mut s = stats.solver;
    s += solver;
    let mut sat = counts(&[
        ("calls", stats.sat_calls + calls),
        ("solves", s.solves),
        ("decisions", s.decisions),
        ("propagations", s.propagations),
        ("conflicts", s.conflicts),
        ("restarts", s.restarts),
        ("learned", s.learned),
        ("removed", s.removed),
        ("proof_clauses", s.proof_clauses),
        ("proof_bytes", s.proof_bytes),
        ("clause_db_bytes", s.clause_db_bytes),
    ]);
    sat.push("wall_ms", Json::F64(ms(stats.sat_time) + ms(time)));
    sat
}

/// The `dispatch` section. The totals are the summary's own
/// merge-side fields; each worker row books the pairs that worker ran.
fn dispatch_json(d: &DispatchSummary) -> Json {
    let mut dispatch = counts(&[
        ("jobs", d.jobs as u64),
        ("rounds", d.rounds),
        ("quarantined", d.quarantined),
    ]);
    dispatch.push(
        "totals",
        counts(&[
            ("proofs", d.proofs),
            ("conflicts", d.conflicts),
            ("timeouts", d.timeouts),
            ("panics", d.panics),
        ]),
    );
    let workers = d.workers.iter().map(|w| {
        counts(&[
            ("worker", w.worker as u64),
            ("proofs", w.proofs),
            ("conflicts", w.conflicts),
            ("timeouts", w.timeouts),
            ("panics", w.panics),
        ])
    });
    dispatch.push("workers", Json::Arr(workers.collect()));
    dispatch
}

/// Writes the report: the header, `config` and `outcome`, then the
/// sections both commands share.
fn write(
    meta: RunMeta,
    config: &SweepConfig,
    outcome: Json,
    sweep: Json,
    sat: Json,
    stats: &SweepStats,
    obs: &Observer,
) -> RunReport {
    let mut run = RunReport::new(meta.command, meta.argv, &meta.design);
    run.push("config", config_json(config));
    run.push("outcome", outcome);
    let phases = Phase::ALL.iter().filter_map(|&phase| {
        let (wall, cpu) = (obs.recorder.wall(phase), obs.recorder.cpu(phase));
        (!wall.is_zero() || !cpu.is_zero()).then(|| {
            let mut row = Json::obj();
            row.push("name", Json::Str(phase.name().to_string()));
            row.push("wall_ms", Json::F64(ms(wall)));
            row.push("cpu_ms", Json::F64(ms(cpu)));
            row
        })
    });
    run.push("phases", Json::Arr(phases.collect()));
    let iterations = stats.history.iter().map(|r| {
        let mut row = counts(&[
            ("iteration", r.iteration as u64),
            ("cost", r.cost),
            ("vectors", r.vectors as u64),
        ]);
        row.push("gen_ms", Json::F64(ms(r.gen_time)));
        row.push("sim_ms", Json::F64(ms(r.sim_time)));
        row
    });
    run.push("iterations", Json::Arr(iterations.collect()));
    run.push("sweep", sweep);
    run.push("sat", sat);
    if let Some(dispatch) = &stats.dispatch {
        run.push("dispatch", dispatch_json(dispatch));
    }
    if let Some(kernel) = &stats.kernel {
        let (exec, pool) = (&stats.exec, &stats.pool);
        let mut sim = Json::obj();
        sim.push(
            "kernel",
            counts(&[
                ("nodes", kernel.nodes),
                ("fused", kernel.fused),
                ("tape_nodes", kernel.tape_nodes),
                ("tape_ops", kernel.tape_ops),
            ]),
        );
        let simd_width_bits = simgen_sim::active_simd_level().width_bits() as u64;
        for (key, n) in [
            ("exec_calls", exec.exec_calls),
            ("exec_words", exec.exec_words),
            ("exec_patterns", exec.exec_patterns),
            ("cone_exec_calls", exec.cone_exec_calls),
            ("scalar_pushes", exec.scalar_pushes),
            ("simd_width_bits", simd_width_bits),
            ("pool_lane_bytes", pool.lane_bytes),
        ] {
            sim.push(key, Json::U64(n));
        }
        run.push("sim", sim);
    }
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name(), obs.recorder.get(c)));
    run.push("counters", counts(&counters.collect::<Vec<_>>()));
    if obs.trace.is_enabled() {
        let (emitted, dropped) = (obs.trace.emitted(), obs.trace.dropped());
        run.push(
            "trace",
            counts(&[("emitted", emitted), ("dropped", dropped)]),
        );
    }
    run
}

/// Builds the run report for a standalone sweep.
pub fn sweep_run_report(
    meta: RunMeta,
    config: &SweepConfig,
    report: &SweepReport,
    obs: &Observer,
) -> RunReport {
    let stats = &report.stats;
    let unresolved = report.unresolved.len() as u64;
    let outcome = if report.interrupted {
        let detail = vec![("unresolved", Json::U64(unresolved))];
        outcome_json("interrupted", 2, true, detail, stats.certification_failures)
    } else {
        outcome_json("complete", 0, false, vec![], stats.certification_failures)
    };
    let sweep = sweep_json(
        stats,
        report.cost_after_sim,
        unresolved,
        report.quarantined.len() as u64,
        report.proven_classes.len() as u64,
        report.patterns.num_patterns() as u64,
    );
    let sat = sat_json(stats, Default::default());
    write(meta, config, outcome, sweep, sat, stats, obs)
}

/// Builds the run report for a full two-network CEC run. The `sat`
/// section sums the sweep's internal-proof solver totals with the
/// output-proof prover's.
pub fn cec_run_report(
    meta: RunMeta,
    config: &SweepConfig,
    report: &CecReport,
    obs: &Observer,
) -> RunReport {
    let stats = &report.sweep_stats;
    let failures = stats.certification_failures;
    let outcome = match &report.verdict {
        CecVerdict::Equivalent => outcome_json("equivalent", 0, false, vec![], failures),
        // A replayed counterexample is definitive, so certification
        // failures elsewhere in the run do not override exit 1.
        CecVerdict::NotEquivalent { po_index, .. } => {
            let detail = vec![("po_index", Json::U64(*po_index as u64))];
            outcome_json("not_equivalent", 1, false, detail, 0)
        }
        CecVerdict::Inconclusive {
            unresolved_pairs,
            reason,
        } => {
            let interrupted = matches!(
                reason,
                InconclusiveReason::DeadlineExpired | InconclusiveReason::ResourceExhausted
            );
            let detail = vec![
                ("reason", Json::Str(reason.name().to_string())),
                ("unresolved", Json::U64(unresolved_pairs.len() as u64)),
            ];
            outcome_json("inconclusive", 2, interrupted, detail, failures)
        }
    };
    let sweep = sweep_json(
        stats,
        report.sweep_cost_after_sim,
        report.sweep_unresolved,
        report.sweep_quarantined,
        report.sweep_proven_classes,
        report.sweep_patterns,
    );
    let output = (
        report.output_sat_calls,
        report.output_solver,
        report.output_sat_time,
    );
    let sat = sat_json(stats, output);
    write(meta, config, outcome, sweep, sat, stats, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::check_equivalence;
    use crate::sweep::RunContext;
    use crate::Sweeper;
    use simgen_core::{SimGen, SimGenConfig};
    use simgen_dispatch::EnginePolicy;
    use simgen_netlist::TruthTable;

    fn tiny_net() -> LutNetwork {
        let mut net = LutNetwork::with_name("tiny");
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let x = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        let y = net.add_lut(vec![b, a], TruthTable::and2()).unwrap();
        net.add_po(x, "x");
        net.add_po(y, "y");
        net
    }

    /// The value at `path` in a report.
    fn lookup<'j>(report: &'j Json, path: &[&str]) -> &'j Json {
        path.iter().fold(report, |node, key| {
            node.get(key)
                .unwrap_or_else(|| panic!("report has no {path:?}"))
        })
    }

    fn meta_for(net: &LutNetwork, command: &str) -> RunMeta {
        RunMeta {
            command: command.to_string(),
            argv: vec![command.to_string(), "tiny.blif".to_string()],
            design: design_info(net, "tiny", "tiny.blif"),
        }
    }

    #[test]
    fn sweep_report_is_schema_valid() {
        let net = tiny_net();
        let cfg = SweepConfig {
            guided_iterations: 2,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            obs: Observer::enabled(),
            ..RunContext::default()
        };
        let sweep = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
        let report = sweep_run_report(meta_for(&net, "sweep"), &cfg, &sweep, &ctx.obs).to_json();
        RunReport::validate(&report).expect("sweep report validates");
        assert_eq!(
            lookup(&report, &["outcome", "status"]).as_str(),
            Some("complete")
        );
        assert!(
            !report.get("phases").unwrap().items().unwrap().is_empty(),
            "enabled observer records phases"
        );
        assert!(lookup(&report, &["dispatch", "totals", "proofs"]).as_u64() > Some(0));
    }

    #[test]
    fn disabled_observer_still_yields_valid_report() {
        let net = tiny_net();
        let cfg = SweepConfig {
            guided_iterations: 2,
            jobs: 2,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext::default();
        let sweep = Sweeper::new(cfg).run(&net, &mut gen, &mut ctx);
        let report = sweep_run_report(meta_for(&net, "sweep"), &cfg, &sweep, &ctx.obs).to_json();
        RunReport::validate(&report).expect("report validates without recording");
        // A disabled recorder never reads the clock, so no phases.
        assert!(report.get("phases").unwrap().items().unwrap().is_empty());
        // But engine-side stats (kernel shape, sweep totals) are
        // always collected.
        assert!(report.get("sim").is_some());
        assert_eq!(lookup(&report, &["dispatch", "jobs"]).as_u64(), Some(2));
    }

    #[test]
    fn cec_report_maps_verdict_to_exit_code() {
        let net = tiny_net();
        let cfg = SweepConfig {
            guided_iterations: 1,
            ..SweepConfig::default()
        };
        let mut gen = SimGen::new(SimGenConfig::default());
        let mut ctx = RunContext {
            obs: Observer::enabled(),
            ..RunContext::default()
        };
        let cec = check_equivalence(&net, &net.clone(), &mut gen, cfg, &mut ctx).unwrap();
        let report = cec_run_report(meta_for(&net, "cec"), &cfg, &cec, &ctx.obs).to_json();
        RunReport::validate(&report).expect("cec report validates");
        assert_eq!(
            lookup(&report, &["outcome", "status"]).as_str(),
            Some("equivalent")
        );
        assert_eq!(lookup(&report, &["outcome", "exit_code"]).as_u64(), Some(0));
        // The sat section folds the output proofs in on top of the
        // sweep's internal proofs.
        assert!(lookup(&report, &["sat", "calls"]).as_u64() >= Some(cec.output_sat_calls));
    }

    #[test]
    fn config_json_covers_every_field() {
        let config = config_json(&SweepConfig::default());
        let keys: Vec<&str> = config
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "random_batch",
                "guided_iterations",
                "sat_budget",
                "run_sat",
                "seed",
                "jobs",
                "bdd_node_limit",
                "stall",
                "certify",
                "engine_mode",
                "incremental",
                "rebuild_bloat",
                "mem_budget",
            ]
        );
    }

    #[test]
    fn node_limit_is_always_written() {
        let custom = SweepConfig {
            engine: EnginePolicy {
                bdd_node_limit: 2_000_000,
                ..Default::default()
            },
            ..SweepConfig::default()
        };
        let limit = |cfg: &SweepConfig| config_json(cfg).get("bdd_node_limit").cloned();
        assert_eq!(limit(&SweepConfig::default()), Some(Json::U64(10_000)));
        assert_eq!(limit(&custom), Some(Json::U64(2_000_000)));
        let net = LutNetwork::new();
        assert_ne!(
            crate::journal::sweep_fingerprint(&net, &custom),
            crate::journal::sweep_fingerprint(&net, &SweepConfig::default())
        );
    }

    #[test]
    fn dispatch_totals_come_from_merge_side_fields() {
        // Totals are the summary's own (merge-accumulated) fields,
        // never re-derived from the rows.
        let summary = DispatchSummary {
            jobs: 3,
            rounds: 2,
            proofs: 12,
            workers: (0..3)
                .map(|w| crate::stats::WorkerSummary {
                    worker: w,
                    // Row 0 disagrees with the totals.
                    proofs: if w == 0 { 0 } else { 4 },
                    ..Default::default()
                })
                .collect(),
            ..DispatchSummary::default()
        };
        let totals = dispatch_json(&summary);
        let totals = totals.get("totals").unwrap();
        assert_eq!(totals.get("proofs").unwrap().as_u64(), Some(12));
    }
}
