//! Builders that turn a finished sweep or CEC run plus its
//! [`Observer`] into the versioned [`RunReport`] document
//! (`simgen-run-report/5`).
//!
//! The report shape is defined in `simgen-obs` (`docs/observability.md`
//! spells it out field by field); this module owns the mapping from
//! the engine's native statistics ([`SweepStats`], [`CecReport`],
//! dispatch summaries, kernel counters) into that shape. Everything
//! the builders copy out of `stats` is `--jobs`-invariant, so the
//! deterministic form of the produced report is byte-identical for
//! any worker count.

use simgen_dispatch::{EngineMode, EnginePolicy};
use simgen_netlist::LutNetwork;
use simgen_obs::report::{
    Design, DispatchSection, IterationRow, Outcome, PhaseTiming, RunReport, SatSection, SimSection,
    SweepSection, TraceSummary, WorkerRow,
};
use simgen_obs::{Counter, Json, Observer, Phase};

use crate::flow::{CecReport, CecVerdict, InconclusiveReason};
use crate::stats::SweepStats;
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

/// Serializes a [`SweepConfig`] into report `config` entries. Only
/// `stall` is a duration, and it is configuration, not measurement, so
/// it is written as a plain millisecond number (no `_ms` suffix: the
/// suffix is reserved for measured times the deterministic form must
/// strip).
pub fn sweep_config_json(cfg: &SweepConfig) -> Vec<(String, Json)> {
    let mut entries = vec![
        (
            "random_rounds".to_string(),
            Json::U64(cfg.random_rounds as u64),
        ),
        (
            "random_batch".to_string(),
            Json::U64(cfg.random_batch as u64),
        ),
        (
            "guided_iterations".to_string(),
            Json::U64(cfg.guided_iterations as u64),
        ),
        (
            "sat_budget".to_string(),
            cfg.sat_budget.map_or(Json::Null, Json::U64),
        ),
        ("run_sat".to_string(), Json::Bool(cfg.run_sat)),
        // The resolution engine family, derived from the engine mode
        // (kept as its own key so reports stay comparable across
        // schema-5 builds).
        (
            "proof".to_string(),
            Json::Str(
                if cfg.engine.mode == EngineMode::BddOnly {
                    "bdd"
                } else {
                    "sat"
                }
                .to_string(),
            ),
        ),
        ("seed".to_string(), Json::U64(cfg.seed)),
        ("jobs".to_string(), Json::U64(cfg.jobs as u64)),
    ];
    let node_limit = echoed_node_limit(cfg).map_or(Json::Null, |limit| {
        let mut obj = Json::obj();
        obj.push("bdd_node_limit", Json::U64(limit as u64));
        obj
    });
    entries.push(("budget_schedule".to_string(), node_limit));
    entries.push((
        "stall".to_string(),
        cfg.stall
            .map_or(Json::Null, |d| Json::F64(d.as_secs_f64() * 1e3)),
    ));
    entries.push(("certify".to_string(), Json::Bool(cfg.certify)));
    entries.push((
        "engine_mode".to_string(),
        Json::Str(cfg.engine.mode.name().to_string()),
    ));
    entries.push((
        "incremental".to_string(),
        Json::Bool(cfg.engine.incremental),
    ));
    entries.push((
        "rebuild_bloat".to_string(),
        Json::U64(u64::from(cfg.engine.rebuild_bloat)),
    ));
    entries.push((
        "mem_budget".to_string(),
        cfg.mem_budget.map_or(Json::Null, Json::U64),
    ));
    entries
}

/// The BDD node limit that the schema-5 `budget_schedule` config key
/// and the journal fingerprint echo: `None` at the default limit, the
/// only one a CLI or daemon run can have, so those runs write what
/// earlier builds wrote.
pub(crate) fn echoed_node_limit(cfg: &SweepConfig) -> Option<usize> {
    let limit = cfg.engine.bdd_node_limit;
    (limit != EnginePolicy::default().bdd_node_limit).then_some(limit)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn phase_rows(obs: &Observer) -> Vec<PhaseTiming> {
    Phase::ALL
        .iter()
        .filter_map(|&phase| {
            let wall = obs.recorder.wall(phase);
            let cpu = obs.recorder.cpu(phase);
            (!wall.is_zero() || !cpu.is_zero()).then(|| PhaseTiming {
                name: phase.name().to_string(),
                wall_ms: ms(wall),
                cpu_ms: ms(cpu),
            })
        })
        .collect()
}

fn counter_rows(obs: &Observer) -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .map(|&c| (c.name(), obs.recorder.get(c)))
        .collect()
}

fn iteration_rows(stats: &SweepStats) -> Vec<IterationRow> {
    stats
        .history
        .iter()
        .map(|r| IterationRow {
            iteration: r.iteration as u64,
            cost: r.cost,
            vectors: r.vectors as u64,
            gen_ms: ms(r.gen_time),
            sim_ms: ms(r.sim_time),
        })
        .collect()
}

fn sat_section(stats: &SweepStats, extra: Option<&simgen_sat::SolverStats>) -> SatSection {
    let mut solver = stats.solver;
    if let Some(extra) = extra {
        solver += *extra;
    }
    SatSection {
        calls: stats.sat_calls,
        solves: solver.solves,
        decisions: solver.decisions,
        propagations: solver.propagations,
        conflicts: solver.conflicts,
        restarts: solver.restarts,
        learned: solver.learned,
        removed: solver.removed,
        proof_clauses: solver.proof_clauses,
        proof_bytes: solver.proof_bytes,
        clause_db_bytes: solver.clause_db_bytes,
        wall_ms: ms(stats.sat_time),
    }
}

fn dispatch_section(stats: &SweepStats) -> Option<DispatchSection> {
    stats.dispatch.as_ref().map(|d| DispatchSection {
        jobs: d.jobs as u64,
        rounds: d.rounds,
        quarantined: d.quarantined,
        proofs: d.proofs,
        conflicts: d.conflicts,
        timeouts: d.timeouts,
        panics: d.panics,
        workers: d
            .workers
            .iter()
            .map(|w| WorkerRow {
                worker: w.worker as u64,
                proofs: w.proofs,
                conflicts: w.conflicts,
                timeouts: w.timeouts,
                steals: w.steals,
                panics: w.panics,
            })
            .collect(),
    })
}

fn sim_section(stats: &SweepStats) -> Option<SimSection> {
    stats.kernel.as_ref().map(|kernel| SimSection {
        kernel_nodes: kernel.nodes,
        kernel_fused: kernel.fused,
        kernel_tape_nodes: kernel.tape_nodes,
        kernel_tape_ops: kernel.tape_ops,
        exec_calls: stats.exec.exec_calls,
        exec_words: stats.exec.exec_words,
        exec_patterns: stats.exec.exec_patterns,
        cone_exec_calls: stats.exec.cone_exec_calls,
        scalar_pushes: stats.exec.scalar_pushes,
        simd_width_bits: simgen_sim::active_simd_level().width_bits() as u64,
        pool_dispatches: stats.pool.dispatches,
        pool_tasks: stats.pool.tasks,
        pool_lane_bytes: stats.pool.lane_bytes,
    })
}

fn trace_summary(obs: &Observer) -> Option<TraceSummary> {
    obs.trace.is_enabled().then(|| TraceSummary {
        emitted: obs.trace.emitted(),
        dropped: obs.trace.dropped(),
    })
}

/// Builds the run report for a standalone sweep.
pub fn sweep_run_report(
    meta: RunMeta,
    config: &SweepConfig,
    report: &SweepReport,
    obs: &Observer,
) -> RunReport {
    let stats = &report.stats;
    let mut outcome = if report.interrupted {
        Outcome {
            status: "interrupted".to_string(),
            exit_code: 2,
            interrupted: true,
            detail: vec![(
                "unresolved".to_string(),
                Json::U64(report.unresolved.len() as u64),
            )],
        }
    } else {
        Outcome {
            status: "complete".to_string(),
            exit_code: 0,
            interrupted: false,
            detail: vec![],
        }
    };
    // A failed certification outranks every other exit: it means an
    // engine produced an answer its own evidence does not support.
    if stats.certification_failures > 0 {
        outcome.exit_code = 3;
        outcome.detail.push((
            "certification_failures".to_string(),
            Json::U64(stats.certification_failures),
        ));
    }
    RunReport {
        command: meta.command,
        argv: meta.argv,
        design: meta.design,
        config: sweep_config_json(config),
        outcome,
        phases: phase_rows(obs),
        iterations: iteration_rows(stats),
        sweep: Some(SweepSection {
            cost_after_sim: report.cost_after_sim,
            proved_equivalent: stats.proved_equivalent,
            disproved: stats.disproved,
            aborted: stats.aborted,
            unresolved: report.unresolved.len() as u64,
            quarantined: report.quarantined.len() as u64,
            proven_classes: report.proven_classes.len() as u64,
            patterns: report.patterns.num_patterns() as u64,
        }),
        sat: Some(sat_section(stats, None)),
        dispatch: dispatch_section(stats),
        sim: sim_section(stats),
        counters: counter_rows(obs),
        trace: trace_summary(obs),
    }
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
    let mut outcome = match &report.verdict {
        CecVerdict::Equivalent => Outcome {
            status: "equivalent".to_string(),
            exit_code: 0,
            interrupted: false,
            detail: vec![],
        },
        CecVerdict::NotEquivalent { po_index, .. } => Outcome {
            status: "not_equivalent".to_string(),
            exit_code: 1,
            interrupted: false,
            detail: vec![("po_index".to_string(), Json::U64(*po_index as u64))],
        },
        CecVerdict::Inconclusive {
            unresolved_pairs,
            reason,
        } => Outcome {
            status: "inconclusive".to_string(),
            exit_code: 2,
            interrupted: matches!(
                reason,
                InconclusiveReason::DeadlineExpired | InconclusiveReason::ResourceExhausted
            ),
            detail: vec![
                (
                    "reason".to_string(),
                    Json::Str(
                        match reason {
                            InconclusiveReason::DeadlineExpired => "deadline_expired",
                            InconclusiveReason::BudgetExhausted => "budget_exhausted",
                            InconclusiveReason::CertificationFailed => "certification_failed",
                            InconclusiveReason::ResourceExhausted => "resource_exhausted",
                        }
                        .to_string(),
                    ),
                ),
                (
                    "unresolved".to_string(),
                    Json::U64(unresolved_pairs.len() as u64),
                ),
            ],
        },
    };
    // Certification failures force exit 3 — except for NotEquivalent,
    // whose witness was itself replay-certified and is definitive.
    if stats.certification_failures > 0
        && !matches!(report.verdict, CecVerdict::NotEquivalent { .. })
    {
        outcome.exit_code = 3;
        outcome.detail.push((
            "certification_failures".to_string(),
            Json::U64(stats.certification_failures),
        ));
    }
    let mut sat = sat_section(stats, Some(&report.output_solver));
    sat.calls += report.output_sat_calls;
    sat.wall_ms += ms(report.output_sat_time);
    RunReport {
        command: meta.command,
        argv: meta.argv,
        design: meta.design,
        config: sweep_config_json(config),
        outcome,
        phases: phase_rows(obs),
        iterations: iteration_rows(stats),
        sweep: Some(SweepSection {
            cost_after_sim: report.sweep_cost_after_sim,
            proved_equivalent: stats.proved_equivalent,
            disproved: stats.disproved,
            aborted: stats.aborted,
            unresolved: report.sweep_unresolved,
            quarantined: report.sweep_quarantined,
            proven_classes: report.sweep_proven_classes,
            patterns: report.sweep_patterns,
        }),
        sat: Some(sat),
        dispatch: dispatch_section(stats),
        sim: sim_section(stats),
        counters: counter_rows(obs),
        trace: trace_summary(obs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::check_equivalence;
    use crate::sweep::RunContext;
    use crate::Sweeper;
    use simgen_core::{SimGen, SimGenConfig};
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
        let report = sweep_run_report(meta_for(&net, "sweep"), &cfg, &sweep, &ctx.obs);
        RunReport::validate(&report.to_json()).expect("sweep report validates");
        assert_eq!(report.outcome.status, "complete");
        assert!(!report.phases.is_empty(), "enabled observer records phases");
        assert!(report
            .counters
            .iter()
            .any(|&(name, v)| name == "proofs_dispatched" && v > 0));
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
        let report = sweep_run_report(meta_for(&net, "sweep"), &cfg, &sweep, &ctx.obs);
        RunReport::validate(&report.to_json()).expect("report validates without recording");
        // A disabled recorder never reads the clock, so no phases.
        assert!(report.phases.is_empty());
        // But engine-side stats (kernel shape, sweep totals) are
        // always collected.
        assert!(report.sim.is_some());
        assert_eq!(report.dispatch.as_ref().unwrap().jobs, 2);
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
        let report = cec_run_report(meta_for(&net, "cec"), &cfg, &cec, &ctx.obs);
        RunReport::validate(&report.to_json()).expect("cec report validates");
        assert_eq!(report.outcome.status, "equivalent");
        assert_eq!(report.outcome.exit_code, 0);
        // The sat section folds the output proofs in on top of the
        // sweep's internal proofs.
        assert!(report.sat.as_ref().unwrap().calls >= cec.output_sat_calls);
    }

    #[test]
    fn config_json_covers_every_field() {
        let cfg = SweepConfig::default();
        let entries = sweep_config_json(&cfg);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "random_rounds",
                "random_batch",
                "guided_iterations",
                "sat_budget",
                "run_sat",
                "proof",
                "seed",
                "jobs",
                "budget_schedule",
                "stall",
                "certify",
                "engine_mode",
                "incremental",
                "rebuild_bloat",
                "mem_budget",
            ]
        );
        assert!(matches!(
            entries.iter().find(|(k, _)| k == "budget_schedule"),
            Some((_, Json::Null))
        ));
    }

    #[test]
    fn only_a_custom_node_limit_is_echoed() {
        let custom = SweepConfig {
            engine: EnginePolicy {
                bdd_node_limit: 2_000_000,
                ..Default::default()
            },
            ..SweepConfig::default()
        };
        let echo = |cfg: &SweepConfig| {
            let entries = sweep_config_json(cfg);
            let (_, value) = entries
                .into_iter()
                .find(|(k, _)| k == "budget_schedule")
                .expect("schema-5 key");
            value.to_line()
        };
        assert_eq!(echo(&SweepConfig::default()), "null");
        assert_eq!(echo(&custom), r#"{"bdd_node_limit":2000000}"#);
        let net = LutNetwork::new();
        assert_ne!(
            crate::journal::sweep_fingerprint(&net, &custom),
            crate::journal::sweep_fingerprint(&net, &SweepConfig::default())
        );
    }

    #[test]
    fn proof_key_follows_the_engine_mode() {
        let proof = |mode: EngineMode| {
            let cfg = SweepConfig {
                engine: EnginePolicy {
                    mode,
                    ..Default::default()
                },
                ..SweepConfig::default()
            };
            sweep_config_json(&cfg)
                .into_iter()
                .find(|(k, _)| k == "proof")
                .map(|(_, v)| v)
        };
        for mode in [EngineMode::Sat, EngineMode::BddFirst] {
            assert_eq!(proof(mode), Some(Json::Str("sat".to_string())), "{mode:?}");
        }
        assert_eq!(
            proof(EngineMode::BddOnly),
            Some(Json::Str("bdd".to_string()))
        );
    }
}
