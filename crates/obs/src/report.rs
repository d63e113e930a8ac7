//! The versioned `RunReport` document: one JSON file per run unifying
//! sweep, SAT, dispatch, simulation, and iteration statistics.
//!
//! Schema id: [`RunReport::SCHEMA`] (`"simgen-run-report/7"`). The
//! field-by-field specification lives in `docs/observability.md`. The
//! document is written once, straight from the engine's statistics, by
//! `simgen_cec::report`; this module owns its header
//! ([`RunReport::new`]), the deterministic comparison form
//! ([`RunReport::deterministic_json`]) and structural validation
//! ([`RunReport::validate`]).
//!
//! # Determinism contract
//!
//! Two kinds of fields can legitimately differ between two runs of the
//! same workload:
//!
//! * **timing** — every measured duration, and only measured
//!   durations, is named with an `_ms` suffix;
//! * **scheduling** — worker count and anything attributed to a
//!   specific worker: the `jobs` keys, per-worker `workers` arrays,
//!   the `argv` echo (it contains `--jobs`), and the `trace` summary
//!   (event retention depends on interleaving).
//!
//! [`RunReport::deterministic_json`] strips exactly those fields,
//! recursively. Everything that remains — counters, per-iteration
//! costs, SAT totals, outcomes — is required to be byte-identical for
//! any `--jobs` value, which `engine_parity` enforces.

use crate::json::Json;

/// Design (netlist) identity and size, echoed into the report.
#[derive(Clone, Debug, Default)]
pub struct Design {
    /// Short design name (file stem or workload id).
    pub name: String,
    /// Path as given on the command line (empty for in-memory nets).
    pub path: String,
    /// Primary inputs.
    pub pis: u64,
    /// Internal nodes.
    pub nodes: u64,
    /// Primary outputs.
    pub pos: u64,
}

/// The unified, versioned run report: one ordered JSON document. It
/// opens with the schema, tool and run identity ([`RunReport::new`]);
/// its writer (`simgen_cec::report`) appends the sections in order.
#[derive(Clone, Debug)]
pub struct RunReport {
    json: Json,
}

/// Keys stripped (with their subtrees) from the deterministic form,
/// in addition to every key with an `_ms` suffix. `simd_width_bits`
/// is host-dependent. `pool_lane_bytes` is not: it is
/// `order.len() × num_patterns.div_ceil(64) × 8` of the largest block
/// at every SIMD level, but it stays stripped until the report schema
/// next changes, so stripped reports keep their form.
const SCHEDULING_KEYS: &[&str] = &[
    "argv",
    "jobs",
    "workers",
    "trace",
    "t_us",
    "simd_width_bits",
    "pool_lane_bytes",
];

/// Removes timing and scheduling-dependent fields in place. Public so
/// tests can normalize full reports parsed back from disk.
pub fn strip_nondeterministic(json: &mut Json) {
    match json {
        Json::Obj(entries) => {
            entries.retain(|(key, _)| {
                !key.ends_with("_ms") && !SCHEDULING_KEYS.contains(&key.as_str())
            });
            for (_, value) in entries {
                strip_nondeterministic(value);
            }
        }
        Json::Arr(items) => {
            for item in items {
                strip_nondeterministic(item);
            }
        }
        _ => {}
    }
}

/// Solver-effort keys in the `sat` section: how hard the CDCL search
/// worked, not what it concluded. Warm incremental solvers spend fewer
/// conflicts than cold per-pair ones, so these legitimately differ
/// across engine policies while the verdicts do not.
const ENGINE_SAT_KEYS: &[&str] = &[
    "solves",
    "decisions",
    "propagations",
    "conflicts",
    "restarts",
    "learned",
    "removed",
    "proof_clauses",
    "proof_bytes",
    "clause_db_bytes",
];

/// Effort keys in `dispatch.totals`: a pair can finish within its
/// conflict budget warm but run out of it cold.
const ENGINE_DISPATCH_KEYS: &[&str] = &["conflicts", "timeouts"];

/// Counters that describe the engine policy's own behaviour.
const ENGINE_COUNTER_KEYS: &[&str] = &[
    "scopes_opened",
    "clauses_reused",
    "warm_solves",
    "solver_rebuilds",
];

/// Config keys that name the engine policy itself.
const ENGINE_CONFIG_KEYS: &[&str] = &["engine_mode", "incremental", "rebuild_bloat"];

/// Removes engine-effort fields in place, on top of
/// [`strip_nondeterministic`]. What remains — verdicts, classes,
/// prover call counts, simulation totals — is the *engine-stripped*
/// form, required to be byte-identical between incremental and cold
/// per-pair SAT solving for the same workload. (The guarantee holds
/// as long as no pair runs out of its conflict budget in one mode but
/// not the other; see `docs/solving.md`.)
pub fn strip_engine_dependent(json: &mut Json) {
    strip_nondeterministic(json);
    let Json::Obj(entries) = json else { return };
    for (key, value) in entries {
        let drop: &[&str] = match key.as_str() {
            "sat" => ENGINE_SAT_KEYS,
            "counters" => ENGINE_COUNTER_KEYS,
            "config" => ENGINE_CONFIG_KEYS,
            "dispatch" => {
                if let Json::Obj(sections) = value {
                    for (name, section) in sections.iter_mut() {
                        if name == "totals" {
                            if let Json::Obj(t) = section {
                                t.retain(|(k, _)| !ENGINE_DISPATCH_KEYS.contains(&k.as_str()));
                            }
                        }
                    }
                }
                continue;
            }
            _ => continue,
        };
        if let Json::Obj(section) = value {
            section.retain(|(k, _)| !drop.contains(&k.as_str()));
        }
    }
}

impl RunReport {
    /// Schema identifier written into every report. Version 2 added
    /// the proof-cache counters; version 3 `sim.exec_patterns` and the
    /// stripped `sim.simd_width_bits`/`sim.pool_*` diagnostics; version
    /// 4 the incremental-SAT counters and the engine-policy config
    /// keys; version 5 the resource-governance counters, the memory
    /// gauges (`sat.clause_db_bytes`, stripped `sim.pool_lane_bytes`)
    /// and the `mem_budget`/`rebuild_bloat` config keys. Version 6
    /// dropped 19 counters that repeated another key of the report or
    /// were never bumped, the `escalations` column, `config.proof` and
    /// `config.random_rounds`, and wrote `config.bdd_node_limit` in
    /// place of `config.budget_schedule`. Version 7 dropped the steal
    /// counts of `dispatch` and `sim.pool_dispatches`/`sim.pool_tasks`
    /// with the work-stealing pool, and the `proofs_dispatched` and
    /// `jobs_oom_cancelled` counters, which restated
    /// `dispatch.totals` and `outcome.reason`.
    pub const SCHEMA: &'static str = "simgen-run-report/7";

    /// Starts a report: the schema and tool header, then the command,
    /// its argument echo and the design.
    pub fn new(command: String, argv: Vec<String>, design: &Design) -> RunReport {
        let mut json = Json::obj();
        json.push("schema", Json::Str(Self::SCHEMA.to_string()));
        let mut tool = Json::obj();
        tool.push("name", Json::Str("simgen".to_string()));
        tool.push("version", Json::Str(env!("CARGO_PKG_VERSION").to_string()));
        json.push("tool", tool);
        json.push("command", Json::Str(command));
        json.push("argv", Json::Arr(argv.into_iter().map(Json::Str).collect()));
        let mut d = Json::obj();
        d.push("name", Json::Str(design.name.clone()));
        d.push("path", Json::Str(design.path.clone()));
        d.push("pis", Json::U64(design.pis));
        d.push("nodes", Json::U64(design.nodes));
        d.push("pos", Json::U64(design.pos));
        json.push("design", d);
        RunReport { json }
    }

    /// Appends a top-level section.
    pub fn push(&mut self, key: &str, value: Json) {
        self.json.push(key, value);
    }

    /// The full report.
    pub fn to_json(&self) -> Json {
        self.json.clone()
    }

    /// The full report in the canonical pretty format.
    pub fn to_pretty(&self) -> String {
        self.json.to_pretty()
    }

    /// The report with timing and scheduling-dependent fields
    /// stripped, serialized. Byte-identical across `--jobs` for the
    /// same workload — the string the determinism tests compare.
    pub fn deterministic_json(&self) -> String {
        let mut json = self.to_json();
        strip_nondeterministic(&mut json);
        json.to_pretty()
    }

    /// Structurally validates a parsed report against
    /// [`RunReport::SCHEMA`]. Accepts both the full and the
    /// deterministic form (stripped fields are optional; present fields
    /// must have the right type). Returns every problem found, not just
    /// the first.
    pub fn validate(json: &Json) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let Some(entries) = json.entries() else {
            return Err(vec!["report root is not an object".to_string()]);
        };

        match json.get("schema").and_then(Json::as_str) {
            Some(s) if s == Self::SCHEMA => {}
            Some(s) => errors.push(format!("schema is {s:?}, expected {:?}", Self::SCHEMA)),
            None => errors.push("missing string field: schema".to_string()),
        }

        const KNOWN: &[&str] = &[
            "schema",
            "tool",
            "command",
            "argv",
            "design",
            "config",
            "outcome",
            "phases",
            "iterations",
            "sweep",
            "sat",
            "dispatch",
            "sim",
            "counters",
            "trace",
        ];
        for (key, _) in entries {
            if !KNOWN.contains(&key.as_str()) {
                errors.push(format!("unknown top-level field: {key}"));
            }
        }
        for required in ["command", "design", "outcome", "phases", "counters"] {
            if json.get(required).is_none() {
                errors.push(format!("missing required field: {required}"));
            }
        }

        let expect_u64 =
            |errors: &mut Vec<String>, obj: &Json, ctx: &str, key: &str| match obj.get(key) {
                None => errors.push(format!("{ctx}: missing field {key}")),
                Some(v) if v.as_u64().is_none() => {
                    errors.push(format!("{ctx}: field {key} is not a non-negative integer"))
                }
                Some(_) => {}
            };
        let expect_num = |errors: &mut Vec<String>, obj: &Json, ctx: &str, key: &str| {
            if let Some(v) = obj.get(key) {
                if !matches!(v, Json::U64(_) | Json::I64(_) | Json::F64(_)) {
                    errors.push(format!("{ctx}: field {key} is not a number"));
                }
            }
        };

        if let Some(command) = json.get("command") {
            if command.as_str().is_none() {
                errors.push("command is not a string".to_string());
            }
        }

        if let Some(design) = json.get("design") {
            if design.entries().is_none() {
                errors.push("design is not an object".to_string());
            } else {
                if design.get("name").and_then(Json::as_str).is_none() {
                    errors.push("design: missing string field name".to_string());
                }
                for key in ["pis", "nodes", "pos"] {
                    expect_u64(&mut errors, design, "design", key);
                }
            }
        }

        if let Some(outcome) = json.get("outcome") {
            if outcome.entries().is_none() {
                errors.push("outcome is not an object".to_string());
            } else {
                if outcome.get("status").and_then(Json::as_str).is_none() {
                    errors.push("outcome: missing string field status".to_string());
                }
                expect_u64(&mut errors, outcome, "outcome", "exit_code");
                if !matches!(outcome.get("interrupted"), Some(Json::Bool(_))) {
                    errors.push("outcome: missing bool field interrupted".to_string());
                }
            }
        }

        match json.get("phases").map(|p| p.items()) {
            Some(Some(items)) => {
                for (i, phase) in items.iter().enumerate() {
                    let ctx = format!("phases[{i}]");
                    if phase.get("name").and_then(Json::as_str).is_none() {
                        errors.push(format!("{ctx}: missing string field name"));
                    }
                    expect_num(&mut errors, phase, &ctx, "wall_ms");
                    expect_num(&mut errors, phase, &ctx, "cpu_ms");
                }
            }
            Some(None) => errors.push("phases is not an array".to_string()),
            None => {}
        }

        if let Some(iterations) = json.get("iterations") {
            match iterations.items() {
                None => errors.push("iterations is not an array".to_string()),
                Some(items) => {
                    for (i, it) in items.iter().enumerate() {
                        let ctx = format!("iterations[{i}]");
                        expect_u64(&mut errors, it, &ctx, "iteration");
                        expect_u64(&mut errors, it, &ctx, "cost");
                        expect_u64(&mut errors, it, &ctx, "vectors");
                    }
                }
            }
        }

        if let Some(sweep) = json.get("sweep") {
            for key in [
                "cost_after_sim",
                "proved_equivalent",
                "disproved",
                "aborted",
                "unresolved",
                "quarantined",
                "proven_classes",
                "patterns",
            ] {
                expect_u64(&mut errors, sweep, "sweep", key);
            }
        }

        if let Some(sat) = json.get("sat") {
            for key in [
                "calls",
                "solves",
                "decisions",
                "propagations",
                "conflicts",
                "restarts",
                "learned",
                "removed",
                "proof_clauses",
                "proof_bytes",
                "clause_db_bytes",
            ] {
                expect_u64(&mut errors, sat, "sat", key);
            }
        }

        if let Some(dispatch) = json.get("dispatch") {
            expect_u64(&mut errors, dispatch, "dispatch", "rounds");
            expect_u64(&mut errors, dispatch, "dispatch", "quarantined");
            match dispatch.get("totals") {
                None => errors.push("dispatch: missing field totals".to_string()),
                Some(totals) => {
                    for key in ["proofs", "conflicts", "timeouts", "panics"] {
                        expect_u64(&mut errors, totals, "dispatch.totals", key);
                    }
                }
            }
        }

        if let Some(sim) = json.get("sim") {
            match sim.get("kernel") {
                None => errors.push("sim: missing field kernel".to_string()),
                Some(kernel) => {
                    for key in ["nodes", "fused", "tape_nodes", "tape_ops"] {
                        expect_u64(&mut errors, kernel, "sim.kernel", key);
                    }
                }
            }
            for key in [
                "exec_calls",
                "exec_words",
                "exec_patterns",
                "cone_exec_calls",
                "scalar_pushes",
            ] {
                expect_u64(&mut errors, sim, "sim", key);
            }
            // Stripped from the deterministic form, so optional; when
            // present they must be non-negative integers.
            for key in ["simd_width_bits", "pool_lane_bytes"] {
                if let Some(v) = sim.get(key) {
                    if v.as_u64().is_none() {
                        errors.push(format!("sim: field {key} is not a non-negative integer"));
                    }
                }
            }
        }

        match json.get("counters").map(|c| c.entries()) {
            Some(Some(entries)) => {
                for (key, value) in entries {
                    if value.as_u64().is_none() {
                        errors.push(format!("counters.{key} is not a non-negative integer"));
                    }
                }
            }
            Some(None) => errors.push("counters is not an object".to_string()),
            None => {}
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report laid out as its writer lays it out, from a JSON
    /// literal. `jobs` moves only timing and scheduling fields; `warm`
    /// moves only the engine-policy echo and the solver-effort fields.
    fn sample_report(jobs: u64, warm: bool) -> RunReport {
        let argv = ["sweep", "x.blif", "--jobs", &jobs.to_string()].map(String::from);
        let design = Design {
            name: "x".into(),
            path: "x.blif".into(),
            pis: 8,
            nodes: 40,
            pos: 4,
        };
        let mut report = RunReport::new("sweep".to_string(), argv.to_vec(), &design);
        // The same 12 proofs split across however many workers ran —
        // totals stay invariant, rows don't.
        let workers: Vec<String> = (0..jobs)
            .map(|w| {
                let proofs = 12 / jobs;
                format!(
                    r#"{{"worker": {w}, "proofs": {proofs}, "conflicts": 0, "timeouts": 0,
                        "panics": 0}}"#
                )
            })
            .collect();
        let workers = workers.join(", ");
        let wall = 12.5 * jobs as f64;
        // Stripped scheduling keys may differ between the two reports.
        let (lane_bytes, emitted) = (4096 * jobs, 99 * jobs);
        // A warm solver retains learnt clauses a cold one never
        // accumulates.
        let (solves, conflicts, clause_db, dispatch_conflicts) = match warm {
            true => (11, 17, 9000, 0),
            false => (29, 123, 400, 40),
        };
        let (scopes, reused, warm_solves) = match warm {
            true => (10, 57, 9),
            false => (0, 0, 0),
        };
        let body = format!(
            r#"{{
  "config": {{"strategy": "simgen", "jobs": {jobs}, "seed": 7,
              "engine_mode": "default", "incremental": {warm}}},
  "outcome": {{"status": "complete", "exit_code": 0, "interrupted": false}},
  "phases": [{{"name": "sweep;sat", "wall_ms": {wall:?}, "cpu_ms": 13.0}}],
  "iterations": [{{"iteration": 0, "cost": 10, "vectors": 64, "gen_ms": 0.5, "sim_ms": 0.25}}],
  "sweep": {{"cost_after_sim": 10, "proved_equivalent": 9, "disproved": 1, "aborted": 0,
             "unresolved": 0, "quarantined": 0, "proven_classes": 0, "patterns": 0}},
  "sat": {{"calls": 10, "solves": {solves}, "decisions": 0, "propagations": 0,
           "conflicts": {conflicts}, "restarts": 0, "learned": 0, "removed": 0,
           "proof_clauses": 0, "proof_bytes": 0, "clause_db_bytes": {clause_db}, "wall_ms": 0.0}},
  "dispatch": {{"jobs": {jobs}, "rounds": 2, "quarantined": 0,
                "totals": {{"proofs": 12, "conflicts": {dispatch_conflicts}, "timeouts": 0,
                            "panics": 0}},
                "workers": [{workers}]}},
  "sim": {{"kernel": {{"nodes": 40, "fused": 0, "tape_nodes": 0, "tape_ops": 0}},
           "exec_calls": 6, "exec_words": 0, "exec_patterns": 384, "cone_exec_calls": 0,
           "scalar_pushes": 0, "simd_width_bits": 256, "pool_lane_bytes": {lane_bytes}}},
  "counters": {{"proofs_undecided": 0, "scopes_opened": {scopes},
                "clauses_reused": {reused}, "warm_solves": {warm_solves}}},
  "trace": {{"emitted": {emitted}, "dropped": 0}}
}}"#
        );
        let body = Json::parse(&body).expect("sample report parses");
        for (key, value) in body.entries().expect("sample report is an object") {
            report.push(key, value.clone());
        }
        report
    }

    #[test]
    fn full_report_validates() {
        let json = sample_report(2, true).to_json();
        RunReport::validate(&json).expect("sample report is schema-valid");
    }

    #[test]
    fn deterministic_form_validates_and_ignores_jobs() {
        let one = sample_report(1, true);
        let four = sample_report(4, true);
        assert_ne!(one.to_pretty(), four.to_pretty());
        let det1 = one.deterministic_json();
        let det4 = four.deterministic_json();
        assert_eq!(det1, det4, "deterministic form must not depend on jobs");
        let parsed = Json::parse(&det1).unwrap();
        RunReport::validate(&parsed).expect("deterministic form is schema-valid");
        let text = det1;
        assert!(!text.contains("_ms"), "timing fields must be stripped");
        assert!(!text.contains("\"workers\""));
        assert!(!text.contains("\"argv\""));
        assert!(!text.contains("\"trace\""));
        assert!(!text.contains("\"pool_lane_bytes\""));
        assert!(!text.contains("\"simd_width_bits\""));
        assert!(
            text.contains("\"exec_patterns\""),
            "deterministic field kept"
        );
    }

    #[test]
    fn engine_stripped_form_ignores_solver_effort() {
        // Two runs of one workload under different engine policies:
        // identical verdicts, different solver effort and policy echo.
        let (warm, cold) = (sample_report(2, true), sample_report(2, false));
        assert_ne!(warm.deterministic_json(), cold.deterministic_json());
        let strip = |r: &RunReport| {
            let mut json = r.to_json();
            strip_engine_dependent(&mut json);
            json.to_pretty()
        };
        let text = strip(&warm);
        assert_eq!(text, strip(&cold), "engine-stripped forms must agree");
        // Verdict-bearing fields survive; effort fields do not.
        assert!(text.contains("\"calls\""));
        assert!(text.contains("\"proofs_undecided\""));
        assert!(text.contains("\"proved_equivalent\""));
        assert!(!text.contains("\"conflicts\""));
        assert!(!text.contains("\"warm_solves\""));
        assert!(!text.contains("\"engine_mode\""));
        assert!(!text.contains("\"clause_db_bytes\""));
    }

    #[test]
    fn validator_reports_all_problems() {
        let mut bad = Json::obj();
        bad.push("schema", Json::Str("simgen-run-report/0".into()));
        bad.push("bogus", Json::U64(1));
        let errors = RunReport::validate(&bad).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema")));
        assert!(errors.iter().any(|e| e.contains("bogus")));
        assert!(errors.iter().any(|e| e.contains("command")));
        assert!(errors.len() >= 5);
    }

    #[test]
    fn validator_catches_wrong_types() {
        let mut json = sample_report(1, true).to_json();
        // Corrupt a counter to a string.
        if let Some(counters) = json.entries().and_then(|_| json.get("counters")).cloned() {
            let mut counters = counters;
            counters.push("cache_hits", Json::Str("many".into()));
            if let Json::Obj(entries) = &mut json {
                for (k, v) in entries.iter_mut() {
                    if k == "counters" {
                        *v = counters.clone();
                    }
                }
            }
        }
        let errors = RunReport::validate(&json).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("cache_hits")));
    }

    #[test]
    fn round_trip_through_parser_is_lossless() {
        let text = sample_report(2, true).to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.to_pretty(), text);
    }
}
