//! The versioned `RunReport` document: one JSON file per run unifying
//! sweep, SAT, dispatch, simulation, and iteration statistics.
//!
//! Schema id: [`RunReport::SCHEMA`] (`"simgen-run-report/5"`; version
//! 2 added the proof-cache and service counters, version 4 the
//! incremental-SAT scope counters, version 5 the resource-governance
//! counters — shed/OOM-cancel/breaker/watchdog — and the
//! `mem_budget`/`stall` config keys). The
//! field-by-field specification lives in `docs/observability.md`; this
//! module is the single source of truth for serialization
//! ([`RunReport::to_json`]), for the deterministic comparison form
//! ([`RunReport::deterministic_json`]), and for structural validation
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
//!   `steals` counts, the `argv` echo (it contains `--jobs`), and the
//!   `trace` summary (event retention depends on interleaving).
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

/// How the run ended.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// `"complete"`, `"interrupted"`, `"equivalent"`,
    /// `"not_equivalent"`, or `"inconclusive"`.
    pub status: String,
    /// The process exit code the CLI maps this outcome to (0/1/2, or
    /// 3 when certification rejected an engine answer).
    pub exit_code: u64,
    /// True when a deadline or stall trip cut the run short.
    pub interrupted: bool,
    /// Outcome-specific extras (e.g. `reason` for inconclusive runs).
    pub detail: Vec<(String, Json)>,
}

/// Wall/CPU attribution for one phase.
#[derive(Clone, Debug)]
pub struct PhaseTiming {
    /// Phase path, e.g. `"sweep;sat"` (see `recorder::Phase`).
    pub name: String,
    /// Elapsed wall time in milliseconds.
    pub wall_ms: f64,
    /// Summed worker busy time in milliseconds.
    pub cpu_ms: f64,
}

/// One guided-generation iteration (SimGen's per-iteration cost curve).
#[derive(Clone, Debug)]
pub struct IterationRow {
    /// Iteration index (0-based).
    pub iteration: u64,
    /// Remaining candidate-equivalence cost after this iteration.
    pub cost: u64,
    /// Guided vectors generated this iteration.
    pub vectors: u64,
    /// Generation time in milliseconds.
    pub gen_ms: f64,
    /// Simulation time in milliseconds.
    pub sim_ms: f64,
}

/// Sweep-level outcome totals.
#[derive(Clone, Debug, Default)]
pub struct SweepSection {
    /// Candidate cost left after the simulation phases.
    pub cost_after_sim: u64,
    /// Pairs proved equivalent by the proof engine.
    pub proved_equivalent: u64,
    /// Pairs disproved by counterexamples.
    pub disproved: u64,
    /// Pairs aborted (budget exhausted, undecided).
    pub aborted: u64,
    /// Pairs left unresolved at the end of the run.
    pub unresolved: u64,
    /// Pairs quarantined after prover panics.
    pub quarantined: u64,
    /// Equivalence classes fully proven.
    pub proven_classes: u64,
    /// Total simulation patterns accumulated.
    pub patterns: u64,
}

/// Aggregated CDCL solver totals (deterministic across `--jobs`).
#[derive(Clone, Debug, Default)]
pub struct SatSection {
    /// Prover invocations (SAT or BDD engine calls).
    pub calls: u64,
    /// CDCL solve() entries.
    pub solves: u64,
    /// Decisions.
    pub decisions: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Conflicts.
    pub conflicts: u64,
    /// Restarts.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Learned clauses removed by reduction.
    pub removed: u64,
    /// Clauses recorded into DRAT proof logs (zero unless proof
    /// logging was on).
    pub proof_clauses: u64,
    /// Bytes of DRAT proof text those clauses amount to.
    pub proof_bytes: u64,
    /// Estimated clause-database bytes live at the end of the run,
    /// summed over every solver — the figure the memory governor
    /// compares against `--mem-budget`. Engine-dependent (warm
    /// solvers retain learnt clauses cold ones never build).
    pub clause_db_bytes: u64,
    /// Total wall time inside provers, milliseconds.
    pub wall_ms: f64,
}

/// One worker's row in the dispatch section: the share of the totals
/// produced by the pairs this worker ran. Which worker ran which pair
/// depends on scheduling, so the rows are stripped from the
/// deterministic form.
#[derive(Clone, Debug, Default)]
pub struct WorkerRow {
    /// Worker index.
    pub worker: u64,
    /// Pair proofs completed.
    pub proofs: u64,
    /// Conflicts spent in aborted (budget-limited) attempts.
    pub conflicts: u64,
    /// Pairs left undecided by their proof attempt.
    pub timeouts: u64,
    /// Jobs stolen from other workers.
    pub steals: u64,
    /// Pair proofs that panicked.
    pub panics: u64,
}

/// Parallel-dispatch totals plus the per-worker breakdown.
///
/// The totals are the section's own fields, accumulated merge-side
/// from per-pair results in pair order, so they are deterministic for
/// any worker count. The rows split the same results by worker, so
/// every column but `steals` sums to its total; steals have no
/// deterministic counterpart, and their total is the row sum.
#[derive(Clone, Debug, Default)]
pub struct DispatchSection {
    /// Worker count the run used.
    pub jobs: u64,
    /// Dispatch rounds executed.
    pub rounds: u64,
    /// Pairs quarantined.
    pub quarantined: u64,
    /// Proof jobs that ran to completion.
    pub proofs: u64,
    /// Conflicts spent in aborted (budget-limited) attempts.
    pub conflicts: u64,
    /// Pairs left undecided by their proof attempt.
    pub timeouts: u64,
    /// Steps that panicked (each quarantined its pair).
    pub panics: u64,
    /// Per-worker rows (stripped from the deterministic form).
    pub workers: Vec<WorkerRow>,
}

/// Compiled-kernel shape and execution totals.
#[derive(Clone, Debug, Default)]
pub struct SimSection {
    /// Nodes in the compiled kernel.
    pub kernel_nodes: u64,
    /// Nodes lowered to fused opcodes.
    pub kernel_fused: u64,
    /// Nodes lowered to Shannon tapes.
    pub kernel_tape_nodes: u64,
    /// Total tape ops.
    pub kernel_tape_ops: u64,
    /// Kernel block executions.
    pub exec_calls: u64,
    /// Lane-words computed.
    pub exec_words: u64,
    /// Patterns appended across block executions.
    pub exec_patterns: u64,
    /// Cone-restricted executions among `exec_calls`.
    pub cone_exec_calls: u64,
    /// Scalar single-pattern pushes.
    pub scalar_pushes: u64,
    /// Active SIMD width in bits (64/256/512). Host-dependent, so it
    /// lives under the stripped scheduling keys.
    pub simd_width_bits: u64,
    /// Worker-pool dispatches by `simulate_lanes` (scheduling-
    /// dependent: varies with `--jobs`; stripped).
    pub pool_dispatches: u64,
    /// Worker tasks enqueued by those dispatches (stripped).
    pub pool_tasks: u64,
    /// Peak lane-table bytes one simulation call allocated (word
    /// counts pad to the active SIMD width, so stripped).
    pub pool_lane_bytes: u64,
}

/// Trace-ring summary (scheduling-dependent; diagnostics only).
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Events emitted over the run.
    pub emitted: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
}

/// The unified, versioned run report.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Subcommand that produced the report (`"sweep"` or `"cec"`).
    pub command: String,
    /// Command-line echo (stripped from the deterministic form).
    pub argv: Vec<String>,
    /// Design identity and size.
    pub design: Design,
    /// Effective configuration, key by key.
    pub config: Vec<(String, Json)>,
    /// How the run ended.
    pub outcome: Outcome,
    /// Per-phase wall/CPU breakdown.
    pub phases: Vec<PhaseTiming>,
    /// Per-iteration cost curve (empty when not recorded).
    pub iterations: Vec<IterationRow>,
    /// Sweep totals.
    pub sweep: Option<SweepSection>,
    /// SAT totals.
    pub sat: Option<SatSection>,
    /// Dispatch totals (parallel runs only).
    pub dispatch: Option<DispatchSection>,
    /// Simulation kernel totals.
    pub sim: Option<SimSection>,
    /// Deterministic counters, in fixed declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Trace summary, when tracing was on.
    pub trace: Option<TraceSummary>,
}

/// Keys stripped (with their subtrees) from the deterministic form,
/// in addition to every key with an `_ms` suffix. `simd_width_bits`
/// is host-dependent and `pool_*` vary with `--jobs`, so all three
/// join the scheduling keys.
const SCHEDULING_KEYS: &[&str] = &[
    "argv",
    "jobs",
    "steals",
    "workers",
    "trace",
    "t_us",
    "simd_width_bits",
    "pool_dispatches",
    "pool_tasks",
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
/// conflict budget warm but run out of it cold. `escalations` is a
/// schema-5 key that always reads 0.
const ENGINE_DISPATCH_KEYS: &[&str] = &["conflicts", "timeouts", "escalations"];

/// Counters that describe the engine policy's own behaviour.
const ENGINE_COUNTER_KEYS: &[&str] = &[
    "proofs_escalated",
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
    /// the proof-cache counters (`cache_*`, `jobs_rejected`); version
    /// 3 added the `sim_patterns` counter, `sim.exec_patterns`, and
    /// the stripped `sim.simd_width_bits`/`sim.pool_*` diagnostics;
    /// version 4 added the incremental-SAT counters (`scopes_opened`,
    /// `clauses_reused`, `warm_solves`) and the engine-policy config
    /// keys; version 5 added the resource-governance counters
    /// (`jobs_shed`, `jobs_oom_cancelled`, `breaker_trips`,
    /// `watchdog_kills`, `solver_rebuilds`), the memory gauges
    /// (`sat.clause_db_bytes`, stripped `sim.pool_lane_bytes`), and
    /// the `mem_budget`/`rebuild_bloat` config keys.
    pub const SCHEMA: &'static str = "simgen-run-report/5";

    /// Serializes the full report.
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        root.push("schema", Json::Str(Self::SCHEMA.to_string()));
        let mut tool = Json::obj();
        tool.push("name", Json::Str("simgen".to_string()));
        tool.push("version", Json::Str(env!("CARGO_PKG_VERSION").to_string()));
        root.push("tool", tool);
        root.push("command", Json::Str(self.command.clone()));
        root.push(
            "argv",
            Json::Arr(self.argv.iter().map(|a| Json::Str(a.clone())).collect()),
        );

        let mut design = Json::obj();
        design.push("name", Json::Str(self.design.name.clone()));
        design.push("path", Json::Str(self.design.path.clone()));
        design.push("pis", Json::U64(self.design.pis));
        design.push("nodes", Json::U64(self.design.nodes));
        design.push("pos", Json::U64(self.design.pos));
        root.push("design", design);

        let mut config = Json::obj();
        for (key, value) in &self.config {
            config.push(key, value.clone());
        }
        root.push("config", config);

        let mut outcome = Json::obj();
        outcome.push("status", Json::Str(self.outcome.status.clone()));
        outcome.push("exit_code", Json::U64(self.outcome.exit_code));
        outcome.push("interrupted", Json::Bool(self.outcome.interrupted));
        for (key, value) in &self.outcome.detail {
            outcome.push(key, value.clone());
        }
        root.push("outcome", outcome);

        let phases = self
            .phases
            .iter()
            .map(|p| {
                let mut row = Json::obj();
                row.push("name", Json::Str(p.name.clone()));
                row.push("wall_ms", Json::F64(p.wall_ms));
                row.push("cpu_ms", Json::F64(p.cpu_ms));
                row
            })
            .collect();
        root.push("phases", Json::Arr(phases));

        let iterations = self
            .iterations
            .iter()
            .map(|it| {
                let mut row = Json::obj();
                row.push("iteration", Json::U64(it.iteration));
                row.push("cost", Json::U64(it.cost));
                row.push("vectors", Json::U64(it.vectors));
                row.push("gen_ms", Json::F64(it.gen_ms));
                row.push("sim_ms", Json::F64(it.sim_ms));
                row
            })
            .collect();
        root.push("iterations", Json::Arr(iterations));

        if let Some(sweep) = &self.sweep {
            let mut s = Json::obj();
            s.push("cost_after_sim", Json::U64(sweep.cost_after_sim));
            s.push("proved_equivalent", Json::U64(sweep.proved_equivalent));
            s.push("disproved", Json::U64(sweep.disproved));
            s.push("aborted", Json::U64(sweep.aborted));
            s.push("unresolved", Json::U64(sweep.unresolved));
            s.push("quarantined", Json::U64(sweep.quarantined));
            s.push("proven_classes", Json::U64(sweep.proven_classes));
            s.push("patterns", Json::U64(sweep.patterns));
            root.push("sweep", s);
        }

        if let Some(sat) = &self.sat {
            let mut s = Json::obj();
            s.push("calls", Json::U64(sat.calls));
            s.push("solves", Json::U64(sat.solves));
            s.push("decisions", Json::U64(sat.decisions));
            s.push("propagations", Json::U64(sat.propagations));
            s.push("conflicts", Json::U64(sat.conflicts));
            s.push("restarts", Json::U64(sat.restarts));
            s.push("learned", Json::U64(sat.learned));
            s.push("removed", Json::U64(sat.removed));
            s.push("proof_clauses", Json::U64(sat.proof_clauses));
            s.push("proof_bytes", Json::U64(sat.proof_bytes));
            s.push("clause_db_bytes", Json::U64(sat.clause_db_bytes));
            s.push("wall_ms", Json::F64(sat.wall_ms));
            root.push("sat", s);
        }

        if let Some(dispatch) = &self.dispatch {
            let mut d = Json::obj();
            d.push("jobs", Json::U64(dispatch.jobs));
            d.push("rounds", Json::U64(dispatch.rounds));
            d.push("quarantined", Json::U64(dispatch.quarantined));
            let mut totals = Json::obj();
            totals.push("proofs", Json::U64(dispatch.proofs));
            totals.push("conflicts", Json::U64(dispatch.conflicts));
            totals.push("timeouts", Json::U64(dispatch.timeouts));
            // A schema-5 key: each pair gets one attempt, so no pair
            // escalates.
            totals.push("escalations", Json::U64(0));
            // Steals are inherently scheduling-dependent, so the only
            // honest total is the sum of the rows; it is stripped from
            // the deterministic form along with them.
            let steals = dispatch.workers.iter().map(|w| w.steals).sum::<u64>();
            totals.push("steals", Json::U64(steals));
            totals.push("panics", Json::U64(dispatch.panics));
            d.push("totals", totals);
            let workers = dispatch
                .workers
                .iter()
                .map(|w| {
                    let mut row = Json::obj();
                    row.push("worker", Json::U64(w.worker));
                    row.push("proofs", Json::U64(w.proofs));
                    row.push("conflicts", Json::U64(w.conflicts));
                    row.push("timeouts", Json::U64(w.timeouts));
                    row.push("escalations", Json::U64(0));
                    row.push("steals", Json::U64(w.steals));
                    row.push("panics", Json::U64(w.panics));
                    row
                })
                .collect();
            d.push("workers", Json::Arr(workers));
            root.push("dispatch", d);
        }

        if let Some(sim) = &self.sim {
            let mut s = Json::obj();
            let mut kernel = Json::obj();
            kernel.push("nodes", Json::U64(sim.kernel_nodes));
            kernel.push("fused", Json::U64(sim.kernel_fused));
            kernel.push("tape_nodes", Json::U64(sim.kernel_tape_nodes));
            kernel.push("tape_ops", Json::U64(sim.kernel_tape_ops));
            s.push("kernel", kernel);
            s.push("exec_calls", Json::U64(sim.exec_calls));
            s.push("exec_words", Json::U64(sim.exec_words));
            s.push("exec_patterns", Json::U64(sim.exec_patterns));
            s.push("cone_exec_calls", Json::U64(sim.cone_exec_calls));
            s.push("scalar_pushes", Json::U64(sim.scalar_pushes));
            s.push("simd_width_bits", Json::U64(sim.simd_width_bits));
            s.push("pool_dispatches", Json::U64(sim.pool_dispatches));
            s.push("pool_tasks", Json::U64(sim.pool_tasks));
            s.push("pool_lane_bytes", Json::U64(sim.pool_lane_bytes));
            root.push("sim", s);
        }

        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters.push(name, Json::U64(*value));
        }
        root.push("counters", counters);

        if let Some(trace) = &self.trace {
            let mut t = Json::obj();
            t.push("emitted", Json::U64(trace.emitted));
            t.push("dropped", Json::U64(trace.dropped));
            root.push("trace", t);
        }

        root
    }

    /// The full report in the canonical pretty format.
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// The report with timing and scheduling-dependent fields
    /// stripped, serialized. Byte-identical across `--jobs` for the
    /// same workload — the string the determinism tests compare.
    pub fn deterministic_json(&self) -> String {
        let mut json = self.to_json();
        strip_nondeterministic(&mut json);
        json.to_pretty()
    }

    /// Structurally validates a parsed report against schema version 1.
    /// Accepts both the full and the deterministic form (stripped
    /// fields are optional; present fields must have the right type).
    /// Returns every problem found, not just the first.
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
                    for key in ["proofs", "conflicts", "timeouts", "escalations", "panics"] {
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
            for key in [
                "simd_width_bits",
                "pool_dispatches",
                "pool_tasks",
                "pool_lane_bytes",
            ] {
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
    use crate::recorder::Counter;

    fn sample_report(jobs: u64) -> RunReport {
        RunReport {
            command: "sweep".to_string(),
            argv: vec![
                "sweep".into(),
                "x.blif".into(),
                "--jobs".into(),
                jobs.to_string(),
            ],
            design: Design {
                name: "x".into(),
                path: "x.blif".into(),
                pis: 8,
                nodes: 40,
                pos: 4,
            },
            config: vec![
                ("strategy".to_string(), Json::Str("simgen".into())),
                ("jobs".to_string(), Json::U64(jobs)),
                ("seed".to_string(), Json::U64(7)),
            ],
            outcome: Outcome {
                status: "complete".into(),
                exit_code: 0,
                interrupted: false,
                detail: vec![],
            },
            phases: vec![PhaseTiming {
                name: "sweep;sat".into(),
                wall_ms: 12.5 * jobs as f64,
                cpu_ms: 13.0,
            }],
            iterations: vec![IterationRow {
                iteration: 0,
                cost: 10,
                vectors: 64,
                gen_ms: 0.5,
                sim_ms: 0.25,
            }],
            sweep: Some(SweepSection {
                cost_after_sim: 10,
                proved_equivalent: 9,
                disproved: 1,
                ..SweepSection::default()
            }),
            sat: Some(SatSection {
                calls: 10,
                conflicts: 123,
                ..SatSection::default()
            }),
            dispatch: Some(DispatchSection {
                jobs,
                rounds: 2,
                quarantined: 0,
                proofs: 12,
                // The same 12 proofs split across however many
                // workers ran — totals stay invariant, steals don't.
                workers: (0..jobs)
                    .map(|w| WorkerRow {
                        worker: w,
                        proofs: 12 / jobs,
                        steals: w,
                        ..WorkerRow::default()
                    })
                    .collect(),
                ..DispatchSection::default()
            }),
            sim: Some(SimSection {
                kernel_nodes: 40,
                exec_calls: 6,
                exec_patterns: 384,
                simd_width_bits: 256,
                // Scheduling-dependent: the parallel path engages a
                // different number of times per --jobs value, and lane
                // padding follows the host SIMD width.
                pool_dispatches: jobs,
                pool_tasks: jobs * 3,
                pool_lane_bytes: 4096 * jobs,
                ..SimSection::default()
            }),
            counters: vec![(Counter::ProofsDispatched.name(), 10)],
            trace: Some(TraceSummary {
                emitted: 99 * jobs,
                dropped: 0,
            }),
        }
    }

    #[test]
    fn full_report_validates() {
        let json = sample_report(2).to_json();
        RunReport::validate(&json).expect("sample report is schema-valid");
    }

    #[test]
    fn deterministic_form_validates_and_ignores_jobs() {
        let one = sample_report(1);
        let four = sample_report(4);
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
        assert!(!text.contains("\"pool_dispatches\""));
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
        let make = |warm: bool| {
            let mut report = sample_report(2);
            report
                .config
                .push(("engine_mode".to_string(), Json::Str("default".into())));
            report
                .config
                .push(("incremental".to_string(), Json::Bool(warm)));
            if let Some(sat) = report.sat.as_mut() {
                sat.conflicts = if warm { 17 } else { 123 };
                sat.solves = if warm { 11 } else { 29 };
                // A warm solver retains learnt clauses a cold one
                // never accumulates.
                sat.clause_db_bytes = if warm { 9000 } else { 400 };
            }
            if let Some(d) = report.dispatch.as_mut() {
                d.conflicts = if warm { 0 } else { 40 };
            }
            report.counters = vec![
                (Counter::ProofsDispatched.name(), 10),
                (Counter::ProofsEscalated.name(), if warm { 0 } else { 2 }),
                (Counter::ScopesOpened.name(), if warm { 10 } else { 0 }),
                (Counter::ClausesReused.name(), if warm { 57 } else { 0 }),
                (Counter::WarmSolves.name(), if warm { 9 } else { 0 }),
            ];
            report
        };
        let (warm, cold) = (make(true), make(false));
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
        assert!(text.contains("\"proofs_dispatched\""));
        assert!(text.contains("\"proved_equivalent\""));
        assert!(!text.contains("\"conflicts\""));
        assert!(!text.contains("\"escalations\""));
        assert!(!text.contains("\"warm_solves\""));
        assert!(!text.contains("\"engine_mode\""));
        assert!(!text.contains("\"clause_db_bytes\""));
    }

    #[test]
    fn dispatch_totals_come_from_merge_side_fields() {
        // Totals are the section's own (merge-accumulated) fields,
        // never re-derived from the rows. Steals stay a row sum: they
        // have no deterministic counterpart.
        let mut report = sample_report(3);
        if let Some(d) = report.dispatch.as_mut() {
            d.workers[0].proofs = 0; // a row that disagrees with the totals
        }
        let json = report.to_json();
        let totals = json.get("dispatch").unwrap().get("totals").unwrap();
        assert_eq!(totals.get("proofs").unwrap().as_u64(), Some(12));
        assert_eq!(totals.get("steals").unwrap().as_u64(), Some(3));
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
        let mut json = sample_report(1).to_json();
        // Corrupt a counter to a string.
        if let Some(counters) = json.entries().and_then(|_| json.get("counters")).cloned() {
            let mut counters = counters;
            counters.push("proofs_equivalent", Json::Str("many".into()));
            if let Json::Obj(entries) = &mut json {
                for (k, v) in entries.iter_mut() {
                    if k == "counters" {
                        *v = counters.clone();
                    }
                }
            }
        }
        let errors = RunReport::validate(&json).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("proofs_equivalent")));
    }

    #[test]
    fn round_trip_through_parser_is_lossless() {
        let text = sample_report(2).to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.to_pretty(), text);
    }
}
