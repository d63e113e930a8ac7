//! Implementation of the `simgen` command-line tool.
//!
//! All functionality lives in the library so it is unit-testable; the
//! binary is a thin wrapper. See [`run`] for the command dispatch.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use simgen_cec::{
    cec_run_report, check_equivalence, design_info, design_name, sweep_run_report, CecVerdict,
    Deadline, EngineMode, EnginePolicy, InconclusiveReason, RunContext, RunMeta, SweepConfig,
    Sweeper,
};
use simgen_core::make_strategy;
use simgen_mapping::map_to_luts;
use simgen_netlist::load::{format_of, load, Circuit, Format, LoadError};
use simgen_netlist::{aiger, bench_fmt, blif};
use simgen_obs::{Observer, RunReport};
use simgen_sat::{Cnf, SolveResult, Solver};
use simgen_workloads::{all_benchmarks, build_aig};

/// A user-facing CLI error (message only, no panic).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<LoadError> for CliError {
    fn from(e: LoadError) -> Self {
        CliError(e.to_string())
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Saves a circuit to a file, converting as required by the target
/// extension (AIGs write natively; LUT networks only to BLIF).
pub fn save(circuit: &Circuit, path: &str, k: usize) -> Result<(), CliError> {
    let f = File::create(path).map_err(|e| CliError(format!("cannot create `{path}`: {e}")))?;
    let mut w = BufWriter::new(f);
    let io = |e: std::io::Error| CliError(format!("{path}: {e}"));
    match (circuit, format_of(path)?) {
        (Circuit::Aig(aig), Format::AigBinary) => aiger::write_binary(aig, &mut w).map_err(io),
        (Circuit::Aig(aig), Format::AigAscii) => aiger::write_ascii(aig, &mut w).map_err(io),
        (Circuit::Aig(aig), Format::Bench) => bench_fmt::write(aig, &mut w).map_err(io),
        (Circuit::Aig(aig), Format::Blif) => {
            let net = map_to_luts(aig, k);
            blif::write(&net, &mut w).map_err(io)
        }
        (Circuit::Lut(net), Format::Blif) => blif::write(net, &mut w).map_err(io),
        (Circuit::Lut(_), fmt) => err(format!(
            "cannot write a LUT network as {fmt:?}; only .blif is supported"
        )),
    }
}

/// Parses `--flag value` style options out of an argument list,
/// returning (positional, flag lookup results).
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Positional (non-flag) arguments; flags listed in `value_flags`
/// consume the following token.
pub fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if a.starts_with("--") || (a.starts_with('-') && a.len() == 2 && !a.starts_with("-.")) {
            continue;
        }
        out.push(a.as_str());
    }
    out
}

const VALUE_FLAGS: [&str; 25] = [
    "-k",
    "--engine-policy",
    "--strategy",
    "--iters",
    "--seed",
    "--jobs",
    "-j",
    "--timeout",
    "--stall",
    "--stats-json",
    "--trace",
    "--fault-seed",
    "--socket",
    "--cache-dir",
    "--cache-budget",
    "--queue-limit",
    "--id",
    "--checkpoint-dir",
    "--retry",
    "--backoff",
    "--default-timeout",
    "--rebuild-bloat",
    "--priority",
    "--mem-budget",
    "--stall-horizon",
];

/// Flags that stand alone (no value token follows).
const BOOL_FLAGS: [&str; 4] = ["--profile", "--certify", "--resume", "--no-incremental"];

/// True for tokens the argument grammar treats as flags (same shape
/// test [`positionals`] uses to skip them).
fn looks_like_flag(a: &str) -> bool {
    a.starts_with("--") || (a.starts_with('-') && a.len() == 2 && !a.starts_with("-."))
}

/// Rejects flag-shaped tokens that no command understands. Without
/// this, a typo like `--time 5` would silently drop the flag and turn
/// `5` into a positional argument.
fn reject_unknown_flags(args: &[String]) -> Result<(), CliError> {
    let mut skip = false;
    for a in args {
        if skip {
            // Value of a known flag; `-1` after `--timeout` is a
            // (bad) value to validate later, not an unknown option.
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if BOOL_FLAGS.contains(&a.as_str()) {
            continue;
        }
        if looks_like_flag(a) {
            return err(format!("unknown option `{a}` (see `simgen help`)"));
        }
    }
    Ok(())
}

/// Parses a `--timeout`/`--stall` style duration given in (possibly
/// fractional) seconds. `allow_zero` lets `--timeout 0` mean "already
/// expired" — handy for forcing the degraded path deterministically.
fn parse_secs(flag: &str, value: &str, allow_zero: bool) -> Result<Duration, CliError> {
    value
        .parse::<f64>()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .filter(|d| allow_zero || !d.is_zero())
        .ok_or_else(|| {
            let need = if allow_zero {
                "non-negative"
            } else {
                "positive"
            };
            CliError(format!(
                "bad {flag} value `{value}` (need a {need} number of seconds)"
            ))
        })
}

/// Writes whichever observability outputs the command line asked for:
/// the `RunReport` JSON (`--stats-json`), the event trace as JSON
/// Lines (`--trace`), and the folded-stack phase profile on stdout
/// (`--profile`, flamegraph-ready).
fn write_observability(
    report: &RunReport,
    obs: &Observer,
    stats_json: Option<&str>,
    trace_path: Option<&str>,
    profile: bool,
) -> Result<(), CliError> {
    if let Some(path) = stats_json {
        let mut text = report.to_pretty();
        if !text.ends_with('\n') {
            text.push('\n');
        }
        // Atomic so a concurrent reader (CI, the daemon) never sees
        // a torn report.
        simgen_obs::atomic_write(path, text)
            .map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
        eprintln!("stats: wrote {path}");
    }
    if let Some(path) = trace_path {
        let f = File::create(path).map_err(|e| CliError(format!("cannot create `{path}`: {e}")))?;
        obs.trace
            .write_jsonl(BufWriter::new(f))
            .map_err(|e| CliError(format!("{path}: {e}")))?;
        eprintln!(
            "trace: wrote {path} ({} events, {} dropped)",
            obs.trace.emitted(),
            obs.trace.dropped()
        );
    }
    if profile {
        print!("{}", obs.recorder.folded());
    }
    Ok(())
}

/// Dispatches a CLI invocation. Returns the process exit code.
///
/// # Errors
///
/// Returns [`CliError`] for usage problems and I/O or parse failures.
pub fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(cmd) = args.first() else {
        print_help();
        return Ok(ExitCode::from(64));
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return Ok(ExitCode::SUCCESS);
    }
    reject_unknown_flags(rest)?;
    let k: usize = flag_value(rest, "-k")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|k| (1..=6).contains(k))
                .ok_or_else(|| CliError(format!("bad -k value `{v}` (need 1..=6)")))
        })
        .transpose()?
        .unwrap_or(6);
    let seed: u64 = flag_value(rest, "--seed")
        .map(|v| {
            v.parse()
                .map_err(|_| CliError(format!("bad --seed value `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    // `--jobs 0` auto-detects the core count; any other value is
    // taken literally.
    let jobs: usize = flag_value(rest, "--jobs")
        .or_else(|| flag_value(rest, "-j"))
        .map(|v| {
            v.parse::<usize>().ok().ok_or_else(|| {
                CliError(format!(
                    "bad --jobs value `{v}` (need a non-negative integer; 0 = auto)"
                ))
            })
        })
        .transpose()?
        .map(|j| {
            if j == 0 {
                std::thread::available_parallelism().map_or(1, usize::from)
            } else {
                j
            }
        })
        .unwrap_or(1);
    let timeout: Option<Duration> = flag_value(rest, "--timeout")
        .map(|v| parse_secs("--timeout", v, true))
        .transpose()?;
    let stall: Option<Duration> = flag_value(rest, "--stall")
        .map(|v| parse_secs("--stall", v, false))
        .transpose()?;
    let stats_json = flag_value(rest, "--stats-json");
    let trace_path = flag_value(rest, "--trace");
    let cache_budget: u64 = flag_value(rest, "--cache-budget")
        .map(|v| {
            v.parse::<u64>().ok().filter(|&b| b >= 1).ok_or_else(|| {
                CliError(format!(
                    "bad --cache-budget value `{v}` (need a positive byte count)"
                ))
            })
        })
        .transpose()?
        .unwrap_or(64 << 20);
    // `--cache-dir` points sweep/cec (and serve) at a persistent
    // content-addressed proof cache; repeated structurally identical
    // queries are answered from it (docs/serving.md).
    let proof_cache: Option<simgen_cec::ProofCache> = flag_value(rest, "--cache-dir")
        .filter(|_| cmd == "sweep" || cmd == "cec")
        .map(|dir| {
            simgen_cec::ProofCache::persistent(dir, cache_budget)
                .map_err(|e| CliError(format!("cannot open cache dir `{dir}`: {e}")))
        })
        .transpose()?;
    let profile = rest.iter().any(|a| a == "--profile");
    let certify = rest.iter().any(|a| a == "--certify");
    // `--engine-policy` picks the engine ordering per pair;
    // `--no-incremental` drops back to one cold SAT solver per pair
    // instead of the shared assumption-scoped region solvers
    // (docs/solving.md). Verdicts and engine-stripped reports are
    // identical either way; only the effort counters move.
    let engine_mode: EngineMode = flag_value(rest, "--engine-policy")
        .map(|v| {
            EngineMode::parse(v).ok_or_else(|| {
                CliError(format!(
                    "bad --engine-policy value `{v}` (expected default|bdd-first|sat-only)"
                ))
            })
        })
        .transpose()?
        .unwrap_or_default();
    // `--rebuild-bloat N` restarts a region solver whose clause
    // database outgrows N× its post-seeding footprint (0 = never).
    let rebuild_bloat: u32 = flag_value(rest, "--rebuild-bloat")
        .map(|v| {
            v.parse::<u32>().map_err(|_| {
                CliError(format!(
                    "bad --rebuild-bloat value `{v}` (need a non-negative integer multiple)"
                ))
            })
        })
        .transpose()?
        .unwrap_or(0);
    let engine = EnginePolicy {
        incremental: !rest.iter().any(|a| a == "--no-incremental"),
        mode: engine_mode,
        rebuild_bloat,
        ..EnginePolicy::default()
    };
    // `--checkpoint-dir` journals sweep rounds for crash-safe resume
    // (docs/recovery.md); `--resume` replays a journal left behind by
    // an interrupted run instead of discarding it.
    let checkpoint_dir = flag_value(rest, "--checkpoint-dir");
    let resume = rest.iter().any(|a| a == "--resume");
    if resume && checkpoint_dir.is_none() {
        return err("--resume needs --checkpoint-dir DIR (nothing to resume from)");
    }
    let mut journal: Option<simgen_cec::SweepJournal> = checkpoint_dir
        .filter(|_| cmd == "sweep" || cmd == "cec")
        .map(|dir| {
            simgen_cec::SweepJournal::create(dir, resume)
                .map_err(|e| CliError(format!("cannot open checkpoint dir `{dir}`: {e}")))
        })
        .transpose()?;
    // Validate --fault-seed eagerly, like every other flag: a bad
    // value or a build without the feature is an error, never a
    // silently ignored option.
    let fault_seed: Option<u64> = flag_value(rest, "--fault-seed")
        .map(|v| {
            v.parse().map_err(|_| {
                CliError(format!(
                    "bad --fault-seed value `{v}` (need an unsigned integer)"
                ))
            })
        })
        .transpose()?;
    #[cfg(not(feature = "fault-inject"))]
    if fault_seed.is_some() {
        return err("--fault-seed requires the fault-inject feature \
             (rebuild with --features fault-inject)");
    }
    if fault_seed.is_some() && cmd != "sweep" {
        return err("--fault-seed is only supported by `sweep`");
    }
    // Injected faults quarantine pairs nondeterministically, which a
    // resumed journal would then replay as truth — refuse the combo.
    if fault_seed.is_some() && checkpoint_dir.is_some() {
        return err("--fault-seed cannot be combined with --checkpoint-dir");
    }
    // One deadline for the whole invocation: `--timeout 0` starts
    // already expired, which degrades every proof phase immediately.
    let deadline = timeout.map(Deadline::after).unwrap_or_default();
    let pos = positionals(rest, &VALUE_FLAGS);
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
        "stats" => {
            let [path] = pos[..] else {
                return err("usage: simgen stats <file>");
            };
            match load(path)? {
                Circuit::Aig(aig) => {
                    let depth = aig.levels().into_iter().max().unwrap_or(0);
                    println!(
                        "{path}: AIG `{}` — {} PIs, {} ANDs, {} POs, depth {}",
                        aig.name(),
                        aig.num_pis(),
                        aig.num_ands(),
                        aig.num_pos(),
                        depth
                    );
                }
                Circuit::Lut(net) => {
                    println!(
                        "{path}: LUT network `{}` — {} PIs, {} LUTs, {} POs, depth {}",
                        net.name(),
                        net.num_pis(),
                        net.num_luts(),
                        net.num_pos(),
                        net.depth()
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "export" => {
            let [input, output] = pos[..] else {
                return err("usage: simgen export <in> <out.dot|out.v> [-k K]");
            };
            let net = load(input)?.into_lut(|aig| map_to_luts(aig, k));
            let f = File::create(output)
                .map_err(|e| CliError(format!("cannot create `{output}`: {e}")))?;
            let mut w = BufWriter::new(f);
            let ext = Path::new(output)
                .extension()
                .and_then(|e| e.to_str())
                .map(str::to_ascii_lowercase);
            match ext.as_deref() {
                Some("dot") => simgen_netlist::export::write_dot(&net, &mut w)
                    .map_err(|e| CliError(format!("{output}: {e}")))?,
                Some("v") => simgen_netlist::export::write_verilog(&net, &mut w)
                    .map_err(|e| CliError(format!("{output}: {e}")))?,
                other => return err(format!("export target must be .dot or .v, got {other:?}")),
            }
            println!("wrote {output}");
            Ok(ExitCode::SUCCESS)
        }
        "sat" => {
            let [path] = pos[..] else {
                return err("usage: simgen sat <file.cnf>");
            };
            let f = File::open(path).map_err(|e| CliError(format!("cannot open `{path}`: {e}")))?;
            let cnf = Cnf::read_dimacs(BufReader::new(f))
                .map_err(|e| CliError(format!("{path}: {e}")))?;
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve() {
                SolveResult::Sat => {
                    let model: Vec<String> = solver
                        .model()
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| {
                            if b {
                                format!("{}", i + 1)
                            } else {
                                format!("-{}", i + 1)
                            }
                        })
                        .collect();
                    println!("s SATISFIABLE");
                    println!("v {} 0", model.join(" "));
                    Ok(ExitCode::from(10))
                }
                SolveResult::Unsat => {
                    println!("s UNSATISFIABLE");
                    Ok(ExitCode::from(20))
                }
                SolveResult::Unknown => {
                    println!("s UNKNOWN");
                    Ok(ExitCode::from(30))
                }
            }
        }
        "convert" | "map" => {
            let [input, output] = pos[..] else {
                return err(format!("usage: simgen {cmd} <in> <out> [-k K]"));
            };
            let circuit = load(input)?;
            save(&circuit, output, k)?;
            println!("wrote {output}");
            Ok(ExitCode::SUCCESS)
        }
        "sweep" => {
            let [path] = pos[..] else {
                return err("usage: simgen sweep <file> [--strategy S] [--iters N] [-k K]");
            };
            let net = load(path)?.into_lut(|aig| map_to_luts(aig, k));
            let strategy = flag_value(rest, "--strategy").unwrap_or("simgen");
            let iters: usize = flag_value(rest, "--iters")
                .map(|v| {
                    v.parse()
                        .map_err(|_| CliError(format!("bad --iters `{v}`")))
                })
                .transpose()?
                .unwrap_or(20);
            let mut gen = make_strategy(strategy, seed)?;
            let cfg = SweepConfig {
                guided_iterations: iters,
                jobs,
                stall,
                certify,
                engine,
                ..SweepConfig::default()
            };
            // The sweeper's reports are scheduling-invariant, so
            // every --jobs value (including the default 1, which runs
            // inline without threads) prints byte-identical classes
            // and proof counts. A journaled run records counters
            // unconditionally: the round snapshots must be truthful so
            // that a later `--resume --stats-json` restores the same
            // totals an uninterrupted run would report.
            let mut ctx = RunContext {
                deadline,
                obs: Observer::with(
                    stats_json.is_some() || profile || journal.is_some(),
                    trace_path.is_some(),
                ),
                cache: proof_cache.as_ref(),
                journal: journal.as_mut(),
            };
            #[allow(unused_mut)]
            let mut sweeper = Sweeper::new(cfg);
            #[cfg(feature = "fault-inject")]
            if let Some(fseed) = fault_seed {
                sweeper = sweeper.with_fault_plan(simgen_cec::FaultPlan::from_seed(fseed));
            }
            let report = sweeper.run(&net, gen.as_mut(), &mut ctx);
            let run_report = sweep_run_report(
                RunMeta {
                    command: "sweep".to_string(),
                    argv: args.to_vec(),
                    design: design_info(&net, &design_name(path), path),
                },
                &cfg,
                &report,
                &ctx.obs,
            );
            write_observability(&run_report, &ctx.obs, stats_json, trace_path, profile)?;
            println!(
                "{path}: {} LUTs | strategy {} | jobs {jobs}",
                net.num_luts(),
                gen.name()
            );
            println!("  cost after simulation : {}", report.cost_after_sim);
            println!("  SAT calls             : {}", report.stats.sat_calls);
            println!("  SAT time              : {:?}", report.stats.sat_time);
            println!(
                "  sim phase time        : {:?}",
                report.stats.total_sim_phase()
            );
            println!(
                "  proven equivalent     : {}",
                report.stats.proved_equivalent
            );
            println!("  disproved             : {}", report.stats.disproved);
            println!("  unresolved            : {}", report.unresolved.len());
            if let Some(d) = &report.stats.dispatch {
                println!(
                    "  dispatch              : {} rounds, {} proofs, {} steals",
                    d.rounds,
                    d.total_proofs(),
                    d.total_steals()
                );
                if d.total_panics() > 0 || d.quarantined > 0 {
                    println!(
                        "  quarantined           : {} pairs ({} worker panics)",
                        d.quarantined,
                        d.total_panics()
                    );
                }
            }
            // Certification failure outranks a mere interruption:
            // an engine answer was rejected, which the caller must
            // not mistake for an ordinary timeout.
            if report.stats.certification_failures > 0 {
                println!(
                    "  CERTIFICATION FAILED: {} engine answer(s) rejected and quarantined",
                    report.stats.certification_failures
                );
                return Ok(ExitCode::from(3));
            }
            if report.interrupted {
                println!("  INTERRUPTED: deadline expired; classes above are partial");
                return Ok(ExitCode::from(2));
            }
            Ok(ExitCode::SUCCESS)
        }
        "cec" => {
            let [pa, pb] = pos[..] else {
                return err("usage: simgen cec <a> <b> [--strategy S] [-k K]");
            };
            let na = load(pa)?.into_lut(|aig| map_to_luts(aig, k));
            let nb = load(pb)?.into_lut(|aig| map_to_luts(aig, k));
            let strategy = flag_value(rest, "--strategy").unwrap_or("simgen");
            let mut gen = make_strategy(strategy, seed)?;
            let cfg = SweepConfig {
                jobs,
                stall,
                certify,
                engine,
                ..SweepConfig::default()
            };
            // See the sweep arm: journaled runs always count, so the
            // journal's counter snapshots stay truthful for resume.
            let mut ctx = RunContext {
                deadline,
                obs: Observer::with(
                    stats_json.is_some() || profile || journal.is_some(),
                    trace_path.is_some(),
                ),
                cache: proof_cache.as_ref(),
                journal: journal.as_mut(),
            };
            let report = check_equivalence(&na, &nb, gen.as_mut(), cfg, &mut ctx)
                .map_err(|e| CliError(e.to_string()))?;
            let run_report = cec_run_report(
                RunMeta {
                    command: "cec".to_string(),
                    argv: args.to_vec(),
                    design: design_info(&na, &design_name(pa), pa),
                },
                &cfg,
                &report,
                &ctx.obs,
            );
            write_observability(&run_report, &ctx.obs, stats_json, trace_path, profile)?;
            let cert_failures = report.sweep_stats.certification_failures;
            match report.verdict {
                CecVerdict::Equivalent => {
                    println!(
                        "EQUIVALENT ({} sweep SAT calls)",
                        report.sweep_stats.sat_calls
                    );
                    // An equivalence verdict built on top of rejected
                    // engine answers is not trustworthy, even though
                    // the output proofs themselves went through.
                    if cert_failures > 0 {
                        println!(
                            "CERTIFICATION FAILED: {cert_failures} engine answer(s) rejected \
                             during the sweep"
                        );
                        return Ok(ExitCode::from(3));
                    }
                    Ok(ExitCode::SUCCESS)
                }
                CecVerdict::NotEquivalent { po_index, witness } => {
                    // A counterexample is definitive: under --certify
                    // it was replayed through the reference simulator
                    // before this verdict was reached.
                    let bits: String = witness.iter().map(|&b| if b { '1' } else { '0' }).collect();
                    println!("NOT EQUIVALENT: output pair {po_index} differs on input {bits}");
                    Ok(ExitCode::from(1))
                }
                CecVerdict::Inconclusive {
                    unresolved_pairs,
                    reason,
                } => {
                    let why = match reason {
                        InconclusiveReason::DeadlineExpired => "deadline expired",
                        InconclusiveReason::BudgetExhausted => "SAT budget exhausted",
                        InconclusiveReason::ResourceExhausted => "memory budget exhausted",
                        InconclusiveReason::CertificationFailed => "certification failed",
                    };
                    let pairs: Vec<String> =
                        unresolved_pairs.iter().map(usize::to_string).collect();
                    println!(
                        "INCONCLUSIVE ({why}): {} unresolved output pair(s): {}",
                        pairs.len(),
                        pairs.join(" ")
                    );
                    println!("note: no inequivalence was found; the result is a sound partial one");
                    if cert_failures > 0 {
                        return Ok(ExitCode::from(3));
                    }
                    Ok(ExitCode::from(2))
                }
            }
        }
        "bench" => {
            let [name, output] = pos[..] else {
                return err("usage: simgen bench <name> <out>");
            };
            let aig =
                build_aig(name).ok_or_else(|| CliError(format!("unknown benchmark `{name}`")))?;
            save(&Circuit::Aig(aig), output, k)?;
            println!("wrote {output}");
            Ok(ExitCode::SUCCESS)
        }
        "list-benchmarks" => {
            for b in all_benchmarks() {
                println!("{:10} [{}]", b.name, b.suite);
            }
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            if !pos.is_empty() {
                return err("usage: simgen serve --socket PATH [--cache-dir DIR] \
                     [--cache-budget BYTES] [--queue-limit N] [--checkpoint-dir DIR] \
                     [--default-timeout SECS] [--mem-budget BYTES] [--stall-horizon SECS]");
            }
            let Some(socket) = flag_value(rest, "--socket") else {
                return err("simgen serve needs --socket PATH");
            };
            let mut opts = simgen_serve::ServeOptions::new(socket);
            opts.cache_budget = cache_budget;
            if let Some(dir) = flag_value(rest, "--cache-dir") {
                opts.cache_dir = Some(dir.into());
            }
            if let Some(v) = flag_value(rest, "--queue-limit") {
                opts.queue_limit =
                    v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        CliError(format!(
                            "bad --queue-limit value `{v}` (need a positive integer)"
                        ))
                    })?;
            }
            if let Some(dir) = flag_value(rest, "--checkpoint-dir") {
                opts.checkpoint_dir = Some(dir.into());
            }
            // Deadline applied to jobs that don't name their own
            // timeout, so one runaway proof can't wedge the executor.
            opts.default_timeout = flag_value(rest, "--default-timeout")
                .map(|v| parse_secs("--default-timeout", v, false))
                .transpose()?
                .map(|d| d.as_secs_f64());
            // Per-job memory budget: jobs whose estimated resident set
            // crosses it are cancelled with `resource_exhausted`
            // instead of taking the daemon down with them.
            opts.mem_budget = flag_value(rest, "--mem-budget")
                .map(|v| {
                    v.parse::<u64>().ok().filter(|&b| b >= 1).ok_or_else(|| {
                        CliError(format!(
                            "bad --mem-budget value `{v}` (need a positive byte count)"
                        ))
                    })
                })
                .transpose()?;
            // Stall watchdog: a job making no proof progress for this
            // long is killed and quarantined; the daemon keeps serving.
            opts.stall_horizon = flag_value(rest, "--stall-horizon")
                .map(|v| parse_secs("--stall-horizon", v, false))
                .transpose()?
                .map(|d| d.as_secs_f64());
            simgen_serve::install_signal_handlers();
            let server = simgen_serve::Server::start(opts)
                .map_err(|e| CliError(format!("cannot start daemon: {e}")))?;
            eprintln!("serve: listening on {socket} (SIGTERM drains and exits)");
            let stats = server.stats_handle();
            server.join();
            use std::sync::atomic::Ordering::Relaxed;
            eprintln!(
                "serve: drained — {} jobs ({} hits, {} replayed), {} rejected, {} errors, \
                 {} recovered",
                stats.jobs_done.load(Relaxed),
                stats.job_hits.load(Relaxed),
                stats.replayed.load(Relaxed),
                stats.rejected.load(Relaxed),
                stats.errors.load(Relaxed),
                stats.recovered.load(Relaxed),
            );
            Ok(ExitCode::SUCCESS)
        }
        "status" => {
            if !pos.is_empty() {
                return err("usage: simgen status --socket PATH");
            }
            let Some(socket) = flag_value(rest, "--socket") else {
                return err("simgen status needs --socket PATH");
            };
            let status = simgen_serve::query_status(Path::new(socket))
                .map_err(|e| CliError(format!("status query to `{socket}`: {e}")))?;
            println!("daemon at {socket}: healthy");
            println!("  queue depth : {}", status.queue_depth);
            println!("  jobs done   : {}", status.jobs_done);
            println!("  job hits    : {}", status.job_hits);
            println!("  replayed    : {}", status.replayed);
            println!("  rejected    : {}", status.rejected);
            println!("  errors      : {}", status.errors);
            println!("  recovered   : {}", status.recovered);
            println!("  retries     : {}", status.retries);
            println!(
                "  degraded    : {}",
                if status.degraded {
                    "yes (cache breaker open, memory-only)"
                } else {
                    "no"
                }
            );
            Ok(ExitCode::SUCCESS)
        }
        "health" => {
            // Resource-governance snapshot: queue pressure, breaker
            // state, shed/cancel totals, memory headroom. Exit 1 when
            // degraded so probes can alert on it.
            if !pos.is_empty() {
                return err("usage: simgen health --socket PATH");
            }
            let Some(socket) = flag_value(rest, "--socket") else {
                return err("simgen health needs --socket PATH");
            };
            let health = simgen_serve::query_health(Path::new(socket))
                .map_err(|e| CliError(format!("health query to `{socket}`: {e}")))?;
            println!(
                "daemon at {socket}: {}",
                if health.degraded {
                    "degraded (cache breaker open, memory-only)"
                } else {
                    "healthy"
                }
            );
            println!("  queue depth       : {}", health.queue_depth);
            println!("  jobs shed         : {}", health.jobs_shed);
            println!("  jobs oom-cancelled: {}", health.jobs_oom_cancelled);
            println!("  watchdog kills    : {}", health.watchdog_kills);
            println!("  breaker trips     : {}", health.breaker_trips);
            match (health.mem_budget, health.mem_headroom) {
                (Some(budget), Some(headroom)) => {
                    println!("  mem budget        : {budget} bytes");
                    println!("  mem headroom      : {headroom} bytes");
                }
                _ => println!("  mem budget        : unlimited"),
            }
            Ok(if health.degraded {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        "cache" => {
            // `simgen cache verify <dir>`: standalone integrity scrub
            // of a persistent proof-cache directory. The daemon and
            // the cached flows run the same scrub on open; this is
            // the operator-facing version for cron jobs and triage.
            match pos[..] {
                ["verify", dir] => {
                    let report = simgen_cache::scrub(dir)
                        .map_err(|e| CliError(format!("cannot scrub `{dir}`: {e}")))?;
                    println!(
                        "{dir}: {} valid entr{}, {} quarantined",
                        report.valid,
                        if report.valid == 1 { "y" } else { "ies" },
                        report.quarantined.len()
                    );
                    for path in &report.quarantined {
                        println!("  quarantined {}", path.display());
                    }
                    if report.quarantined.is_empty() {
                        Ok(ExitCode::SUCCESS)
                    } else {
                        Ok(ExitCode::from(1))
                    }
                }
                _ => err("usage: simgen cache verify <dir>"),
            }
        }
        "submit" => {
            let [pa, pb] = pos[..] else {
                return err("usage: simgen submit <a> <b> --socket PATH [--id X] \
                     [--strategy S] [-k K] [--seed N] [--jobs N] [--timeout SECS] [--certify] \
                     [--priority P] [--retry N] [--backoff MS]");
            };
            let Some(socket) = flag_value(rest, "--socket") else {
                return err("simgen submit needs --socket PATH");
            };
            let retries: u32 = flag_value(rest, "--retry")
                .map(|v| {
                    v.parse().map_err(|_| {
                        CliError(format!(
                            "bad --retry value `{v}` (need a non-negative integer)"
                        ))
                    })
                })
                .transpose()?
                .unwrap_or(0);
            let backoff_ms: u64 = flag_value(rest, "--backoff")
                .map(|v| {
                    v.parse::<u64>().ok().filter(|&ms| ms >= 1).ok_or_else(|| {
                        CliError(format!(
                            "bad --backoff value `{v}` (need a positive millisecond count)"
                        ))
                    })
                })
                .transpose()?
                .unwrap_or(100);
            // Scheduling-only: a higher priority is served first and
            // sheds lower-priority queued work under pressure; it
            // never changes the verdict or the report.
            let priority: u8 = flag_value(rest, "--priority")
                .map(|v| {
                    v.parse::<u8>()
                        .ok()
                        .filter(|&p| p <= simgen_serve::MAX_PRIORITY)
                        .ok_or_else(|| CliError(format!("bad --priority value `{v}` (need 0..=9)")))
                })
                .transpose()?
                .unwrap_or(simgen_serve::DEFAULT_PRIORITY);
            let request = simgen_serve::JobRequest {
                id: flag_value(rest, "--id").unwrap_or("job").to_string(),
                a: pa.to_string(),
                b: pb.to_string(),
                strategy: flag_value(rest, "--strategy")
                    .unwrap_or("simgen")
                    .to_string(),
                seed,
                k,
                jobs,
                timeout: timeout.map(|d| d.as_secs_f64()),
                certify,
                priority,
            };
            // `overloaded` means the daemon's queue was full at that
            // instant — the one daemon answer that is worth retrying.
            // Jittered exponential backoff so a burst of rejected
            // clients doesn't re-converge on the same instant.
            let mut attempt: u32 = 0;
            let line = loop {
                let line = simgen_serve::submit(Path::new(socket), &request)
                    .map_err(|e| CliError(format!("submit to `{socket}`: {e}")))?;
                let overloaded = simgen_obs::Json::parse(&line).is_ok_and(|resp| {
                    resp.get("error").and_then(simgen_obs::Json::as_str) == Some("overloaded")
                });
                if !overloaded || attempt >= retries {
                    break line;
                }
                attempt += 1;
                let base = backoff_ms << (attempt - 1).min(6);
                let jitter = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| u64::from(d.subsec_nanos()) % base.max(1));
                eprintln!("submit: daemon overloaded, retry {attempt}/{retries} in {base} ms");
                std::thread::sleep(Duration::from_millis(base + jitter));
            };
            // The raw response (JSON, report included) goes to stdout
            // for scripting; the exit code mirrors `simgen cec`.
            println!("{line}");
            let resp = simgen_obs::Json::parse(&line)
                .map_err(|e| CliError(format!("malformed daemon response: {e}")))?;
            if let Some(msg) = resp.get("error").and_then(simgen_obs::Json::as_str) {
                eprintln!("submit: daemon error: {msg}");
                // EX_UNAVAILABLE-style: distinct from the verdict codes.
                return Ok(ExitCode::from(69));
            }
            match resp.get("status").and_then(simgen_obs::Json::as_str) {
                Some("equivalent") => Ok(ExitCode::SUCCESS),
                Some("not_equivalent") => Ok(ExitCode::from(1)),
                Some("inconclusive") => Ok(ExitCode::from(2)),
                // Load-shed by the daemon (preempted or queue deadline
                // passed): unavailable, like a daemon-side error.
                Some("shed") => {
                    eprintln!(
                        "submit: job shed by the daemon ({})",
                        resp.get("reason")
                            .and_then(simgen_obs::Json::as_str)
                            .unwrap_or("unknown")
                    );
                    Ok(ExitCode::from(69))
                }
                other => err(format!("daemon response without a status: {other:?}")),
            }
        }
        other => err(format!("unknown command `{other}`")),
    }
}

fn print_help() {
    println!(
        "simgen — simulation pattern generation for equivalence checking

USAGE:
  simgen stats <file>                      sizes/depth of a circuit file
  simgen convert <in> <out> [-k K]         convert between aig/aag/bench/blif
  simgen map <in> <out.blif> [-k K]        LUT-map an AIG file to BLIF
  simgen export <in> <out.dot|out.v> [-k K]  Graphviz / structural Verilog
  simgen sat <file.cnf>                    solve a DIMACS CNF (exit 10/20)
  simgen sweep <file> [--strategy S] [--iters N] [-k K] [--seed N] [--jobs N]
                      [--timeout SECS] [--stall SECS] [--certify]
                      [--engine-policy P] [--no-incremental] [--rebuild-bloat N]
                      [--checkpoint-dir DIR] [--resume]
                      [--fault-seed N] [--stats-json PATH] [--trace PATH]
                      [--profile]
  simgen cec <a> <b> [--strategy S] [-k K] [--seed N] [--jobs N]
                     [--timeout SECS] [--stall SECS] [--certify]
                     [--engine-policy P] [--no-incremental] [--rebuild-bloat N]
                     [--cache-dir DIR] [--cache-budget BYTES]
                     [--checkpoint-dir DIR] [--resume]
                     [--stats-json PATH] [--trace PATH] [--profile]
  simgen serve --socket PATH [--cache-dir DIR] [--cache-budget BYTES]
               [--queue-limit N] [--checkpoint-dir DIR] [--default-timeout SECS]
               [--mem-budget BYTES] [--stall-horizon SECS]
                                           run the CEC daemon (docs/serving.md)
  simgen submit <a> <b> --socket PATH [--id X] [--strategy S] [-k K]
                [--seed N] [--jobs N] [--timeout SECS] [--certify]
                [--priority P] [--retry N] [--backoff MS]
                                           send one job to a running daemon
  simgen status --socket PATH              health/recovery stats of a daemon
  simgen health --socket PATH              resource-governance snapshot
  simgen cache verify <dir>                scrub a proof-cache directory
  simgen bench <name> <out>                emit a built-in benchmark circuit
  simgen list-benchmarks                   list the 42 built-in benchmarks

Formats by extension: .aig (binary AIGER), .aag (ASCII AIGER),
.bench (ISCAS), .blif. Strategies: simgen (default), revs, rand, 1dist.
--jobs/-j N runs the SAT-resolution phase on N worker threads and
splits large simulation blocks across the same pool (results are
byte-identical for any N); --jobs 0 auto-detects the core count.

Engine policy: sweep/cec give each candidate pair that survives
simulation one proof attempt, with the engines --engine-policy picks.
`default` (also spelled `auto` or `sat-only`) runs one SAT attempt and
never consults BDDs; `bdd-first` first tries BDDs within a 10 000-node
limit and falls back to SAT when the limit trips. SAT queries share
one long-lived assumption-scoped solver per fanin region, so later
pairs in a region warm-start on the cone encoding, the learnt clauses
and the proven equalities of earlier ones (docs/solving.md);
--no-incremental reverts to a cold solver per pair. --rebuild-bloat N
restarts a region solver whose clause database grows past N times its
live encoding (0 = never), bounding memory on long regions. Verdicts
and engine-stripped reports are identical across policies and both
solver modes — only effort counters (conflicts, warm_solves,
clauses_reused) move.

Proof cache: --cache-dir DIR makes sweep/cec answer structurally
repeated queries from a persistent content-addressed store instead of
the solver, bounded by --cache-budget BYTES (default 64 MiB, LRU).
Cached counterexamples are replayed before reuse; under --certify a
cached equivalence is only trusted after its stored DRAT proof passes
the independent checker. `serve` keeps the same cache warm behind a
unix socket; `submit` prints the daemon's JSON response and exits with
the `cec` code mapping (69 for daemon-side errors, e.g. overloaded;
--retry N --backoff MS retries overloaded rejections with jittered
exponential backoff first). Every on-disk entry is checksummed; open
scrubs the directory and quarantines corrupt files (`cache verify`
runs the same scrub standalone, exit 1 if anything was quarantined).

Resource governance: `serve --mem-budget BYTES` cancels any job whose
estimated resident set (clause database + lane tables + proof log)
crosses the budget, answering `inconclusive`/`resource_exhausted`
instead of dying of OOM; `--stall-horizon SECS` kills and quarantines
jobs making no proof progress for that long. `submit --priority P`
(0..=9, default 5) orders the queue; under pressure the daemon sheds
the lowest-priority queued job with an explicit `shed` answer, and
jobs whose queue wait exceeds their deadline are shed instead of run.
Repeated cache I/O errors trip a circuit breaker to memory-only
caching (`degraded` in `status`, periodic re-probe to recover).
`health` reports queue depth, breaker state, shed/cancel/kill totals,
and memory headroom, exiting 1 when degraded (docs/serving.md).

Crash safety: --checkpoint-dir DIR journals every sweep round; after a
crash, rerunning with --resume replays the journal and re-proves only
the unresolved work, with a final report byte-identical to an
uninterrupted run (docs/recovery.md). `serve --checkpoint-dir` also
writes per-job manifests: a restarted daemon re-executes interrupted
jobs (resuming their journals) before new work, retries transient
failures with backoff, and reports recovery totals via `status`.

Anytime operation: --timeout SECS bounds the whole run by a wall-clock
deadline; --stall SECS aborts any single proof making no progress for
that long. On expiry the tool reports the sound partial result it has.

Trust-but-verify: --certify double-checks every engine answer — UNSAT
proofs are re-validated by an independent DRAT checker, and every
counterexample is replayed through the reference simulator — before
any class is refined (see docs/certification.md). Pairs whose evidence
fails the check are quarantined, never merged. --fault-seed N
(requires building with --features fault-inject) deterministically
injects worker faults for chaos testing; sweep only.

Observability: --stats-json PATH writes a simgen-run-report/5 JSON
document (schema: docs/observability.md); --trace PATH writes the
event trace as JSON Lines; --profile prints per-phase folded stacks
on stdout (pipe into a flamegraph tool).

Exit codes for `cec`: 0 equivalent, 1 not equivalent (counterexample
printed), 2 inconclusive (deadline or SAT budget ran out before all
output pairs were resolved), 3 certification rejected an engine answer
under --certify. `sweep` exits 2 if interrupted, 3 on certification
failure."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn format_inference() {
        assert_eq!(format_of("x.aig").unwrap(), Format::AigBinary);
        assert_eq!(format_of("x.AAG").unwrap(), Format::AigAscii);
        assert_eq!(format_of("d/x.bench").unwrap(), Format::Bench);
        assert_eq!(format_of("x.blif").unwrap(), Format::Blif);
        assert!(format_of("x.v").is_err());
        assert!(format_of("noext").is_err());
    }

    #[test]
    fn flag_parsing() {
        let args = s(&["sweep.blif", "--strategy", "revs", "-k", "4", "-j", "8"]);
        assert_eq!(flag_value(&args, "--strategy"), Some("revs"));
        assert_eq!(flag_value(&args, "-k"), Some("4"));
        assert_eq!(flag_value(&args, "--iters"), None);
        assert_eq!(flag_value(&args, "-j"), Some("8"));
        assert_eq!(positionals(&args, &VALUE_FLAGS), vec!["sweep.blif"]);
    }

    #[test]
    fn bad_jobs_value_is_rejected() {
        for bad in ["-3", "many", "1.5"] {
            let res = run(&s(&["sweep", "x.blif", "--jobs", bad]));
            let msg = res.expect_err("jobs must be a non-negative integer").0;
            assert!(msg.contains("--jobs"), "unexpected error: {msg}");
        }
    }

    #[test]
    fn resume_requires_a_checkpoint_dir() {
        let msg = run(&s(&["sweep", "x.blif", "--resume"]))
            .expect_err("--resume alone is a usage error")
            .0;
        assert!(msg.contains("--checkpoint-dir"), "{msg}");
    }

    #[test]
    fn bad_retry_and_backoff_values_are_rejected() {
        for (flag, bad) in [("--retry", "-1"), ("--retry", "lots"), ("--backoff", "0")] {
            let msg = run(&s(&[
                "submit", "a.aag", "b.aag", "--socket", "/s", flag, bad,
            ]))
            .expect_err("bad value must be rejected")
            .0;
            assert!(msg.contains(flag), "unexpected error: {msg}");
        }
    }

    #[test]
    fn status_and_cache_usage_errors() {
        assert!(run(&s(&["status"])).is_err());
        assert!(run(&s(&["health"])).is_err());
        assert!(run(&s(&["health", "extra"])).is_err());
        assert!(run(&s(&["cache"])).is_err());
        assert!(run(&s(&["cache", "frob", "/tmp"])).is_err());
    }

    #[test]
    fn bad_priority_values_are_rejected() {
        for bad in ["10", "-1", "urgent"] {
            let msg = run(&s(&[
                "submit",
                "a.aag",
                "b.aag",
                "--socket",
                "/s",
                "--priority",
                bad,
            ]))
            .expect_err("priority must be 0..=9")
            .0;
            assert!(msg.contains("--priority"), "unexpected error: {msg}");
        }
    }

    #[test]
    fn bad_governance_values_are_rejected() {
        for (flag, bad) in [
            ("--mem-budget", "0"),
            ("--mem-budget", "plenty"),
            ("--stall-horizon", "0"),
            ("--stall-horizon", "-2"),
        ] {
            let msg = run(&s(&["serve", "--socket", "/s", flag, bad]))
                .expect_err("bad governance value must be rejected")
                .0;
            assert!(msg.contains(flag), "unexpected error: {msg}");
        }
    }

    #[test]
    fn cache_verify_reports_quarantined_entries() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_scrub_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_str().unwrap().to_string();
        // Empty directory: clean.
        assert_eq!(
            run(&s(&["cache", "verify", &dir_s])).unwrap(),
            ExitCode::SUCCESS
        );
        // A file that pretends to be an entry: quarantined, exit 1.
        std::fs::write(
            dir.join(format!("{}.entry", "ab".repeat(32))),
            "not an entry\n",
        )
        .unwrap();
        assert_eq!(
            run(&s(&["cache", "verify", &dir_s])).unwrap(),
            ExitCode::from(1)
        );
        assert!(dir.join(simgen_cache::QUARANTINE_DIR).is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jobs_zero_auto_detects_cores() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_j0_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let code = run(&s(&["sweep", &aag_s, "--iters", "2", "--jobs", "0"])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let code = run(&s(&["cec", &aag_s, &aag_s, "-j", "0"])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&["stats"])).is_err());
        assert!(run(&s(&["cec", "only-one.aig"])).is_err());
    }

    #[test]
    fn roundtrip_via_tempdir() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let blif = dir.join("e64.blif");
        let bench = dir.join("e64.bench");
        let aag_s = aag.to_str().unwrap().to_string();
        let blif_s = blif.to_str().unwrap().to_string();
        let bench_s = bench.to_str().unwrap().to_string();
        // bench -> file
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        // convert aag -> bench, map aag -> blif
        run(&s(&["convert", &aag_s, &bench_s])).unwrap();
        run(&s(&["map", &aag_s, &blif_s, "-k", "6"])).unwrap();
        // stats on all three succeed
        run(&s(&["stats", &aag_s])).unwrap();
        run(&s(&["stats", &bench_s])).unwrap();
        run(&s(&["stats", &blif_s])).unwrap();
        // the mapped blif and the aig agree
        let Circuit::Aig(aig) = load(&aag_s).unwrap() else {
            panic!("aag loads as aig")
        };
        let Circuit::Lut(net) = load(&blif_s).unwrap() else {
            panic!("blif loads as lut")
        };
        let ins: Vec<bool> = (0..aig.num_pis()).map(|i| i % 3 == 0).collect();
        assert_eq!(aig.eval(&ins), net.eval_pos(&ins));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_and_sat_subcommands() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_exp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("x.aag");
        let dot = dir.join("x.dot");
        let v = dir.join("x.v");
        let cnf = dir.join("x.cnf");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        run(&s(&["export", &aag_s, dot.to_str().unwrap()])).unwrap();
        run(&s(&["export", &aag_s, v.to_str().unwrap()])).unwrap();
        let dot_text = std::fs::read_to_string(&dot).unwrap();
        assert!(dot_text.starts_with("digraph"));
        let v_text = std::fs::read_to_string(&v).unwrap();
        assert!(v_text.contains("endmodule"));
        // SAT subcommand: (x1 | x2) & !x1 is satisfiable.
        std::fs::write(
            &cnf,
            "p cnf 2 2
1 2 0
-1 0
",
        )
        .unwrap();
        let code = run(&s(&["sat", cnf.to_str().unwrap()])).unwrap();
        assert_eq!(code, ExitCode::from(10));
        std::fs::write(
            &cnf,
            "p cnf 1 2
1 0
-1 0
",
        )
        .unwrap();
        let code = run(&s(&["sat", cnf.to_str().unwrap()])).unwrap();
        assert_eq!(code, ExitCode::from(20));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for args in [
            s(&["sweep", "x.blif", "--cuts", "4"]),
            s(&["cec", "a.aig", "b.aig", "--time", "5"]),
            s(&["stats", "-z", "x.aig"]),
        ] {
            let msg = run(&args).expect_err("unknown flag must error").0;
            assert!(msg.contains("unknown option"), "unexpected error: {msg}");
        }
    }

    #[test]
    fn malformed_value_flags_are_rejected() {
        for (args, needle) in [
            (
                s(&["cec", "a.aig", "b.aig", "--timeout", "soon"]),
                "--timeout",
            ),
            (
                s(&["cec", "a.aig", "b.aig", "--timeout", "-1"]),
                "--timeout",
            ),
            (s(&["sweep", "x.blif", "--stall", "0"]), "--stall"),
            (s(&["sweep", "x.blif", "--stall", "NaN"]), "--stall"),
            (s(&["map", "a.aig", "b.blif", "-k", "0"]), "-k"),
            (s(&["map", "a.aig", "b.blif", "-k", "9"]), "-k"),
            (s(&["sweep", "x.blif", "--seed", "twelve"]), "--seed"),
        ] {
            let msg = run(&args).expect_err("malformed value must error").0;
            assert!(msg.contains(needle), "expected {needle} in: {msg}");
        }
    }

    #[test]
    fn stats_json_trace_and_profile_outputs() {
        use simgen_obs::Json;
        let dir = std::env::temp_dir().join(format!("simgen_cli_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let stats = dir.join("run.json");
        let trace = dir.join("run.trace.jsonl");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let code = run(&s(&[
            "sweep",
            &aag_s,
            "--iters",
            "2",
            "--stats-json",
            stats.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // The report parses and validates against the schema.
        let text = std::fs::read_to_string(&stats).unwrap();
        let json = Json::parse(&text).unwrap();
        RunReport::validate(&json).expect("CLI-written report is schema-valid");
        assert_eq!(
            json.get("command").and_then(Json::as_str),
            Some("sweep"),
            "command echoed"
        );
        assert_eq!(
            json.get("design")
                .unwrap()
                .get("name")
                .and_then(Json::as_str),
            Some("e64")
        );
        // The trace is JSON Lines: every line parses on its own.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(!trace_text.is_empty());
        for line in trace_text.lines() {
            Json::parse(line).expect("trace line is valid JSON");
        }
        // cec writes the same schema.
        let cec_stats = dir.join("cec.json");
        let code = run(&s(&[
            "cec",
            &aag_s,
            &aag_s,
            "--stats-json",
            cec_stats.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let json = Json::parse(&std::fs::read_to_string(&cec_stats).unwrap()).unwrap();
        RunReport::validate(&json).expect("cec report is schema-valid");
        assert_eq!(
            json.get("outcome")
                .unwrap()
                .get("status")
                .and_then(Json::as_str),
            Some("equivalent")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_json_deterministic_across_jobs() {
        use simgen_obs::{report::strip_nondeterministic, Json};
        let dir = std::env::temp_dir().join(format!("simgen_cli_det_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let mut forms = Vec::new();
        for jobs in ["1", "2", "4"] {
            let out = dir.join(format!("run{jobs}.json"));
            run(&s(&[
                "sweep",
                &aag_s,
                "--iters",
                "2",
                "--jobs",
                jobs,
                "--stats-json",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            let mut json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
            strip_nondeterministic(&mut json);
            forms.push(json.to_pretty());
        }
        assert_eq!(forms[0], forms[1], "jobs 1 vs 2");
        assert_eq!(forms[0], forms[2], "jobs 1 vs 4");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cec_exit_codes_cover_all_three_verdicts() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_exit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let and_p = dir.join("and.aag");
        let or_p = dir.join("or.aag");
        // Two 2-input circuits: x = a & b vs x = ~(~a & ~b) = a | b.
        std::fs::write(&and_p, "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").unwrap();
        std::fs::write(&or_p, "aag 3 2 0 1 1\n2\n4\n7\n6 3 5\n").unwrap();
        let and_s = and_p.to_str().unwrap().to_string();
        let or_s = or_p.to_str().unwrap().to_string();
        // 0: equivalent (file vs itself).
        let code = run(&s(&["cec", &and_s, &and_s])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // 1: not equivalent, counterexample found.
        let code = run(&s(&["cec", &and_s, &or_s])).unwrap();
        assert_eq!(code, ExitCode::from(1));
        // 2: inconclusive under an already-expired deadline — and the
        // partial result must not claim equivalence.
        let code = run(&s(&["cec", &and_s, &and_s, "--timeout", "0"])).unwrap();
        assert_eq!(code, ExitCode::from(2));
        // Same degraded path with two workers.
        let code = run(&s(&["cec", &and_s, &and_s, "--timeout", "0", "-j", "2"])).unwrap();
        assert_eq!(code, ExitCode::from(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_seed_flag_is_validated() {
        // Malformed values are rejected before any file I/O.
        for bad in ["-1", "soon", "1.5"] {
            let msg = run(&s(&["sweep", "x.blif", "--fault-seed", bad]))
                .expect_err("bad fault seed must error")
                .0;
            assert!(msg.contains("--fault-seed"), "unexpected error: {msg}");
        }
        // A well-formed seed is rejected on commands other than sweep
        // (and, without the fault-inject feature, everywhere).
        let msg = run(&s(&["cec", "a.aig", "b.aig", "--fault-seed", "7"]))
            .expect_err("cec must reject --fault-seed")
            .0;
        assert!(msg.contains("--fault-seed"), "unexpected error: {msg}");
        #[cfg(not(feature = "fault-inject"))]
        {
            let msg = run(&s(&["sweep", "x.blif", "--fault-seed", "7"]))
                .expect_err("fault injection needs the feature")
                .0;
            assert!(msg.contains("fault-inject"), "unexpected error: {msg}");
        }
    }

    #[test]
    fn certify_flag_is_accepted_and_keeps_verdicts() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_cert_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let and_p = dir.join("and.aag");
        let or_p = dir.join("or.aag");
        std::fs::write(&and_p, "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").unwrap();
        std::fs::write(&or_p, "aag 3 2 0 1 1\n2\n4\n7\n6 3 5\n").unwrap();
        let and_s = and_p.to_str().unwrap().to_string();
        let or_s = or_p.to_str().unwrap().to_string();
        // Certified equivalence still exits 0, certified
        // inequivalence (replayed witness) still exits 1.
        let code = run(&s(&["cec", &and_s, &and_s, "--certify"])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let code = run(&s(&["cec", &and_s, &or_s, "--certify"])).unwrap();
        assert_eq!(code, ExitCode::from(1));
        // Certified sweep succeeds and records proof activity in the
        // run report's sat section.
        use simgen_obs::Json;
        let stats = dir.join("certified.json");
        let code = run(&s(&[
            "sweep",
            &and_s,
            "--certify",
            "--iters",
            "2",
            "--stats-json",
            stats.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let json = Json::parse(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        assert_eq!(
            json.get("config").unwrap().get("certify"),
            Some(&Json::Bool(true)),
            "certify mode is echoed in the report config"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_policy_values_are_validated() {
        for bad in ["fastest", "bdd", "SAT-ONLY", ""] {
            let msg = run(&s(&["cec", "a.aig", "b.aig", "--engine-policy", bad]))
                .expect_err("bad engine policy must error")
                .0;
            assert!(msg.contains("--engine-policy"), "unexpected error: {msg}");
        }
    }

    #[test]
    fn engine_policy_and_incremental_mode_are_echoed_in_reports() {
        use simgen_obs::Json;
        let dir = std::env::temp_dir().join(format!("simgen_cli_pol_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let config_of = |extra: &[&str]| -> Json {
            let out = dir.join("pol.json");
            let mut args = s(&["cec", &aag_s, &aag_s, "--stats-json"]);
            args.push(out.to_str().unwrap().to_string());
            args.extend(s(extra));
            assert_eq!(run(&args).unwrap(), ExitCode::SUCCESS);
            let json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
            json.get("config").unwrap().clone()
        };
        let cfg = config_of(&[]);
        assert_eq!(
            cfg.get("engine_mode").and_then(Json::as_str),
            Some("default")
        );
        assert_eq!(cfg.get("incremental"), Some(&Json::Bool(true)));
        let cfg = config_of(&["--engine-policy", "sat-only", "--no-incremental"]);
        assert_eq!(
            cfg.get("engine_mode").and_then(Json::as_str),
            Some("default")
        );
        assert_eq!(cfg.get("incremental"), Some(&Json::Bool(false)));
        // `auto` and `sat-only` are aliases of `default`, and
        // bdd-first keeps the verdict (it only reorders engines).
        let cfg = config_of(&["--engine-policy", "auto"]);
        assert_eq!(
            cfg.get("engine_mode").and_then(Json::as_str),
            Some("default")
        );
        let cfg = config_of(&["--engine-policy", "bdd-first"]);
        assert_eq!(
            cfg.get("engine_mode").and_then(Json::as_str),
            Some("bdd-first")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_under_expired_deadline_exits_interrupted() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_swto_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let code = run(&s(&["sweep", &aag_s, "--timeout", "0"])).unwrap();
        assert_eq!(code, ExitCode::from(2));
        // A generous deadline changes nothing about the result.
        let code = run(&s(&["sweep", &aag_s, "--timeout", "3600", "--stall", "30"])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cec_with_a_cache_dir_warm_starts() {
        use simgen_obs::Json;
        let dir = std::env::temp_dir().join(format!("simgen_cli_cache_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let aag_s = aag.to_str().unwrap().to_string();
        let cache_dir = dir.join("cache");
        let cache_s = cache_dir.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let counters = |path: &std::path::Path| -> (u64, u64) {
            let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let c = json.get("counters").unwrap();
            (
                c.get("cache_hits").and_then(Json::as_u64).unwrap(),
                c.get("cache_misses").and_then(Json::as_u64).unwrap(),
            )
        };
        let cold_json = dir.join("cold.json");
        let code = run(&s(&[
            "cec",
            &aag_s,
            &aag_s,
            "--cache-dir",
            &cache_s,
            "--stats-json",
            cold_json.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let (_, cold_misses) = counters(&cold_json);
        assert!(cold_misses > 0, "cold run populates the cache");
        // Second invocation: same process? No — same cache directory,
        // fresh ProofCache loaded from disk.
        let warm_json = dir.join("warm.json");
        let code = run(&s(&[
            "cec",
            &aag_s,
            &aag_s,
            "--cache-dir",
            &cache_s,
            "--stats-json",
            warm_json.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        let (warm_hits, _) = counters(&warm_json);
        assert!(warm_hits > 0, "warm run answers from the persisted cache");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_and_submit_round_trip() {
        use simgen_obs::Json;
        let dir = std::env::temp_dir().join(format!("simgen_cli_srv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let aag = dir.join("e64.aag");
        let aag_s = aag.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &aag_s])).unwrap();
        let socket = dir.join("sock");
        // Drive the daemon through the library server (the `serve`
        // subcommand itself blocks until a signal; the smoke test in
        // CI exercises it as a real process).
        let server = simgen_serve::Server::start(simgen_serve::ServeOptions::new(&socket)).unwrap();
        let submit = |id: &str| -> (ExitCode, Json) {
            let out = run(&s(&[
                "submit",
                &aag_s,
                &aag_s,
                "--socket",
                socket.to_str().unwrap(),
                "--id",
                id,
            ]))
            .unwrap();
            // stdout went to the test harness; re-query the daemon
            // state via the response the client lib returns instead.
            let line = simgen_serve::submit(
                &socket,
                &simgen_serve::JobRequest {
                    id: format!("{id}-check"),
                    a: aag_s.clone(),
                    b: aag_s.clone(),
                    ..simgen_serve::JobRequest::default()
                },
            )
            .unwrap();
            (out, Json::parse(&line).unwrap())
        };
        let (code, resp) = submit("s1");
        assert_eq!(code, ExitCode::SUCCESS);
        // The follow-up query for the same job is a cache hit.
        assert_eq!(resp.get("cache").and_then(Json::as_str), Some("hit"));
        // Usage errors: no socket.
        assert!(run(&s(&["submit", &aag_s, &aag_s])).is_err());
        assert!(run(&s(&["serve"])).is_err());
        // `--priority` is accepted and scheduling-only: the verdict
        // (and the exit code) is unchanged.
        let code = run(&s(&[
            "submit",
            &aag_s,
            &aag_s,
            "--socket",
            socket.to_str().unwrap(),
            "--id",
            "prio",
            "--priority",
            "9",
        ]))
        .unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // `health` against the live daemon: not degraded, exit 0.
        let code = run(&s(&["health", "--socket", socket.to_str().unwrap()])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        server.shutdown();
        server.join();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cec_of_equivalent_files() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_cec_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.aag");
        let b = dir.join("b.blif");
        let a_s = a.to_str().unwrap().to_string();
        let b_s = b.to_str().unwrap().to_string();
        run(&s(&["bench", "e64", &a_s])).unwrap();
        run(&s(&["map", &a_s, &b_s])).unwrap();
        let code = run(&s(&["cec", &a_s, &b_s])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // Same verdict through the parallel dispatch path.
        let code = run(&s(&["cec", &a_s, &b_s, "--jobs", "4"])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        // And the sweep subcommand accepts the short flag.
        let code = run(&s(&["sweep", &b_s, "-j", "2", "--iters", "2"])).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
