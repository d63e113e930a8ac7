//! Implementation of the `simgen` command-line tool.
//!
//! All functionality lives in the library so it is unit-testable; the
//! binary is a thin wrapper. [`run`] looks the command up in a table
//! that names each command's operands and the flags it reads, checks
//! the arguments against that entry in one pass, and hands them to the
//! command's handler. Usage errors and `simgen help` are generated
//! from the same table.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::ops::RangeBounds;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use simgen_cec::{
    cec_run_report, check_equivalence, design_info, design_name, sweep_run_report, CecVerdict,
    Deadline, EngineMode, EnginePolicy, InconclusiveReason, ProofCache, RunContext, RunMeta,
    SweepConfig, SweepJournal, Sweeper, MAX_JOBS,
};
use simgen_core::{make_strategy, PatternGenerator};
use simgen_mapping::map_to_luts;
use simgen_netlist::load::{format_of, load, Circuit, Format, LoadError};
use simgen_netlist::{aiger, bench_fmt, blif, LutNetwork};
use simgen_obs::{Json, Observer, RunReport};
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

/// One subcommand: its command line and the handler that runs it.
struct Command {
    name: &'static str,
    /// What every invocation gives, in order: operands (`<file>`),
    /// literal words (`verify`) and flags the command cannot run
    /// without (`--socket PATH`).
    required: &'static str,
    /// The other flags it takes, each `--flag VALUE` or a bare
    /// `--switch`. Any flag it does not list is an error.
    flags: &'static str,
    run: fn(&Args) -> Result<ExitCode, CliError>,
    /// The one-line summary in `simgen help`.
    about: &'static str,
}

const fn cmd(
    name: &'static str,
    required: &'static str,
    flags: &'static str,
    run: fn(&Args) -> Result<ExitCode, CliError>,
    about: &'static str,
) -> Command {
    Command {
        name,
        required,
        flags,
        run,
        about,
    }
}

/// The flags of `sweep`. `cec` takes the same but `--iters` and
/// `--fault-seed`.
const SWEEP_FLAGS: &str = "--strategy S --iters N -k K --seed N --jobs N --timeout SECS \
    --stall SECS --certify --engine-policy P --no-incremental --rebuild-bloat N --cache-dir DIR \
    --cache-budget BYTES --checkpoint-dir DIR --resume --fault-seed N --stats-json PATH \
    --trace PATH --profile";
const CEC_FLAGS: &str = "--strategy S -k K --seed N --jobs N --timeout SECS --stall SECS \
    --certify --engine-policy P --no-incremental --rebuild-bloat N --cache-dir DIR \
    --cache-budget BYTES --checkpoint-dir DIR --resume --stats-json PATH --trace PATH --profile";
const SERVE_FLAGS: &str = "--cache-dir DIR --cache-budget BYTES --queue-limit N \
    --checkpoint-dir DIR --default-timeout SECS --mem-budget BYTES --stall-horizon SECS";
const SUBMIT_FLAGS: &str = "--id X --strategy S -k K --seed N --jobs N --timeout SECS --certify \
    --priority P --retry N --backoff MS";

/// Every command, in `simgen help` order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("stats", "<file>", "", stats, "sizes/depth of a circuit file"),
    cmd("convert", "<in> <out>", "-k K", convert, "convert between aig/aag/bench/blif"),
    cmd("map", "<in> <out.blif>", "-k K", convert, "LUT-map an AIG file to BLIF"),
    cmd("export", "<in> <out.dot|out.v>", "-k K", export, "Graphviz / structural Verilog"),
    cmd("sat", "<file.cnf>", "", sat, "solve a DIMACS CNF (exit 10/20)"),
    cmd("sweep", "<file>", SWEEP_FLAGS, sweep, "sweep a design, report SAT effort"),
    cmd("cec", "<a> <b>", CEC_FLAGS, cec, "check two designs for equivalence"),
    cmd("serve", "--socket PATH", SERVE_FLAGS, serve, "run the CEC daemon (docs/serving.md)"),
    cmd("submit", "<a> <b> --socket PATH", SUBMIT_FLAGS, submit, "send one job to a running daemon"),
    cmd("status", "--socket PATH", "", status, "health/recovery stats of a daemon"),
    cmd("health", "--socket PATH", "", health, "resource-governance snapshot"),
    cmd("cache", "verify <dir>", "", cache_verify, "scrub a proof-cache directory"),
    cmd("bench", "<name> <out>", "-k K", bench, "emit a built-in benchmark circuit"),
    cmd("list-benchmarks", "", "", list_benchmarks, "list the 42 built-in benchmarks"),
];

/// The words of a `required` or flags list, each paired with the name
/// of the value it takes: the next word for a flag followed by one,
/// empty for operands, literals and switches.
fn words(list: &'static str) -> impl Iterator<Item = (&'static str, &'static str)> {
    let mut words = list.split_whitespace().peekable();
    std::iter::from_fn(move || {
        let word = words.next()?;
        let value = words.next_if(|next| word.starts_with('-') && !next.starts_with(['-', '<']));
        Some((word, value.unwrap_or("")))
    })
}

impl Command {
    /// The name of `flag`'s value (empty for a switch), or `None` if
    /// the command does not take `flag`.
    fn value_name(&self, flag: &str) -> Option<&'static str> {
        let mut all = words(self.required).chain(words(self.flags));
        all.find(|&(word, _)| word == flag).map(|(_, value)| value)
    }

    /// The synopsis after `simgen NAME`, optional flags in brackets.
    fn synopsis(&self) -> Vec<String> {
        let show = |(word, value): (&str, &str)| format!("{word} {value}").trim_end().to_string();
        let optional = words(self.flags).map(|w| format!("[{}]", show(w)));
        words(self.required).map(show).chain(optional).collect()
    }

    fn usage_error<T>(&self) -> Result<T, CliError> {
        err(format!("usage: simgen {} {}", self.name, self.synopsis().join(" ")).trim_end())
    }
}

/// One invocation, checked against its command's table entry.
struct Args<'a> {
    cmd: &'static Command,
    /// The whole command line, command word included.
    argv: &'a [String],
    operands: Vec<&'a str>,
    /// Each flag given (`-j` as `--jobs`) with its value, empty for a
    /// switch.
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Checks `argv` against `cmd` in one pass, before any file is
    /// opened. `Ok(None)` asks for help.
    ///
    /// A flag `cmd` does not take is an error, never dropped: otherwise
    /// a typo like `--time 5` would silently lose the flag and turn `5`
    /// into an operand. A flag that takes a value always takes the next
    /// token, so `--timeout -1` is a (bad) value to report later, not an
    /// unknown option, and `--stats-json --profile` names a file.
    fn parse(cmd: &'static Command, argv: &'a [String]) -> Result<Option<Self>, CliError> {
        let (mut operands, mut flags) = (Vec::new(), Vec::new());
        let mut tokens = argv[1..].iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            // `-j` is the one short alias.
            let flag = if token == "-j" { "--jobs" } else { token };
            // Flag-shaped: `--x`, or `-` and one character other than `.`.
            let flag_shaped = flag.starts_with("--")
                || (flag.starts_with('-') && flag.len() == 2 && flag != "-.");
            match cmd.value_name(flag) {
                _ if flag == "--help" || flag == "-h" => return Ok(None),
                _ if !flag_shaped => operands.push(token),
                Some("") => flags.push((flag, "")),
                Some(value) => match tokens.next() {
                    Some(given) => flags.push((flag, given)),
                    None => return err(format!("{token} needs a value ({flag} {value})")),
                },
                None => {
                    let name = cmd.name;
                    return err(format!("unknown option `{token}` for `simgen {name}`"));
                }
            }
        }
        let args = Args {
            cmd,
            argv,
            operands,
            flags,
        };
        let mut operands = args.operands.iter();
        for (word, value) in words(cmd.required) {
            if word.starts_with('-') {
                if !args.has(word) {
                    return err(format!("`simgen {}` needs {word} {value}", cmd.name));
                }
            } else if !operands
                .next()
                .is_some_and(|got| word.starts_with('<') || *got == word)
            {
                return cmd.usage_error();
            }
        }
        match operands.next() {
            Some(_) => cmd.usage_error(),
            None => Ok(Some(args)),
        }
    }

    /// The value of `flag` (empty for a switch); the first occurrence
    /// wins.
    fn str(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(self.cmd.value_name(flag).is_some(), "{flag} is not listed");
        self.flags.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.str(flag).is_some()
    }

    /// The value of a flag the command requires.
    fn required(&self, flag: &str) -> &'a str {
        self.str(flag).expect("the parser checks required flags")
    }

    /// The typed value of `flag`, `None` when it is absent. A value
    /// `parse` rejects is a usage error saying what the flag needs.
    fn get<T>(
        &self,
        flag: &str,
        need: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        let bad = |v| CliError(format!("bad {flag} value `{v}` (need {need})"));
        self.str(flag)
            .map(|v| parse(v).ok_or_else(|| bad(v)))
            .transpose()
    }

    /// The value of a numeric flag, which must lie in `range`.
    fn num<T: FromStr + PartialOrd>(
        &self,
        flag: &str,
        range: impl RangeBounds<T>,
        need: &str,
    ) -> Result<Option<T>, CliError> {
        self.get(flag, need, |v| v.parse().ok().filter(|n| range.contains(n)))
    }

    /// A duration in (possibly fractional) seconds. `allow_zero` lets
    /// `--timeout 0` mean "already expired" — handy for forcing the
    /// degraded path deterministically.
    fn secs(&self, flag: &str, allow_zero: bool) -> Result<Option<Duration>, CliError> {
        let need = match allow_zero {
            true => "a non-negative number of seconds",
            false => "a positive number of seconds",
        };
        self.get(flag, need, |v| {
            let secs = Duration::try_from_secs_f64(v.parse().ok()?).ok()?;
            (allow_zero || !secs.is_zero()).then_some(secs)
        })
    }

    /// `-k`, the LUT size for mapping AIG inputs.
    fn k(&self) -> Result<usize, CliError> {
        Ok(self.num("-k", 1..=6, "1..=6")?.unwrap_or(6))
    }

    fn seed(&self) -> Result<u64, CliError> {
        Ok(self.num("--seed", .., "an unsigned integer")?.unwrap_or(0))
    }

    /// `--jobs` as given: 0..=[`MAX_JOBS`], 0 = auto. `submit` sends
    /// it unresolved, so the daemon picks its own worker count.
    fn jobs_flag(&self) -> Result<usize, CliError> {
        let jobs = self.num("--jobs", ..=MAX_JOBS, &format!("0..={MAX_JOBS}; 0 = auto"))?;
        Ok(jobs.unwrap_or(1))
    }

    /// `--jobs` for a local run: 0 auto-detects the core count.
    fn jobs(&self) -> Result<usize, CliError> {
        Ok(match self.jobs_flag()? {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            jobs => jobs,
        })
    }

    fn cache_budget(&self) -> Result<u64, CliError> {
        Ok(self
            .num("--cache-budget", 1.., "a positive byte count")?
            .unwrap_or(64 << 20))
    }
}

/// Dispatches a CLI invocation. Returns the process exit code.
///
/// # Errors
///
/// Returns [`CliError`] for usage problems and I/O or parse failures.
pub fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(name) = args.first() else {
        print_help();
        return Ok(ExitCode::from(64));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print_help();
        return Ok(ExitCode::SUCCESS);
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return err(format!("unknown command `{name}`"));
    };
    match Args::parse(cmd, args)? {
        Some(args) => (cmd.run)(&args),
        None => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn print_help() {
    println!("simgen — simulation pattern generation for equivalence checking\n\nUSAGE:");
    for cmd in COMMANDS {
        // Continuation lines start under the first operand; the
        // summary sits in column 43, on a line of its own if need be.
        let mut line = format!("  simgen {}", cmd.name);
        let indent = line.len();
        for word in cmd.synopsis() {
            if line.len() + 1 + word.len() > 78 {
                println!("{line}");
                line = " ".repeat(indent);
            }
            line = format!("{line} {word}");
        }
        if line.len() > 41 {
            println!("{line}");
            line.clear();
        }
        println!("{line:43}{}", cmd.about);
    }
    print!("{HELP_NOTES}");
}

const HELP_NOTES: &str = "
Formats by extension: .aig (binary AIGER), .aag (ASCII AIGER),
.bench (ISCAS), .blif. Strategies: simgen (default), revs, rand, 1dist.
A command rejects any flag it does not list above; -j is --jobs.

--jobs 0 uses every core; results never depend on --jobs. A warm
round is one proof job per fanin region, so --jobs parallelizes
--no-incremental rounds and inputs with several regions; a connected
miter proves on one thread, and simulation always does. --timeout
bounds the whole run (0 = already expired) and --stall any one proof;
on expiry the sound partial result is reported. --engine-policy is
default (also auto or sat-only: one SAT attempt per pair) or bdd-first
(BDDs within 10 000 nodes, then SAT); --no-incremental gives each pair
a cold solver, and --rebuild-bloat N restarts a region solver past N
times its live encoding, 0 = never (docs/solving.md). --certify
re-checks every engine answer before trusting it
(docs/certification.md). --fault-seed needs a build with --features
fault-inject.

--cache-dir keeps a persistent proof cache of at most --cache-budget
bytes (default 64 MiB, LRU); `cache verify` scrubs one and exits 1 if
it quarantined a corrupt entry. --checkpoint-dir journals every sweep
round and --resume replays the journal (docs/recovery.md). `serve`
answers `submit` from a warm cache behind a unix socket; --mem-budget
and --stall-horizon cancel runaway jobs, and `health` exits 1 when the
daemon is degraded. --priority is 0..=9 (default 5); --retry and
--backoff retry an overloaded daemon (docs/serving.md). --stats-json,
--trace and --profile write the run report, the event trace and
folded phase stacks (docs/observability.md).

Exit codes: `cec` 0 equivalent, 1 not equivalent (counterexample
printed), 2 inconclusive, 3 certification rejected an engine answer;
`submit` 0, 1 or 2 like `cec`, or 69 when the daemon errs or sheds the
job; `sweep` 2 if interrupted, 3 on certification failure; `sat`
10/20; 64 on a usage error.
";

/// Saves a circuit to a file, converting as required by the target
/// extension (AIGs write natively; LUT networks only to BLIF).
fn save(circuit: &Circuit, path: &str, k: usize) -> Result<(), CliError> {
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

fn stats(args: &Args) -> Result<ExitCode, CliError> {
    let path = args.operands[0];
    match load(path)? {
        Circuit::Aig(aig) => {
            let (pis, ands, pos) = (aig.num_pis(), aig.num_ands(), aig.num_pos());
            let depth = aig.levels().into_iter().max().unwrap_or(0);
            let name = aig.name();
            println!("{path}: AIG `{name}` — {pis} PIs, {ands} ANDs, {pos} POs, depth {depth}");
        }
        Circuit::Lut(net) => {
            let (pis, luts, pos) = (net.num_pis(), net.num_luts(), net.num_pos());
            let (name, depth) = (net.name(), net.depth());
            println!(
                "{path}: LUT network `{name}` — {pis} PIs, {luts} LUTs, {pos} POs, depth {depth}"
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `convert` and `map`: the output's extension picks the format.
fn convert(args: &Args) -> Result<ExitCode, CliError> {
    let k = args.k()?;
    let output = args.operands[1];
    save(&load(args.operands[0])?, output, k)?;
    println!("wrote {output}");
    Ok(ExitCode::SUCCESS)
}

fn export(args: &Args) -> Result<ExitCode, CliError> {
    let k = args.k()?;
    let (input, output) = (args.operands[0], args.operands[1]);
    let net = load(input)?.into_lut(|aig| map_to_luts(aig, k));
    let f = File::create(output).map_err(|e| CliError(format!("cannot create `{output}`: {e}")))?;
    let mut w = BufWriter::new(f);
    let ext = Path::new(output)
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase);
    let written = match ext.as_deref() {
        Some("dot") => simgen_netlist::export::write_dot(&net, &mut w),
        Some("v") => simgen_netlist::export::write_verilog(&net, &mut w),
        other => return err(format!("export target must be .dot or .v, got {other:?}")),
    };
    written.map_err(|e| CliError(format!("{output}: {e}")))?;
    println!("wrote {output}");
    Ok(ExitCode::SUCCESS)
}

fn sat(args: &Args) -> Result<ExitCode, CliError> {
    let path = args.operands[0];
    let f = File::open(path).map_err(|e| CliError(format!("cannot open `{path}`: {e}")))?;
    let cnf = Cnf::read_dimacs(BufReader::new(f)).map_err(|e| CliError(format!("{path}: {e}")))?;
    let mut solver = Solver::from_cnf(&cnf);
    let (answer, code) = match solver.solve() {
        SolveResult::Sat => ("SATISFIABLE", 10),
        SolveResult::Unsat => ("UNSATISFIABLE", 20),
        SolveResult::Unknown => ("UNKNOWN", 30),
    };
    println!("s {answer}");
    if code == 10 {
        let lit = |(i, &b): (usize, &bool)| format!("{}{}", if b { "" } else { "-" }, i + 1);
        let model: Vec<String> = solver.model().iter().enumerate().map(lit).collect();
        println!("v {} 0", model.join(" "));
    }
    Ok(ExitCode::from(code))
}

/// What `sweep` and `cec` share: every flag both read, checked before
/// any file is opened, and the proof cache and journal they name.
struct Session<'a> {
    args: &'a Args<'a>,
    k: usize,
    cfg: SweepConfig,
    gen: Box<dyn PatternGenerator>,
    cache: Option<ProofCache>,
    journal: Option<SweepJournal>,
    deadline: Deadline,
}

impl<'a> Session<'a> {
    fn new(args: &'a Args<'a>) -> Result<Self, CliError> {
        let (k, timeout) = (args.k()?, args.secs("--timeout", true)?);
        let gen = make_strategy(args.str("--strategy").unwrap_or("simgen"), args.seed()?)?;
        // `--engine-policy` picks the engine ordering per pair;
        // `--no-incremental` drops back to one cold SAT solver per pair
        // instead of the shared assumption-scoped region solvers
        // (docs/solving.md). Verdicts and engine-stripped reports are
        // identical either way; only the effort counters move.
        let mode = args.get(
            "--engine-policy",
            "default, bdd-first or sat-only",
            EngineMode::parse,
        )?;
        // `--rebuild-bloat N` restarts a region solver whose clause
        // database outgrows N× its post-seeding footprint (0 = never).
        let bloat = args.num("--rebuild-bloat", .., "a non-negative integer multiple")?;
        let cfg = SweepConfig {
            jobs: args.jobs()?,
            stall: args.secs("--stall", false)?,
            certify: args.has("--certify"),
            engine: EnginePolicy {
                incremental: !args.has("--no-incremental"),
                mode: mode.unwrap_or_default(),
                rebuild_bloat: bloat.unwrap_or(0),
                ..EnginePolicy::default()
            },
            ..SweepConfig::default()
        };
        let cache_budget = args.cache_budget()?;
        // `--checkpoint-dir` journals sweep rounds for crash-safe resume
        // (docs/recovery.md); `--resume` replays a journal left behind by
        // an interrupted run instead of discarding it.
        let resume = args.has("--resume");
        if resume && !args.has("--checkpoint-dir") {
            return err("--resume needs --checkpoint-dir DIR (nothing to resume from)");
        }
        // `--cache-dir` points the run at a persistent content-addressed
        // proof cache; repeated structurally identical queries are
        // answered from it (docs/serving.md).
        let cache = args.str("--cache-dir").map(|dir| {
            ProofCache::persistent(dir, cache_budget)
                .map_err(|e| CliError(format!("cannot open cache dir `{dir}`: {e}")))
        });
        let cache = cache.transpose()?;
        let journal = args.str("--checkpoint-dir").map(|dir| {
            SweepJournal::create(dir, resume)
                .map_err(|e| CliError(format!("cannot open checkpoint dir `{dir}`: {e}")))
        });
        Ok(Session {
            args,
            k,
            cfg,
            gen,
            cache,
            journal: journal.transpose()?,
            // One deadline for the whole invocation: `--timeout 0` starts
            // already expired, which degrades every proof phase immediately.
            deadline: timeout.map(Deadline::after).unwrap_or_default(),
        })
    }

    /// Runs `body` under a run context built from this session, then
    /// writes whichever observability outputs the command line asked
    /// for: the run report `report` builds for `design` as JSON
    /// (`--stats-json`), the event trace as JSON Lines (`--trace`), and
    /// the folded-stack phase profile on stdout (`--profile`,
    /// flamegraph-ready).
    fn run<R>(
        &mut self,
        (net, path): (&LutNetwork, &str),
        body: impl FnOnce(&mut dyn PatternGenerator, &mut RunContext<'_>) -> Result<R, CliError>,
        report: fn(RunMeta, &SweepConfig, &R, &Observer) -> RunReport,
    ) -> Result<R, CliError> {
        let args = self.args;
        // A journaled run records counters unconditionally: the round
        // snapshots must be truthful so that a later `--resume
        // --stats-json` restores the same totals an uninterrupted run
        // would report.
        let record = args.has("--stats-json") || args.has("--profile") || self.journal.is_some();
        let mut ctx = RunContext {
            deadline: self.deadline.clone(),
            obs: Observer::with(record, args.has("--trace")),
            cache: self.cache.as_ref(),
            journal: self.journal.as_mut(),
        };
        let result = body(self.gen.as_mut(), &mut ctx)?;
        let obs = ctx.obs;
        if let Some(out) = args.str("--stats-json") {
            let meta = RunMeta {
                command: args.cmd.name.to_string(),
                argv: args.argv.to_vec(),
                design: design_info(net, &design_name(path), path),
            };
            let text = report(meta, &self.cfg, &result, &obs).to_pretty();
            // Atomic so a concurrent reader (CI, the daemon) never sees
            // a torn report.
            simgen_obs::atomic_write(out, text)
                .map_err(|e| CliError(format!("cannot write `{out}`: {e}")))?;
            eprintln!("stats: wrote {out}");
        }
        if let Some(out) = args.str("--trace") {
            let f =
                File::create(out).map_err(|e| CliError(format!("cannot create `{out}`: {e}")))?;
            obs.trace
                .write_jsonl(BufWriter::new(f))
                .map_err(|e| CliError(format!("{out}: {e}")))?;
            let (emitted, dropped) = (obs.trace.emitted(), obs.trace.dropped());
            eprintln!("trace: wrote {out} ({emitted} events, {dropped} dropped)");
        }
        if args.has("--profile") {
            print!("{}", obs.recorder.folded());
        }
        Ok(result)
    }
}

fn sweep(args: &Args) -> Result<ExitCode, CliError> {
    let iters = args.num("--iters", .., "a non-negative integer")?;
    // Validate --fault-seed eagerly, like every other flag: a bad
    // value or a build without the feature is an error, never a
    // silently ignored option.
    let fault_seed: Option<u64> = args.num("--fault-seed", .., "an unsigned integer")?;
    #[cfg(not(feature = "fault-inject"))]
    if fault_seed.is_some() {
        return err("--fault-seed requires the fault-inject feature \
             (rebuild with --features fault-inject)");
    }
    // Injected faults quarantine pairs nondeterministically, which a
    // resumed journal would then replay as truth — refuse the combo.
    if fault_seed.is_some() && args.has("--checkpoint-dir") {
        return err("--fault-seed cannot be combined with --checkpoint-dir");
    }
    let mut session = Session::new(args)?;
    if let Some(iters) = iters {
        session.cfg.guided_iterations = iters;
    }
    let path = args.operands[0];
    let net = load(path)?.into_lut(|aig| map_to_luts(aig, session.k));
    // The sweeper's reports are scheduling-invariant, so every --jobs
    // value (including the default 1, which runs inline without
    // threads) prints byte-identical classes and proof counts.
    #[allow(unused_mut)]
    let mut sweeper = Sweeper::new(session.cfg);
    #[cfg(feature = "fault-inject")]
    if let Some(seed) = fault_seed {
        sweeper = sweeper.with_fault_plan(simgen_cec::FaultPlan::from_seed(seed));
    }
    let report = session.run(
        (&net, path),
        |gen, ctx| Ok(sweeper.run(&net, gen, ctx)),
        sweep_run_report,
    )?;
    let (luts, stats) = (net.num_luts(), &report.stats);
    let (strategy, jobs) = (session.gen.name(), session.cfg.jobs);
    println!("{path}: {luts} LUTs | strategy {strategy} | jobs {jobs}");
    println!("  cost after simulation : {}", report.cost_after_sim);
    println!("  SAT calls             : {}", stats.sat_calls);
    println!("  SAT time              : {:?}", stats.sat_time);
    println!("  sim phase time        : {:?}", stats.total_sim_phase());
    println!("  proven equivalent     : {}", stats.proved_equivalent);
    println!("  disproved             : {}", stats.disproved);
    println!("  unresolved            : {}", report.unresolved.len());
    if let Some(d) = &stats.dispatch {
        let (rounds, proofs) = (d.rounds, d.total_proofs());
        println!("  dispatch              : {rounds} rounds, {proofs} proofs");
        let (quarantined, panics) = (d.quarantined, d.total_panics());
        if panics > 0 || quarantined > 0 {
            println!("  quarantined           : {quarantined} pairs ({panics} worker panics)");
        }
    }
    // Certification failure outranks a mere interruption: an engine
    // answer was rejected, which the caller must not mistake for an
    // ordinary timeout.
    let rejected = stats.certification_failures;
    if rejected > 0 {
        println!("  CERTIFICATION FAILED: {rejected} engine answer(s) rejected and quarantined");
        return Ok(ExitCode::from(3));
    }
    if report.interrupted {
        println!("  INTERRUPTED: deadline expired; classes above are partial");
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

fn cec(args: &Args) -> Result<ExitCode, CliError> {
    let mut session = Session::new(args)?;
    let (pa, pb) = (args.operands[0], args.operands[1]);
    let na = load(pa)?.into_lut(|aig| map_to_luts(aig, session.k));
    let nb = load(pb)?.into_lut(|aig| map_to_luts(aig, session.k));
    let cfg = session.cfg;
    let report = session.run(
        (&na, pa),
        |gen, ctx| check_equivalence(&na, &nb, gen, cfg, ctx).map_err(|e| CliError(e.to_string())),
        cec_run_report,
    )?;
    let cert_failures = report.sweep_stats.certification_failures;
    match report.verdict {
        CecVerdict::Equivalent => {
            println!(
                "EQUIVALENT ({} sweep SAT calls)",
                report.sweep_stats.sat_calls
            );
            // An equivalence verdict built on top of rejected engine
            // answers is not trustworthy, even though the output
            // proofs themselves went through.
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
            // A counterexample is definitive: under --certify it was
            // replayed through the reference simulator before this
            // verdict was reached.
            let bits = simgen_cache::record::bits_to_string(&witness);
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
            let pairs: Vec<String> = unresolved_pairs.iter().map(usize::to_string).collect();
            let (n, pairs) = (pairs.len(), pairs.join(" "));
            println!("INCONCLUSIVE ({why}): {n} unresolved output pair(s): {pairs}");
            println!("note: no inequivalence was found; the result is a sound partial one");
            if cert_failures > 0 {
                return Ok(ExitCode::from(3));
            }
            Ok(ExitCode::from(2))
        }
    }
}

fn bench(args: &Args) -> Result<ExitCode, CliError> {
    let k = args.k()?;
    let (name, output) = (args.operands[0], args.operands[1]);
    let aig = build_aig(name).ok_or_else(|| CliError(format!("unknown benchmark `{name}`")))?;
    save(&Circuit::Aig(aig), output, k)?;
    println!("wrote {output}");
    Ok(ExitCode::SUCCESS)
}

fn list_benchmarks(_: &Args) -> Result<ExitCode, CliError> {
    for b in all_benchmarks() {
        println!("{:10} [{}]", b.name, b.suite);
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &Args) -> Result<ExitCode, CliError> {
    let socket = args.required("--socket");
    let mut opts = simgen_serve::ServeOptions::new(socket);
    opts.cache_dir = args.str("--cache-dir").map(Into::into);
    opts.cache_budget = args.cache_budget()?;
    if let Some(limit) = args.num("--queue-limit", 1.., "a positive integer")? {
        opts.queue_limit = limit;
    }
    opts.checkpoint_dir = args.str("--checkpoint-dir").map(Into::into);
    // Deadline applied to jobs that don't name their own timeout, so
    // one runaway proof can't wedge the executor.
    let default_timeout = args.secs("--default-timeout", false)?;
    opts.default_timeout = default_timeout.map(|d| d.as_secs_f64());
    // Per-job memory budget: jobs whose estimated resident set crosses
    // it are cancelled with `resource_exhausted` instead of taking the
    // daemon down with them.
    opts.mem_budget = args.num("--mem-budget", 1.., "a positive byte count")?;
    // Stall watchdog: a job making no proof progress for this long is
    // killed and quarantined; the daemon keeps serving.
    let stall_horizon = args.secs("--stall-horizon", false)?;
    opts.stall_horizon = stall_horizon.map(|d| d.as_secs_f64());
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

fn status(args: &Args) -> Result<ExitCode, CliError> {
    let socket = args.required("--socket");
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
    let degraded = match status.degraded {
        true => "yes (cache breaker open, memory-only)",
        false => "no",
    };
    println!("  degraded    : {degraded}");
    Ok(ExitCode::SUCCESS)
}

/// Resource-governance snapshot: queue pressure, breaker state,
/// shed/cancel totals, memory headroom. Exit 1 when degraded so probes
/// can alert on it.
fn health(args: &Args) -> Result<ExitCode, CliError> {
    let socket = args.required("--socket");
    let health = simgen_serve::query_health(Path::new(socket))
        .map_err(|e| CliError(format!("health query to `{socket}`: {e}")))?;
    let state = match health.degraded {
        true => "degraded (cache breaker open, memory-only)",
        false => "healthy",
    };
    println!("daemon at {socket}: {state}");
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
    Ok(ExitCode::from(u8::from(health.degraded)))
}

/// `simgen cache verify <dir>`: standalone integrity scrub of a
/// persistent proof-cache directory. The daemon and the cached flows
/// run the same scrub on open; this is the operator-facing version for
/// cron jobs and triage.
fn cache_verify(args: &Args) -> Result<ExitCode, CliError> {
    let dir = args.operands[1];
    let report =
        simgen_cache::scrub(dir).map_err(|e| CliError(format!("cannot scrub `{dir}`: {e}")))?;
    println!(
        "{dir}: {} valid entr{}, {} quarantined",
        report.valid,
        if report.valid == 1 { "y" } else { "ies" },
        report.quarantined.len()
    );
    for path in &report.quarantined {
        println!("  quarantined {}", path.display());
    }
    Ok(ExitCode::from(u8::from(!report.quarantined.is_empty())))
}

fn submit(args: &Args) -> Result<ExitCode, CliError> {
    let socket = args.required("--socket");
    let retries = args.num("--retry", .., "a non-negative integer")?;
    let backoff = args.num("--backoff", 1.., "a positive millisecond count")?;
    let (retries, backoff_ms): (u32, u64) = (retries.unwrap_or(0), backoff.unwrap_or(100));
    // Scheduling-only: a higher priority is served first and sheds
    // lower-priority queued work under pressure; it never changes the
    // verdict or the report.
    let priority = args.num("--priority", ..=simgen_serve::MAX_PRIORITY, "0..=9")?;
    let request = simgen_serve::JobRequest {
        id: args.str("--id").unwrap_or("job").to_string(),
        a: args.operands[0].to_string(),
        b: args.operands[1].to_string(),
        strategy: args.str("--strategy").unwrap_or("simgen").to_string(),
        seed: args.seed()?,
        k: args.k()?,
        jobs: args.jobs_flag()?,
        timeout: args.secs("--timeout", true)?.map(|d| d.as_secs_f64()),
        certify: args.has("--certify"),
        priority: priority.unwrap_or(simgen_serve::DEFAULT_PRIORITY),
    };
    // `overloaded` means the daemon's queue was full at that instant —
    // the one daemon answer that is worth retrying. Jittered
    // exponential backoff so a burst of rejected clients doesn't
    // re-converge on the same instant.
    let mut attempt: u32 = 0;
    let line = loop {
        let line = simgen_serve::submit(Path::new(socket), &request)
            .map_err(|e| CliError(format!("submit to `{socket}`: {e}")))?;
        let overloaded = Json::parse(&line)
            .is_ok_and(|resp| resp.get("error").and_then(Json::as_str) == Some("overloaded"));
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
    // The raw response (JSON, report included) goes to stdout for
    // scripting; the exit code mirrors `simgen cec`.
    println!("{line}");
    let resp =
        Json::parse(&line).map_err(|e| CliError(format!("malformed daemon response: {e}")))?;
    if let Some(msg) = resp.get("error").and_then(Json::as_str) {
        eprintln!("submit: daemon error: {msg}");
        // EX_UNAVAILABLE-style: distinct from the verdict codes.
        return Ok(ExitCode::from(69));
    }
    match resp.get("status").and_then(Json::as_str) {
        Some("equivalent") => Ok(ExitCode::SUCCESS),
        Some("not_equivalent") => Ok(ExitCode::from(1)),
        Some("inconclusive") => Ok(ExitCode::from(2)),
        // Load-shed by the daemon (preempted or queue deadline passed):
        // unavailable, like a daemon-side error.
        Some("shed") => {
            eprintln!(
                "submit: job shed by the daemon ({})",
                resp.get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
            );
            Ok(ExitCode::from(69))
        }
        other => err(format!("daemon response without a status: {other:?}")),
    }
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

    /// Parses `argv` against its command's table entry.
    fn parse(argv: &[String]) -> Args<'_> {
        let cmd = COMMANDS.iter().find(|c| c.name == argv[0]).unwrap();
        Args::parse(cmd, argv)
            .expect("valid command line")
            .expect("no --help")
    }

    #[test]
    fn flag_parsing() {
        let argv = s(&[
            "sweep",
            "sweep.blif",
            "--strategy",
            "revs",
            "-k",
            "4",
            "-j",
            "8",
        ]);
        let args = parse(&argv);
        assert_eq!(args.str("--strategy"), Some("revs"));
        assert_eq!(args.str("-k"), Some("4"));
        assert_eq!(args.str("--iters"), None);
        assert_eq!(args.str("--jobs"), Some("8"));
        assert_eq!(args.operands, vec!["sweep.blif"]);
    }

    #[test]
    fn a_flag_value_is_never_read_as_a_flag() {
        let argv = s(&["sweep", "x.blif", "--stats-json", "--profile"]);
        let args = parse(&argv);
        assert_eq!(args.str("--stats-json"), Some("--profile"));
        assert!(!args.has("--profile"));
        let argv = s(&["submit", "a", "b", "--socket", "s", "--id", "--certify"]);
        let args = parse(&argv);
        assert_eq!(args.str("--id"), Some("--certify"));
        assert!(!args.has("--certify"));
    }

    #[test]
    fn every_command_rejects_flags_it_does_not_read() {
        let dir = std::env::temp_dir().join(format!("simgen_cli_grammar_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (a, b, socket) = (p("a.aag"), p("b.aag"), p("sock"));
        for (argv, flag) in [
            (s(&["stats", &a, "--jobs", "4"]), "--jobs"),
            (s(&["sat", &p("f.cnf"), "--certify"]), "--certify"),
            (
                s(&["convert", &a, &b, "--stats-json", &p("r")]),
                "--stats-json",
            ),
            (s(&["cec", &a, &b, "--iters", "5"]), "--iters"),
            (
                s(&["serve", "--socket", &socket, "--timeout", "5"]),
                "--timeout",
            ),
            (s(&["status", "--socket", &socket, "--jobs", "2"]), "--jobs"),
            (
                s(&[
                    "submit",
                    &a,
                    &b,
                    "--socket",
                    &socket,
                    "--engine-policy",
                    "bdd-first",
                ]),
                "--engine-policy",
            ),
        ] {
            let msg = run(&argv).expect_err("an unread flag is a usage error").0;
            let names_both = msg.contains(&format!("unknown option `{flag}`"))
                && msg.contains(&format!("`simgen {}`", argv[0]));
            assert!(names_both, "{argv:?}: {msg}");
        }
        // The parser failed before any file, socket or directory was
        // touched: the inputs were never read and nothing was created.
        assert!(!dir.exists());
    }

    #[test]
    fn bad_jobs_value_is_rejected() {
        for bad in ["-3", "many", "1.5", "1025"] {
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
    fn submit_sends_jobs_zero_unresolved() {
        use std::io::{BufRead, BufReader, Write};
        let dir = std::env::temp_dir().join(format!("simgen_cli_submit_j0_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("sock");
        let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        // A stand-in daemon: keeps the request line, answers an error.
        let daemon = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(&conn).read_line(&mut line).unwrap();
            conn.write_all(b"{\"id\":\"job\",\"error\":\"stub\"}\n")
                .unwrap();
            line
        });
        let argv = s(&[
            "submit",
            "a.aag",
            "b.aag",
            "--socket",
            socket.to_str().unwrap(),
            "-j",
            "0",
        ]);
        assert_eq!(run(&argv).unwrap(), ExitCode::from(69));
        let request = simgen_obs::Json::parse(daemon.join().unwrap().trim()).unwrap();
        let jobs = request.get("config").and_then(|c| c.get("jobs"));
        assert_eq!(jobs.and_then(simgen_obs::Json::as_u64), Some(0));
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
