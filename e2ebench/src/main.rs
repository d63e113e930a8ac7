//! End-to-end and per-layer benchmark of the SimGen reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! ```
//!
//! One workload per process. Without `--workload` every workload runs
//! in its own child process, one after the other. Each workload runs a
//! fixed number of passes, so every run does the same work; `--seconds`
//! is accepted for harnesses that pass a run length and does not change
//! the work (a full run measures 19–26 s of passes). Before each pass,
//! a child process (`--setup-only`) times three set-up rounds. Every
//! metric is printed as `workload metric value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer
//! metrics traced).
//! A wrong verdict or a witness that does not replay exits 1.

mod api;
mod host;
mod metrics;
mod probe;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};

use api::Json;
use metrics::Metric;
use workloads::{Config, Run, Workload};

const USAGE: &str =
    "usage: simgen-e2ebench [--workload cec-simgen|cec-rands-j2|simphase-stacked|serve-mixed] \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke] [--setup-only]";

#[derive(Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    traced: bool,
    out: PathBuf,
    smoke: bool,
    /// Time set-up rounds of `workload` and print their seconds: the
    /// child process behind a run's set-up rounds.
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        traced: false,
        out: PathBuf::from("target/e2ebench"),
        smoke: false,
        setup_only: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?
            }
            "--seconds" => {
                // Checked, then ignored: the pass count is fixed.
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        // A bare `--trace` turns tracing on.
                        parsed.traced = true;
                        continue;
                    }
                };
                it.next();
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--smoke" => parsed.smoke = true,
            "--setup-only" => parsed.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.setup_only && parsed.workload.is_none() {
        return Err("--setup-only needs --workload".into());
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = metrics::validate() {
        eprintln!("error: metric catalogue: {e}");
        std::process::exit(2);
    }
    let code = match args.workload {
        Some(w) if args.setup_only => {
            let cfg = config(w, &args);
            let timed = workloads::time_setup(&cfg);
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            match timed {
                Ok(times) => {
                    for secs in times {
                        println!("{secs}");
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {}: set-up: {e}", w.name());
                    1
                }
            }
        }
        Some(w) => match measure(w, &args) {
            Ok(result) => {
                println!("{}", result.line);
                i32::from(!result.correct)
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                1
            }
        },
        None => run_all(&args),
    };
    std::process::exit(code);
}

/// The outcome of one workload run.
struct Measured {
    correct: bool,
    /// The final JSON line.
    line: String,
}

fn config(w: Workload, args: &Args) -> Config {
    Config {
        workload: w,
        seed: args.seed,
        passes: if args.smoke { 1 } else { w.passes() },
        traced: args.traced,
        smoke: args.smoke,
        work_dir: args
            .out
            .join(format!("work-{}-{}", w.name(), std::process::id())),
    }
}

/// Runs one workload, prints its metrics, writes its result files, and
/// returns the final JSON line.
fn measure(w: Workload, args: &Args) -> Result<Measured, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let cfg = config(w, args);
    let run = workloads::run(&cfg, &|| setup_in_child(w, args));
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let run = run?;
    let host = host::Fingerprint::take(args.seed);
    // jobs=2 timings from a 1-core host measure the clamp, not the
    // parallel sweep.
    let host_ok = !(w == Workload::CecRandsJ2 && host.nproc < 2);

    let (reported, catalogue): (metrics::Values, &[Metric]) = if args.traced {
        let (values, table) = metrics::per_layer(&run)?;
        write_trace_files(&args.out, w, &run, &table)
            .map_err(|e| format!("writing trace files: {e}"))?;
        (values, metrics::PER_LAYER)
    } else {
        (metrics::end_to_end(w, &run), metrics::END_TO_END)
    };
    let unit_of = |name: &str| {
        catalogue
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    for (name, value) in &reported {
        println!("{} {name} {value} {}", w.name(), unit_of(name));
    }
    let probe_ratio = metrics::probe_ratio(&run);
    println!(
        "{} info units={} highest_percentile={:?} passes={} probe_ratio={probe_ratio:.4} nproc={} simd={} host_ok={host_ok} git={} profile={} seed={}",
        w.name(),
        run.units.len(),
        metrics::highest_percentile(run.units.len()),
        run.pass_s.len(),
        host.nproc,
        host.simd,
        host.git_head,
        host.profile,
        host.seed
    );
    for p in &run.problems {
        println!("{} problem {p}", w.name());
    }

    let correct = run.units.iter().all(|u| !u.wrong);
    let failed = run.units.iter().filter(|u| u.failed).count();
    let mut metric_obj = Json::obj();
    for (name, value) in &reported {
        let mut m = Json::obj();
        m.push("value", Json::F64(*value));
        m.push("unit", Json::Str(unit_of(name).to_string()));
        metric_obj.push(name, m);
    }
    let mut line = Json::obj();
    line.push("correct", Json::Bool(correct));
    line.push("attempted", Json::U64(run.units.len() as u64));
    line.push("failed", Json::U64(failed as u64));
    line.push("metrics", metric_obj);

    let mut doc = Json::obj();
    doc.push("workload", Json::Str(w.name().to_string()));
    doc.push("traced", Json::Bool(args.traced));
    let mut fp = Json::obj();
    fp.push("nproc", Json::U64(host.nproc as u64));
    fp.push("simd", Json::Str(host.simd.clone()));
    fp.push("git_head", Json::Str(host.git_head.clone()));
    fp.push("profile", Json::Str(host.profile.to_string()));
    fp.push("seed", Json::U64(host.seed));
    fp.push("host_ok", Json::Bool(host_ok));
    doc.push("host", fp);
    doc.push(
        "pass_s",
        Json::Arr(run.pass_s.iter().map(|&s| Json::F64(s)).collect()),
    );
    doc.push("probe_ratio", Json::F64(probe_ratio));
    doc.push(
        "setup_rounds_s",
        Json::Arr(run.setup_s.iter().map(|&s| Json::F64(s)).collect()),
    );
    doc.push("units", Json::U64(run.units.len() as u64));
    doc.push("result", line.clone());
    doc.push(
        "problems",
        Json::Arr(run.problems.iter().map(|p| Json::Str(p.clone())).collect()),
    );
    let suffix = if args.traced { ".traced" } else { "" };
    let path = args.out.join(format!("{}{suffix}.json", w.name()));
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Measured {
        correct,
        line: line.to_line(),
    })
}

/// Times set-up rounds of `w` in a child process.
fn setup_in_child(w: Workload, args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .arg("--setup-only")
        .arg("--out")
        .arg(&args.out)
        .stderr(std::process::Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("set-up child: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up child: {}", output.status));
    }
    let times: Vec<f64> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(|l| {
            l.trim()
                .parse()
                .map_err(|_| format!("set-up child printed `{l}`"))
        })
        .collect::<Result<_, _>>()?;
    if times.is_empty() {
        return Err("set-up child printed no time".into());
    }
    Ok(times)
}

/// Traced runs: spans, per-unit rows and the layer table.
fn write_trace_files(
    out: &Path,
    w: Workload,
    run: &Run,
    table: &metrics::LayerTable,
) -> std::io::Result<()> {
    let mut spans = String::new();
    for s in &run.spans {
        let mut o = Json::obj();
        o.push("trace", Json::Str(s.trace.clone()));
        o.push("id", Json::U64(s.id));
        o.push("parent", s.parent.map_or(Json::Null, Json::U64));
        o.push("name", Json::Str(s.name.to_string()));
        o.push("start_s", Json::F64(s.start));
        o.push("end_s", Json::F64(s.end));
        spans.push_str(&o.to_line());
        spans.push('\n');
    }
    std::fs::write(out.join(format!("{}.spans.jsonl", w.name())), spans)?;

    let mut rows = String::new();
    for u in &run.units {
        let mut o = Json::obj();
        o.push("pass", Json::U64(u.pass as u64));
        o.push("unit", Json::Str(u.name.clone()));
        o.push("wall_s", Json::F64(u.latency));
        o.push("decided", Json::Bool(u.decided));
        o.push("wrong", Json::Bool(u.wrong));
        o.push("cache", Json::Str(u.cache.clone()));
        o.push(
            "sat_calls",
            Json::U64(u.work.sweep_calls + u.work.output_calls),
        );
        o.push("cost_after_sim", Json::U64(u.work.cost_after_sim));
        o.push("sat_s", Json::F64(u.phases.sat));
        o.push("sim_s", Json::F64(u.phases.sim));
        o.push("resim_s", Json::F64(u.phases.resim));
        o.push("compile_s", Json::F64(u.phases.compile));
        rows.push_str(&o.to_line());
        rows.push('\n');
    }
    std::fs::write(out.join(format!("{}.rows.jsonl", w.name())), rows)?;

    let wall: f64 = run.pass_s.iter().sum();
    let mut layers = Json::obj();
    layers.push("workload", Json::Str(w.name().to_string()));
    layers.push("traced_wall_s", Json::F64(wall));
    let mut rows = Vec::new();
    for (layer, secs) in table {
        let mut o = Json::obj();
        o.push("layer", Json::Str(layer.clone()));
        o.push("self_s", Json::F64(*secs));
        o.push(
            "share",
            Json::F64(if wall > 0.0 { secs / wall } else { 0.0 }),
        );
        rows.push(o);
    }
    layers.push("layers", Json::Arr(rows));
    std::fs::write(
        out.join(format!("{}.layers.json", w.name())),
        layers.to_pretty() + "\n",
    )
}

/// Runs every workload in its own child process and combines their
/// results into one line, metric names prefixed by workload.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut combined = Json::obj();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(std::process::Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                code = 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().and_then(|l| Json::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        match (output.status.code(), last) {
            (Some(c), Some(result)) => {
                code = code.max(c);
                correct &= matches!(result.get("correct"), Some(Json::Bool(true)));
                attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
                for (name, m) in result.get("metrics").and_then(Json::entries).unwrap_or(&[]) {
                    combined.push(&format!("{}.{name}", w.name()), m.clone());
                }
            }
            _ => {
                eprintln!("error: {} ended without a result", w.name());
                code = code.max(1);
            }
        }
    }
    let mut line = Json::obj();
    line.push("correct", Json::Bool(correct));
    line.push("attempted", Json::U64(attempted));
    line.push("failed", Json::U64(failed));
    line.push("metrics", combined);
    println!("{}", line.to_line());
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeMixed));
        assert_eq!((a.seed, a.traced), (7, true));
        assert!(!args(&["--trace", "0"]).unwrap().traced);
        assert!(args(&["--trace"]).unwrap().traced);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--setup-only"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// Every workload, shrunk to two instances or twenty jobs and one
    /// traced pass: correct verdicts, every metric finite, and the
    /// layer table adds up.
    #[test]
    fn smoke_runs_every_workload() {
        let start = std::time::Instant::now();
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/smoke-{}", std::process::id()));
        for w in Workload::ALL {
            let a = Args {
                workload: Some(w),
                seed: 3,
                traced: true,
                out: out.clone(),
                smoke: true,
                setup_only: false,
            };
            let cfg = config(w, &a);
            let run = workloads::run(&cfg, &|| workloads::time_setup(&cfg)).unwrap();
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            assert!(run.problems.is_empty(), "{}: {:?}", w.name(), run.problems);
            assert!(
                run.units.iter().all(|u| u.decided && !u.failed),
                "{}",
                w.name()
            );
            for (name, v) in metrics::end_to_end(w, &run) {
                assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", w.name());
            }
            let (values, table) = metrics::per_layer(&run).unwrap();
            assert!(values.iter().all(|(_, v)| v.is_finite()), "{}", w.name());
            let wall: f64 = run.pass_s.iter().sum();
            assert!(
                (table.values().sum::<f64>() - wall).abs() <= 0.02 * wall,
                "{}",
                w.name()
            );
        }
        let _ = std::fs::remove_dir_all(&out);
        assert!(
            start.elapsed().as_secs() < 15,
            "smoke took {:?}",
            start.elapsed()
        );
    }
}
