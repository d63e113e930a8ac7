//! Seeded chaos soak for the serve daemon (feature `fault-inject`).
//!
//! One daemon, mixed fault plans — injected disk failures against the
//! persistent cache, microscopic per-job deadlines, client
//! disconnects mid-job, and a shared memory budget — and a mixed
//! workload of equivalent, inequivalent and doomed jobs at varied
//! priorities. The acceptance contract:
//!
//! * the daemon stays live for the whole soak and still answers
//!   `status`/`health` at the end;
//! * every submission on a surviving connection receives exactly one
//!   terminal answer (result, shed, or error — never silence);
//! * conclusive verdicts are a subset of the fault-free run's: a
//!   chaos job may degrade to `shed`/`inconclusive`, but when it
//!   answers `equivalent`/`not_equivalent` the verdict AND the
//!   stripped report are byte-identical to the reference;
//! * the injected disk faults actually exercised the breaker.
//!
//! With `SIMGEN_SOAK_STATS` set, the final ServeStats/health snapshot
//! is written there as JSON (the CI soak-smoke job uploads it).

#![cfg(feature = "fault-inject")]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use simgen_obs::Json;
use simgen_serve::{query_health, query_status, submit, JobRequest, ServeOptions, Server};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simgen_soak_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_bench(dir: &std::path::Path, name: &str, bench: &str) -> String {
    let aig = simgen_workloads::build_aig(bench).expect("known benchmark");
    let path = dir.join(format!("{name}.aag"));
    let f = std::fs::File::create(&path).unwrap();
    simgen_netlist::aiger::write_ascii(&aig, &mut std::io::BufWriter::new(f)).unwrap();
    path.to_str().unwrap().to_string()
}

fn write_and_or(dir: &std::path::Path) -> (String, String) {
    let and_p = dir.join("and.aag");
    let or_p = dir.join("or.aag");
    std::fs::write(&and_p, "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n").unwrap();
    std::fs::write(&or_p, "aag 3 2 0 1 1\n2\n4\n7\n6 3 5\n").unwrap();
    (
        and_p.to_str().unwrap().to_string(),
        or_p.to_str().unwrap().to_string(),
    )
}

/// The soak's per-job shared memory budget: generous enough that no
/// clean job trips it, but identical between the chaos and reference
/// daemons so their report config sections (and hence report bytes)
/// match.
const MEM_BUDGET: u64 = 1 << 30;

/// Stall horizon shared by both daemons (it is part of the report's
/// config section, so it must match for byte-identical reports). Far
/// above any clean job's progress gaps — only a genuine hang trips it.
const STALL_HORIZON: f64 = 30.0;

/// Counter keys that measure solver *effort* or cache *warmth* rather
/// than the job's resolution. The daemon's pair-level proof cache is
/// content-addressed over cones, so small cones collide across
/// different circuits by design — how much SAT work a job needs
/// legitimately depends on what earlier jobs left in the shared
/// cache, and chaos reorders those earlier jobs. Everything else in
/// the report (verdict, design, config, sweep resolution, iteration
/// trajectory, simulation counters) must still match byte-for-byte.
const WARMTH_COUNTERS: &[&str] = &[
    "cache_hits",
    "cache_misses",
    "cache_replays",
    "cache_evictions",
    "scopes_opened",
    "clauses_reused",
    "warm_solves",
    "solver_rebuilds",
];

/// Pretty-prints `report` minus the warmth-dependent telemetry: the
/// whole `sat` section and all of `dispatch` but its round count (pure
/// solver effort), and the [`WARMTH_COUNTERS`] keys of `counters`.
fn stripped(report: &Json) -> String {
    let Some(entries) = report.entries() else {
        return report.to_pretty();
    };
    let mut out = Json::obj();
    for (key, value) in entries {
        match key.as_str() {
            "sat" => {}
            "dispatch" => {
                let mut dispatch = Json::obj();
                if let Some(rounds) = value.get("rounds") {
                    dispatch.push("rounds", rounds.clone());
                }
                out.push(key, dispatch);
            }
            "counters" => {
                let mut counters = Json::obj();
                for (k, v) in value.entries().unwrap_or(&[]) {
                    if !WARMTH_COUNTERS.contains(&k.as_str()) {
                        counters.push(k, v.clone());
                    }
                }
                out.push(key, counters);
            }
            _ => out.push(key, value.clone()),
        }
    }
    out.to_pretty()
}

/// Terminal status of one chaos response, keyed for the subset check.
#[derive(Debug)]
enum Outcome {
    Conclusive { status: String, report: String },
    Degraded,
}

fn classify(resp: &Json) -> Outcome {
    match resp.get("status").and_then(Json::as_str) {
        Some(s @ ("equivalent" | "not_equivalent")) => Outcome::Conclusive {
            status: s.to_string(),
            report: resp.get("report").map(stripped).unwrap_or_default(),
        },
        // shed / inconclusive / parse-level or job-level error: a
        // degraded but terminal answer.
        _ => Outcome::Degraded,
    }
}

#[test]
fn chaos_soak_every_job_answered_and_verdicts_subset_of_fault_free() {
    let started = Instant::now();
    let dir = temp_dir("chaos");
    let e64 = write_bench(&dir, "e64", "e64");
    let misex = write_bench(&dir, "misex3c", "misex3c");
    let arbiter = write_bench(&dir, "arbiter", "arbiter");
    let dec = write_bench(&dir, "dec", "dec");
    let voter = write_bench(&dir, "voter", "voter");
    let prio_enc = write_bench(&dir, "priority", "priority");
    let (and_p, or_p) = write_and_or(&dir);

    // The mixed workload: (id, a, b, seed, priority, timeout).
    // Every byte-compared job gets its own circuit pair: the daemon's
    // pair-level proof cache is shared across jobs, so two jobs on the
    // same circuits would make the later job's report counters depend
    // on execution order — which is exactly what chaos perturbs. Jobs
    // that intentionally repeat a pair are exact duplicates (same
    // seed), answered byte-identically from the job-level cache no
    // matter which one runs live. Priorities span the scale; the
    // doomed jobs carry microscopic deadlines ("stalls" from the
    // client's point of view) and race shed-vs-interrupt on a pair no
    // compared job shares.
    // (id, a, b, seed, priority, timeout)
    type Job<'a> = (String, &'a str, &'a str, u64, u8, Option<f64>);
    let workload: Vec<Job> = vec![
        ("eq0".into(), &e64, &e64, 0, 5, None),
        ("ne0".into(), &and_p, &or_p, 0, 9, None),
        ("eq1".into(), &misex, &misex, 1, 1, None),
        ("doomed0".into(), &prio_enc, &prio_enc, 2, 5, Some(1e-6)),
        ("eq2".into(), &arbiter, &arbiter, 3, 7, None),
        ("ne1".into(), &and_p, &or_p, 0, 0, None),
        ("doomed1".into(), &prio_enc, &prio_enc, 4, 9, Some(1e-6)),
        ("eq3".into(), &dec, &dec, 5, 3, None),
        ("dup_eq0".into(), &e64, &e64, 0, 5, None),
        ("ne2".into(), &and_p, &or_p, 0, 5, None),
    ];
    let request =
        |id: &str, a: &str, b: &str, seed: u64, priority: u8, timeout: Option<f64>| JobRequest {
            id: id.to_string(),
            a: a.to_string(),
            b: b.to_string(),
            seed,
            priority,
            timeout,
            ..JobRequest::default()
        };

    // Fault-free reference run: same report-visible config (memory
    // budget AND stall horizon — both land in the report's config
    // section), no injected faults, each unique job once.
    let reference: HashMap<String, (String, String)> = {
        let mut opts = ServeOptions::new(dir.join("ref_sock"));
        opts.mem_budget = Some(MEM_BUDGET);
        opts.stall_horizon = Some(STALL_HORIZON);
        let server = Server::start(opts).unwrap();
        let mut out = HashMap::new();
        for (id, a, b, seed, prio, _) in &workload {
            let line = submit(server.socket(), &request(id, a, b, *seed, *prio, None))
                .expect("reference submit");
            let resp = Json::parse(&line).unwrap();
            if let Outcome::Conclusive { status, report } = classify(&resp) {
                out.insert(id.clone(), (status, report));
            }
        }
        server.shutdown();
        server.join();
        out
    };
    assert!(
        reference.len() >= workload.len() - 2,
        "fault-free run answers everything but the doomed jobs conclusively: {reference:?}"
    );

    // The chaos daemon: persistent cache with injected disk faults,
    // checkpointing, stall watchdog, memory budget, default deadline.
    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.cache_dir = Some(dir.join("cache"));
    opts.checkpoint_dir = Some(dir.join("checkpoint"));
    opts.mem_budget = Some(MEM_BUDGET);
    opts.stall_horizon = Some(STALL_HORIZON);
    opts.default_timeout = Some(60.0);
    opts.disk_fault_seed = Some(7);
    let server = Server::start(opts).unwrap();

    // Three surviving connections submit the workload round-robin; a
    // fourth submits two jobs and hangs up without reading anything.
    let mut conns: Vec<(UnixStream, Vec<String>)> = (0..3)
        .map(|_| (UnixStream::connect(server.socket()).unwrap(), Vec::new()))
        .collect();
    for (i, (id, a, b, seed, prio, timeout)) in workload.iter().enumerate() {
        let (stream, ids) = &mut conns[i % 3];
        let req = request(id, a, b, *seed, *prio, *timeout);
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        ids.push(id.clone());
    }
    {
        let mut ghost = UnixStream::connect(server.socket()).unwrap();
        for seed in [100u64, 101] {
            let req = request(&format!("ghost{seed}"), &voter, &voter, seed, 5, None);
            ghost.write_all(req.to_line().as_bytes()).unwrap();
            ghost.write_all(b"\n").unwrap();
        }
        ghost.flush().unwrap();
        // Dropped here: both ghost jobs lose their client mid-flight.
    }

    // Every submission on a surviving connection gets exactly one
    // terminal answer.
    let mut answers: HashMap<String, Json> = HashMap::new();
    for (stream, ids) in conns {
        let reader = BufReader::new(stream);
        for line in reader.lines().take(ids.len()) {
            let resp = Json::parse(line.expect("daemon answered").trim_end()).unwrap();
            let id = resp.get("id").and_then(Json::as_str).unwrap().to_string();
            assert!(
                answers.insert(id.clone(), resp).is_none(),
                "{id} answered twice"
            );
        }
        for id in ids {
            assert!(answers.contains_key(&id), "{id} never answered");
        }
    }

    // Subset check: conclusive chaos verdicts must match the
    // fault-free run byte-for-byte; everything else must at least be
    // an explicit degraded answer (shed/inconclusive/error).
    for (id, resp) in &answers {
        match classify(resp) {
            Outcome::Conclusive { status, report } => {
                let (ref_status, ref_report) = reference
                    .get(id)
                    .unwrap_or_else(|| panic!("{id} conclusive under chaos only"));
                assert_eq!(&status, ref_status, "{id} verdict flipped under faults");
                assert_eq!(
                    &report, ref_report,
                    "{id}: stripped report must be byte-identical to the fault-free run"
                );
            }
            Outcome::Degraded => {}
        }
    }

    // The daemon is still live, and the injected faults really did
    // exercise the breaker (seed 7 places a failure burst inside the
    // first 32-write window; the workload writes far more entries).
    let status = query_status(server.socket()).expect("daemon still answers status");
    let health = query_health(server.socket()).expect("daemon still answers health");
    assert!(
        health.breaker_trips >= 1,
        "disk faults never tripped the breaker: {health:?}"
    );
    assert_eq!(health.mem_budget, Some(MEM_BUDGET));
    // Ghost jobs still finished (or were answered into the void).
    assert!(status.jobs_done >= workload.len() as u64, "{status:?}");

    if let Ok(path) = std::env::var("SIMGEN_SOAK_STATS") {
        let mut out = Json::obj();
        out.push("schema", Json::Str("simgen-soak-stats/1".to_string()));
        out.push("jobs_done", Json::U64(status.jobs_done));
        out.push("job_hits", Json::U64(status.job_hits));
        out.push("errors", Json::U64(status.errors));
        out.push("rejected", Json::U64(status.rejected));
        out.push("degraded", Json::Bool(health.degraded));
        out.push("breaker_trips", Json::U64(health.breaker_trips));
        out.push("jobs_shed", Json::U64(health.jobs_shed));
        out.push("jobs_oom_cancelled", Json::U64(health.jobs_oom_cancelled));
        out.push("watchdog_kills", Json::U64(health.watchdog_kills));
        out.push("elapsed_secs", Json::U64(started.elapsed().as_secs()));
        std::fs::write(path, out.to_pretty()).expect("stats artifact written");
    }

    server.shutdown();
    server.join();
    assert!(
        started.elapsed() < Duration::from_secs(300),
        "soak must stay within its wall-clock bound"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
