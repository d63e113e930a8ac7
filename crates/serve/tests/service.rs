//! End-to-end daemon tests: a real unix socket, real job files, the
//! acceptance contract of the service layer — repeat submissions are
//! answered byte-identically from the cache, certify-mode repeats
//! re-validate cached evidence, a full queue rejects explicitly, and
//! shutdown drains instead of dropping.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use simgen_obs::Json;
use simgen_serve::{
    query_health, query_status, status_request, submit, CacheOutcome, JobRequest, ServeOptions,
    Server,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simgen_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes an ASCII AIGER benchmark circuit.
fn write_bench(dir: &std::path::Path, name: &str, bench: &str) -> String {
    let aig = simgen_workloads::build_aig(bench).expect("known benchmark");
    let path = dir.join(format!("{name}.aag"));
    let f = std::fs::File::create(&path).unwrap();
    simgen_netlist::aiger::write_ascii(&aig, &mut std::io::BufWriter::new(f)).unwrap();
    path.to_str().unwrap().to_string()
}

/// Tiny hand-written pair: a & b vs a | b (not equivalent).
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

fn request(id: &str, a: &str, b: &str) -> JobRequest {
    JobRequest {
        id: id.to_string(),
        a: a.to_string(),
        b: b.to_string(),
        ..JobRequest::default()
    }
}

fn parsed_submit(server: &Server, req: &JobRequest) -> Json {
    let line = submit(server.socket(), req).expect("submit succeeds");
    Json::parse(&line).expect("response is json")
}

fn cache_of(resp: &Json) -> &str {
    resp.get("cache").and_then(Json::as_str).unwrap_or("<none>")
}

fn report_text(resp: &Json) -> String {
    resp.get("report")
        .expect("response has a report")
        .to_pretty()
}

#[test]
fn duplicate_jobs_are_answered_from_the_cache_byte_identically() {
    let dir = temp_dir("dup");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let first = parsed_submit(&server, &request("j1", &a, &b));
    assert_eq!(
        first.get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    assert_eq!(cache_of(&first), CacheOutcome::Miss.as_str());

    let second = parsed_submit(&server, &request("j2", &a, &b));
    assert_eq!(
        second.get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    assert_eq!(cache_of(&second), CacheOutcome::Hit.as_str(), "{second:?}");
    assert_eq!(
        report_text(&first),
        report_text(&second),
        "repeat submissions must return byte-identical stripped reports"
    );

    // Structural addressing: the same circuits under different file
    // names still hit.
    let a2 = write_bench(&dir, "renamed", "e64");
    let third = parsed_submit(&server, &request("j3", &a2, &b));
    assert_eq!(cache_of(&third), CacheOutcome::Hit.as_str());

    // A different config is a different job identity.
    let mut seeded = request("j4", &a, &b);
    seeded.seed = 9;
    let fourth = parsed_submit(&server, &seeded);
    assert_eq!(cache_of(&fourth), CacheOutcome::Miss.as_str());

    assert_eq!(
        server
            .stats()
            .jobs_done
            .load(std::sync::atomic::Ordering::Relaxed),
        4
    );
    assert_eq!(
        server
            .stats()
            .job_hits
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn certified_repeats_replay_cached_evidence() {
    let dir = temp_dir("cert");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let mut req = request("c1", &a, &b);
    req.certify = true;
    let first = parsed_submit(&server, &req);
    assert_eq!(
        first.get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    assert_eq!(cache_of(&first), CacheOutcome::Miss.as_str(), "{first:?}");

    // The repeat must not be a blind report hit: certify-mode reuse
    // goes through the pair cache, where every stored DRAT proof is
    // re-checked before the verdict is trusted.
    req.id = "c2".to_string();
    let second = parsed_submit(&server, &req);
    assert_eq!(
        second.get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    assert_eq!(
        cache_of(&second),
        CacheOutcome::Replayed.as_str(),
        "{second:?}"
    );

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inequivalence_hits_replay_the_stored_witness() {
    let dir = temp_dir("cex");
    let (and_p, or_p) = write_and_or(&dir);
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let first = parsed_submit(&server, &request("n1", &and_p, &or_p));
    assert_eq!(
        first.get("status").and_then(Json::as_str),
        Some("not_equivalent")
    );
    assert_eq!(cache_of(&first), CacheOutcome::Miss.as_str());
    let witness = first
        .get("witness")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let second = parsed_submit(&server, &request("n2", &and_p, &or_p));
    assert_eq!(cache_of(&second), CacheOutcome::Hit.as_str());
    assert_eq!(
        second.get("witness").and_then(Json::as_str),
        Some(witness.as_str()),
        "the cached witness is served back after replay"
    );
    assert_eq!(report_text(&first), report_text(&second));

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_file_rewritten_in_place_is_re_proved() {
    let dir = temp_dir("rewrite");
    let (and_p, or_p) = write_and_or(&dir);
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let first = parsed_submit(&server, &request("r1", &and_p, &or_p));
    assert_eq!(
        first.get("status").and_then(Json::as_str),
        Some("not_equivalent")
    );
    assert_eq!(cache_of(&first), CacheOutcome::Miss.as_str());

    // Same paths, new contents: the answer for the old bytes must not
    // be served again.
    let or_bytes = std::fs::read(&or_p).unwrap();
    std::fs::copy(&and_p, &or_p).unwrap();
    let second = parsed_submit(&server, &request("r2", &and_p, &or_p));
    assert_eq!(
        second.get("status").and_then(Json::as_str),
        Some("equivalent"),
        "{second:?}"
    );
    assert_eq!(cache_of(&second), CacheOutcome::Miss.as_str());

    let third = parsed_submit(&server, &request("r3", &and_p, &or_p));
    assert_eq!(
        third.get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    assert_eq!(cache_of(&third), CacheOutcome::Hit.as_str());
    assert_eq!(report_text(&second), report_text(&third));

    // The old contents again: their own entry answers, untouched by the
    // jobs on the rewritten file.
    std::fs::write(&or_p, or_bytes).unwrap();
    let fourth = parsed_submit(&server, &request("r4", &and_p, &or_p));
    assert_eq!(
        fourth.get("status").and_then(Json::as_str),
        Some("not_equivalent"),
        "{fourth:?}"
    );
    assert_eq!(cache_of(&fourth), CacheOutcome::Hit.as_str());
    assert_eq!(report_text(&first), report_text(&fourth));

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    let dir = temp_dir("longline");
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let mut stream = UnixStream::connect(server.socket()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // The daemon may hang up before taking all of it; the write error
    // that causes is expected.
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("an answer within the timeout");
    let resp = Json::parse(line.trim_end()).unwrap();
    assert_eq!(resp.get("id"), Some(&Json::Null));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("request line longer than 65536 bytes")
    );

    query_status(server.socket()).expect("the daemon still answers");
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_requests_and_bad_jobs_get_error_responses() {
    let dir = temp_dir("err");
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();
    let (a, b) = write_and_or(&dir);

    // Malformed JSON line → error with null id, connection stays up.
    let mut stream = UnixStream::connect(server.socket()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim_end()).unwrap();
    assert_eq!(resp.get("id"), Some(&Json::Null));
    assert!(resp.get("error").is_some());

    // One worker row per requested worker would overflow the
    // allocation: an out-of-range `jobs` is refused before queueing.
    let huge = JobRequest {
        jobs: 1 << 60,
        ..request("huge", &a, &b)
    };
    stream.write_all(huge.to_line().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    line.clear();
    reader.read_line(&mut line).expect("an answer within 10 s");
    let resp = Json::parse(line.trim_end()).unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("huge"));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("`jobs` must be 0..=1024 (0 = auto)")
    );

    // Same connection still serves well-formed requests.
    let req = request("missing", "/nonexistent/a.aig", "/nonexistent/b.aig");
    stream.write_all(req.to_line().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim_end()).unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_str), Some("missing"));
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("cannot open"), "{msg}");

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_full_queue_rejects_with_overloaded() {
    let dir = temp_dir("load");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.queue_limit = 1;
    let server = Server::start(opts).unwrap();

    // Burst: write many requests without reading responses. With a
    // one-slot queue and a single executor, most of them must be
    // turned away — and every request still gets exactly one answer.
    let total = 12;
    let mut stream = UnixStream::connect(server.socket()).unwrap();
    for i in 0..total {
        // Distinct seeds so nothing is answered from the cache.
        let mut req = request(&format!("burst{i}"), &a, &b);
        req.seed = i as u64;
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();
    let reader = BufReader::new(stream);
    let mut answered = 0;
    let mut overloaded = 0;
    for line in reader.lines().take(total) {
        let resp = Json::parse(line.unwrap().trim_end()).unwrap();
        match resp.get("error").and_then(Json::as_str) {
            Some("overloaded") => overloaded += 1,
            Some(other) => panic!("unexpected error: {other}"),
            None => {
                answered += 1;
                assert_eq!(
                    resp.get("status").and_then(Json::as_str),
                    Some("equivalent")
                );
            }
        }
    }
    assert_eq!(answered + overloaded, total);
    assert!(overloaded > 0, "a 1-slot queue must reject part of a burst");
    assert!(answered > 0, "accepted jobs still complete");
    assert_eq!(
        server
            .stats()
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        overloaded as u64
    );

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shutdown_drains_accepted_jobs_and_removes_the_socket() {
    let dir = temp_dir("drain");
    let (and_p, or_p) = write_and_or(&dir);
    let socket = dir.join("sock");
    let server = Server::start(ServeOptions::new(&socket)).unwrap();
    assert!(socket.exists());

    // Warm up the connection so the daemon has definitely accepted it
    // (connect() alone only lands in the listen backlog).
    let mut stream = UnixStream::connect(server.socket()).unwrap();
    let warmup = request("w", &and_p, &or_p);
    stream.write_all(warmup.to_line().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(Json::parse(line.trim_end())
        .unwrap()
        .get("status")
        .is_some());

    // Queue two jobs, then request shutdown: both must still be
    // answered before the daemon exits.
    for id in ["d1", "d2"] {
        let req = request(id, &and_p, &or_p);
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();
    // Give the reader thread a beat to enqueue them, then shut down.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.shutdown();
    let mut seen = Vec::new();
    line.clear();
    // The daemon may reset the connection right after the drain;
    // treat a read error after the responses as EOF.
    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
        let resp = Json::parse(line.trim_end()).unwrap();
        // Jobs that raced the queue closing get an explicit
        // `shutting down`; everything accepted must be answered.
        if resp.get("error").and_then(Json::as_str) != Some("shutting down") {
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("not_equivalent")
            );
        }
        seen.push(resp.get("id").and_then(Json::as_str).unwrap().to_string());
        line.clear();
    }
    seen.sort();
    assert_eq!(seen, vec!["d1", "d2"], "every submitted job got a response");

    server.join();
    assert!(!socket.exists(), "socket file cleaned up on shutdown");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn status_verb_reports_health_and_recovery_totals() {
    let dir = temp_dir("status");
    let (and_p, or_p) = write_and_or(&dir);
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let idle = query_status(server.socket()).expect("status answered");
    assert_eq!(idle.jobs_done, 0);
    assert_eq!(idle.queue_depth, 0);
    assert_eq!(idle.recovered, 0);

    parsed_submit(&server, &request("s1", &and_p, &or_p));
    parsed_submit(&server, &request("s2", &and_p, &or_p));
    let busy = query_status(server.socket()).expect("status answered");
    assert_eq!(busy.jobs_done, 2);
    assert_eq!(busy.job_hits, 1);
    assert_eq!(busy.errors, 0);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn orphaned_manifests_are_recovered_on_startup() {
    let dir = temp_dir("recover");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let checkpoint = dir.join("checkpoint");

    // Simulate a daemon that died mid-job: its manifest is on disk
    // but no response was ever written. A real crash leaves exactly
    // this state (the manifest is written before execution starts).
    let req = request("dead", &a, &b);
    let jobs_dir = checkpoint.join("jobs");
    std::fs::create_dir_all(&jobs_dir).unwrap();
    std::fs::write(jobs_dir.join("orphan.job"), req.to_line()).unwrap();
    // Garbage manifests must be discarded, not crash-looped on.
    std::fs::write(jobs_dir.join("junk.job"), "not a request\n").unwrap();

    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.cache_dir = Some(dir.join("cache"));
    opts.checkpoint_dir = Some(checkpoint.clone());
    let server = Server::start(opts).unwrap();

    // Recovery runs on the executor thread; poll the status verb
    // until the interrupted job has been re-executed.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let status = query_status(server.socket()).expect("status answered");
        if status.recovered >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "recovery never completed: {status:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // The recovered result landed in the cache: the client's
    // resubmission of the same job is a pure hit.
    let resub = parsed_submit(&server, &request("dead", &a, &b));
    assert_eq!(cache_of(&resub), CacheOutcome::Hit.as_str(), "{resub:?}");
    assert_eq!(
        resub.get("status").and_then(Json::as_str),
        Some("equivalent")
    );

    // Both manifests are gone: the recovered one after completion,
    // the garbage one on discard.
    let leftovers: Vec<_> = std::fs::read_dir(&jobs_dir)
        .map(|rd| rd.filter_map(|e| e.ok()).collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn client_disconnect_mid_job_does_not_wedge_the_daemon() {
    let dir = temp_dir("gone");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    // Submit a job and hang up immediately without reading the
    // response. The daemon must finish (or cancel) the job, release
    // its queue slot, and keep serving other clients.
    {
        let mut stream = UnixStream::connect(server.socket()).unwrap();
        let req = request("ghost", &a, &b);
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        // Dropped here: the connection closes mid-job.
    }

    // The abandoned job still runs to completion (its result lands in
    // the cache; the write to the dead client is simply dropped).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let status = query_status(server.socket()).expect("status answered");
        if status.jobs_done >= 1 {
            assert_eq!(status.queue_depth, 0, "queue slot released: {status:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned job never completed: {status:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // A fresh client is served normally — and hits the cache entry the
    // abandoned job left behind, proving the job really completed.
    let next = parsed_submit(&server, &request("alive", &a, &b));
    assert_eq!(
        next.get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    assert_eq!(cache_of(&next), CacheOutcome::Hit.as_str(), "{next:?}");

    // Shutdown must not hang on the dead connection's reader thread.
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn expired_queue_deadline_is_shed_not_executed() {
    let dir = temp_dir("shed_ddl");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let server = Server::start(ServeOptions::new(dir.join("sock"))).unwrap();

    let mut stream = UnixStream::connect(server.socket()).unwrap();
    // Job A occupies the single executor; job B's wall-clock budget is
    // microscopic, so by the time the executor gets to it the deadline
    // has passed — it must be shed, not run to a doomed inconclusive.
    let slow = request("slow", &a, &b);
    let mut doomed = request("doomed", &a, &b);
    doomed.seed = 1;
    doomed.timeout = Some(1e-6);
    for req in [&slow, &doomed] {
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();

    let reader = BufReader::new(stream);
    let mut by_id = std::collections::HashMap::new();
    for line in reader.lines().take(2) {
        let resp = Json::parse(line.unwrap().trim_end()).unwrap();
        let id = resp.get("id").and_then(Json::as_str).unwrap().to_string();
        by_id.insert(id, resp);
    }
    assert_eq!(
        by_id["slow"].get("status").and_then(Json::as_str),
        Some("equivalent")
    );
    let shed = &by_id["doomed"];
    assert_eq!(shed.get("status").and_then(Json::as_str), Some("shed"));
    assert_eq!(
        shed.get("reason").and_then(Json::as_str),
        Some("queue_deadline")
    );
    assert!(
        query_health(server.socket())
            .expect("health answered")
            .jobs_shed
            >= 1,
        "shed jobs are counted"
    );

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn higher_priority_submissions_shed_the_lowest_queued_job() {
    let dir = temp_dir("shed_prio");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.queue_limit = 2;
    let server = Server::start(opts).unwrap();

    let mut stream = UnixStream::connect(server.socket()).unwrap();
    let mut lines = BufReader::new(stream.try_clone().unwrap()).lines();
    let mut by_id = std::collections::HashMap::new();
    // Occupy the executor, then wait until the job has actually been
    // popped (queue empty) so the next three pushes land in a known
    // queue state. A connection's lines are handled in order, so the
    // answer to a status request sent after the job proves the job
    // was queued; only then does an empty queue mean it was popped.
    let running = request("running", &a, &b);
    stream.write_all(running.to_line().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.write_all(status_request().as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    loop {
        let resp = Json::parse(lines.next().unwrap().unwrap().trim_end()).unwrap();
        match resp.get("id").and_then(Json::as_str) {
            // A job answer that overtook the status answer.
            Some(id) => {
                by_id.insert(id.to_string(), resp.clone());
            }
            None => break,
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let status = query_status(server.socket()).expect("status answered");
        if status.queue_depth == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{status:?}");
        std::thread::yield_now();
    }

    // Two low-priority jobs fill the queue; a priority-9 submission
    // must evict the NEWEST low-priority one, which gets an explicit
    // terminal `shed` answer.
    let mut low_a = request("low_a", &a, &b);
    low_a.seed = 1;
    low_a.priority = 1;
    let mut low_b = request("low_b", &a, &b);
    low_b.seed = 2;
    low_b.priority = 1;
    let mut urgent = request("urgent", &a, &b);
    urgent.seed = 3;
    urgent.priority = 9;
    for req in [&low_a, &low_b, &urgent] {
        stream.write_all(req.to_line().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    }
    stream.flush().unwrap();

    while by_id.len() < 4 {
        let resp = Json::parse(lines.next().unwrap().unwrap().trim_end()).unwrap();
        let id = resp.get("id").and_then(Json::as_str).unwrap().to_string();
        by_id.insert(id, resp);
    }
    let shed = &by_id["low_b"];
    assert_eq!(
        shed.get("status").and_then(Json::as_str),
        Some("shed"),
        "{shed:?}"
    );
    assert_eq!(shed.get("reason").and_then(Json::as_str), Some("preempted"));
    for id in ["running", "low_a", "urgent"] {
        assert_eq!(
            by_id[id].get("status").and_then(Json::as_str),
            Some("equivalent"),
            "{id} must still be answered"
        );
    }

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn memory_budget_cancels_jobs_with_resource_exhausted() {
    let dir = temp_dir("oom");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let mut opts = ServeOptions::new(dir.join("sock"));
    // A one-byte budget: the governor trips at the first estimate and
    // the job is cancelled instead of growing toward an OOM kill.
    opts.mem_budget = Some(1);
    let server = Server::start(opts).unwrap();

    let resp = parsed_submit(&server, &request("big", &a, &b));
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("inconclusive"),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("reason").and_then(Json::as_str),
        Some("resource_exhausted")
    );
    let health = query_health(server.socket()).expect("health answered");
    assert_eq!(health.jobs_oom_cancelled, 1);
    assert_eq!(health.mem_budget, Some(1));
    assert_eq!(health.mem_headroom, Some(0), "{health:?}");

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stall_watchdog_kills_and_quarantines_hung_jobs() {
    let dir = temp_dir("stall");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let checkpoint = dir.join("checkpoint");
    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.checkpoint_dir = Some(checkpoint.clone());
    // A 1 ms stall horizon: any real job spends longer than that
    // between proof-progress ticks, so the watchdog fires — exactly
    // the observable behavior of a genuinely hung job.
    opts.stall_horizon = Some(0.001);
    let server = Server::start(opts).unwrap();

    let resp = parsed_submit(&server, &request("hung", &a, &b));
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("inconclusive"),
        "{resp:?}"
    );
    assert_eq!(
        resp.get("reason").and_then(Json::as_str),
        Some("watchdog_stall")
    );
    let health = query_health(server.socket()).expect("health answered");
    assert!(health.watchdog_kills >= 1, "{health:?}");

    // The killed job's manifest is quarantined (a restart must not
    // re-run a known-stalling job) and cleared from jobs/.
    let quarantined: Vec<_> = std::fs::read_dir(checkpoint.join("quarantine"))
        .map(|rd| rd.filter_map(|e| e.ok()).collect())
        .unwrap_or_default();
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    let pending: Vec<_> = std::fs::read_dir(checkpoint.join("jobs"))
        .map(|rd| rd.filter_map(|e| e.ok()).collect())
        .unwrap_or_default();
    assert!(pending.is_empty(), "{pending:?}");

    // The daemon keeps serving after the kill.
    assert!(query_status(server.socket()).is_ok());

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn health_verb_reports_governance_state() {
    let dir = temp_dir("health");
    let (and_p, or_p) = write_and_or(&dir);
    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.mem_budget = Some(1 << 30);
    let server = Server::start(opts).unwrap();

    let idle = query_health(server.socket()).expect("health answered");
    assert!(!idle.degraded);
    assert_eq!(idle.breaker_trips, 0);
    assert_eq!(idle.jobs_shed, 0);
    assert_eq!(idle.jobs_oom_cancelled, 0);
    assert_eq!(idle.watchdog_kills, 0);
    assert_eq!(idle.mem_budget, Some(1 << 30));
    assert_eq!(idle.mem_headroom, Some(1 << 30), "nothing run yet");

    parsed_submit(&server, &request("h1", &and_p, &or_p));
    let after = query_health(server.socket()).expect("health answered");
    let headroom = after.mem_headroom.expect("budget configured");
    assert!(
        headroom < 1 << 30,
        "a completed job lowers headroom: {after:?}"
    );
    // `status` carries the degraded flag too (false here — no disk
    // faults in this test).
    assert!(!query_status(server.socket()).unwrap().degraded);

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persistent_cache_survives_a_daemon_restart() {
    let dir = temp_dir("persist");
    let a = write_bench(&dir, "a", "e64");
    let b = write_bench(&dir, "b", "e64");
    let cache_dir = dir.join("cache");
    let mut opts = ServeOptions::new(dir.join("sock"));
    opts.cache_dir = Some(cache_dir.clone());

    let server = Server::start(opts.clone()).unwrap();
    let first = parsed_submit(&server, &request("p1", &a, &b));
    assert_eq!(cache_of(&first), CacheOutcome::Miss.as_str());
    server.shutdown();
    server.join();

    // A fresh daemon over the same cache directory answers the repeat
    // from disk.
    let server = Server::start(opts).unwrap();
    let second = parsed_submit(&server, &request("p2", &a, &b));
    assert_eq!(cache_of(&second), CacheOutcome::Hit.as_str(), "{second:?}");
    assert_eq!(report_text(&first), report_text(&second));
    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}
