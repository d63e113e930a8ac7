//! The wire protocol: JSON Lines over a unix stream socket.
//!
//! One request per line, one response per line; see `docs/serving.md`
//! for the full schema. Parsing is strict about what it needs (`id`,
//! the two circuit paths) and defaulting about everything else, so a
//! minimal request is just `{"id":"j1","a":"a.aig","b":"b.aig"}`.

use simgen_obs::Json;

/// A parsed equivalence-checking job request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Path of the first circuit (.aig/.aag/.bench/.blif).
    pub a: String,
    /// Path of the second circuit.
    pub b: String,
    /// Pattern-generation strategy (`simgen`/`revs`/`rand`/`1dist`).
    pub strategy: String,
    /// RNG seed for the simulation phases.
    pub seed: u64,
    /// LUT size used when mapping AIG inputs.
    pub k: usize,
    /// Worker threads for this job; `0` = auto-detect cores.
    pub jobs: usize,
    /// Per-job wall-clock deadline in seconds.
    pub timeout: Option<f64>,
    /// Trust-but-verify mode: DRAT-check every equivalence (cached
    /// ones included) and replay every counterexample.
    pub certify: bool,
    /// Load-shedding priority, 0–9 (larger = more important; default
    /// 5). Under overload the daemon sheds the lowest-priority queued
    /// job to admit a strictly higher-priority one; the shed job's
    /// client gets an explicit `shed` answer.
    pub priority: u8,
}

impl JobRequest {
    /// The configuration fields that can change the (deterministic,
    /// stripped) run report — and therefore must be part of the job's
    /// cache identity. `jobs`, `timeout` and `priority` are
    /// deliberately absent: reports are scheduling-invariant, and a
    /// conclusive verdict is valid no matter what deadline or queue
    /// position it was found under.
    pub fn cache_config(&self) -> String {
        format!(
            "strategy={};seed={};k={};certify={}",
            self.strategy, self.seed, self.k, self.certify
        )
    }

    /// Serializes the request as one JSONL line (used by the submit
    /// client; the daemon only parses).
    pub fn to_line(&self) -> String {
        let mut req = Json::obj();
        req.push("id", Json::Str(self.id.clone()));
        req.push("a", Json::Str(self.a.clone()));
        req.push("b", Json::Str(self.b.clone()));
        let mut cfg = Json::obj();
        cfg.push("strategy", Json::Str(self.strategy.clone()));
        cfg.push("seed", Json::U64(self.seed));
        cfg.push("k", Json::U64(self.k as u64));
        cfg.push("jobs", Json::U64(self.jobs as u64));
        if let Some(secs) = self.timeout {
            cfg.push("timeout", Json::F64(secs));
        }
        cfg.push("certify", Json::Bool(self.certify));
        cfg.push("priority", Json::U64(u64::from(self.priority)));
        req.push("config", cfg);
        req.to_line()
    }
}

impl Default for JobRequest {
    fn default() -> Self {
        JobRequest {
            id: String::new(),
            a: String::new(),
            b: String::new(),
            strategy: "simgen".to_string(),
            seed: 0,
            k: 6,
            jobs: 1,
            timeout: None,
            certify: false,
            priority: simgen_dispatch::DEFAULT_PRIORITY,
        }
    }
}

/// How a response was produced, relative to the proof cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Answered from the stored job-level entry (no solver work).
    Hit,
    /// Proven live; nothing reusable was cached.
    Miss,
    /// Proven by re-validating cached evidence under `--certify`:
    /// stored DRAT proofs re-checked, stored witnesses replayed.
    Replayed,
}

impl CacheOutcome {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Replayed => "replayed",
        }
    }
}

/// Parse failure: the id if one was recoverable, plus a message the
/// daemon sends back verbatim.
pub type ParseFailure = (Option<String>, String);

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<JobRequest, ParseFailure> {
    let json = Json::parse(line).map_err(|e| (None, format!("bad request json: {e}")))?;
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or((None, "request needs a string `id`".to_string()))?;
    let fail = |msg: &str| (Some(id.clone()), msg.to_string());
    let path = |field: &str| {
        json.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| fail(&format!("request needs a string `{field}` path")))
    };
    let mut req = JobRequest {
        id: id.clone(),
        a: path("a")?,
        b: path("b")?,
        ..JobRequest::default()
    };
    let Some(cfg) = json.get("config") else {
        return Ok(req);
    };
    let entries = cfg
        .entries()
        .ok_or_else(|| fail("`config` must be an object"))?;
    for (key, value) in entries {
        match key.as_str() {
            "strategy" => {
                req.strategy = value
                    .as_str()
                    .ok_or_else(|| fail("`strategy` must be a string"))?
                    .to_string();
            }
            "seed" => {
                req.seed = value.as_u64().ok_or_else(|| fail("`seed` must be a u64"))?;
            }
            "k" => {
                let k = value.as_u64().ok_or_else(|| fail("`k` must be 1..=6"))?;
                if !(1..=6).contains(&k) {
                    return Err(fail("`k` must be 1..=6"));
                }
                req.k = k as usize;
            }
            "jobs" => {
                // 0 is meaningful: auto-detect cores at execution time.
                let max = simgen_dispatch::MAX_JOBS;
                req.jobs = value
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .filter(|&n| n <= max)
                    .ok_or_else(|| fail(&format!("`jobs` must be 0..={max} (0 = auto)")))?;
            }
            "timeout" => {
                let secs = match value {
                    Json::F64(x) => *x,
                    Json::U64(n) => *n as f64,
                    _ => return Err(fail("`timeout` must be seconds")),
                };
                if !secs.is_finite() || secs < 0.0 {
                    return Err(fail("`timeout` must be non-negative seconds"));
                }
                req.timeout = Some(secs);
            }
            "certify" => {
                req.certify = match value {
                    Json::Bool(b) => *b,
                    _ => return Err(fail("`certify` must be a bool")),
                };
            }
            "priority" => {
                let p = value
                    .as_u64()
                    .filter(|&p| p <= u64::from(simgen_dispatch::MAX_PRIORITY))
                    .ok_or_else(|| fail("`priority` must be 0..=9"))?;
                req.priority = p as u8;
            }
            other => return Err(fail(&format!("unknown config key `{other}`"))),
        }
    }
    Ok(req)
}

/// A point-in-time health snapshot the daemon answers the `status`
/// verb with.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Jobs waiting in the fair queue right now.
    pub queue_depth: u64,
    /// Jobs answered (any cache outcome).
    pub jobs_done: u64,
    /// Jobs answered entirely from the job-level cache entry.
    pub job_hits: u64,
    /// Certified jobs answered by re-validating cached evidence.
    pub replayed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Jobs that failed (bad paths, malformed circuits, PO mismatch).
    pub errors: u64,
    /// Interrupted jobs re-executed from their manifests after a
    /// daemon restart.
    pub recovered: u64,
    /// Transient-failure retries across all jobs.
    pub retries: u64,
    /// True while the persistent cache's circuit breaker is open: the
    /// daemon is serving from memory only and fresh proofs are not
    /// being written through to disk.
    pub degraded: bool,
}

/// The `status` request line: `{"op":"status"}`. Answered directly by
/// the reader thread — it never queues behind jobs, so it stays
/// responsive while the executor is busy.
pub fn status_request() -> String {
    let mut req = Json::obj();
    req.push("op", Json::Str("status".to_string()));
    req.to_line()
}

/// True when `line` is a `status` request rather than a job.
pub fn is_status_request(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|json| json.get("op").and_then(Json::as_str).map(str::to_string))
        .as_deref()
        == Some("status")
}

/// Builds the `status` response line.
pub fn status_response(report: &StatusReport) -> String {
    let mut resp = Json::obj();
    resp.push("status", Json::Str("ok".to_string()));
    resp.push("queue_depth", Json::U64(report.queue_depth));
    resp.push("jobs_done", Json::U64(report.jobs_done));
    resp.push("job_hits", Json::U64(report.job_hits));
    resp.push("replayed", Json::U64(report.replayed));
    resp.push("rejected", Json::U64(report.rejected));
    resp.push("errors", Json::U64(report.errors));
    resp.push("recovered", Json::U64(report.recovered));
    resp.push("retries", Json::U64(report.retries));
    resp.push("degraded", Json::Bool(report.degraded));
    resp.to_line()
}

/// Parses a `status` response line back into a [`StatusReport`];
/// `None` for anything that is not a well-formed status answer.
pub fn parse_status_response(line: &str) -> Option<StatusReport> {
    let json = Json::parse(line).ok()?;
    if json.get("status").and_then(Json::as_str) != Some("ok") {
        return None;
    }
    let field = |name: &str| json.get(name).and_then(Json::as_u64);
    Some(StatusReport {
        queue_depth: field("queue_depth")?,
        jobs_done: field("jobs_done")?,
        job_hits: field("job_hits")?,
        replayed: field("replayed")?,
        rejected: field("rejected")?,
        errors: field("errors")?,
        recovered: field("recovered")?,
        retries: field("retries")?,
        // Absent in responses from pre-breaker daemons: not degraded.
        degraded: matches!(json.get("degraded"), Some(Json::Bool(true))),
    })
}

/// A resource-governance snapshot the daemon answers the `health`
/// verb with: queue pressure, degradation state, and the shedding /
/// cancellation totals. Like `status` it is answered on the reader
/// thread, so it stays live while the executor grinds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Jobs waiting in the fair queue right now.
    pub queue_depth: u64,
    /// True while the persistent cache's circuit breaker is open
    /// (memory-only caching; disk writes suspended).
    pub degraded: bool,
    /// Times the cache breaker has tripped open since startup.
    pub breaker_trips: u64,
    /// Jobs answered `shed` (priority eviction or queue-time deadline).
    pub jobs_shed: u64,
    /// Jobs cancelled by the memory governor (`resource_exhausted`).
    pub jobs_oom_cancelled: u64,
    /// Stalled jobs the watchdog killed and quarantined.
    pub watchdog_kills: u64,
    /// The configured per-job memory budget, if any.
    pub mem_budget: Option<u64>,
    /// Budget minus the largest per-job resident estimate seen so far
    /// (`None` when no budget is configured).
    pub mem_headroom: Option<u64>,
}

/// The `health` request line: `{"op":"health"}`.
pub fn health_request() -> String {
    let mut req = Json::obj();
    req.push("op", Json::Str("health".to_string()));
    req.to_line()
}

/// True when `line` is a `health` request rather than a job.
pub fn is_health_request(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|json| json.get("op").and_then(Json::as_str).map(str::to_string))
        .as_deref()
        == Some("health")
}

/// Builds the `health` response line.
pub fn health_response(report: &HealthReport) -> String {
    let mut resp = Json::obj();
    resp.push("health", Json::Str("ok".to_string()));
    resp.push("queue_depth", Json::U64(report.queue_depth));
    resp.push("degraded", Json::Bool(report.degraded));
    resp.push("breaker_trips", Json::U64(report.breaker_trips));
    resp.push("jobs_shed", Json::U64(report.jobs_shed));
    resp.push("jobs_oom_cancelled", Json::U64(report.jobs_oom_cancelled));
    resp.push("watchdog_kills", Json::U64(report.watchdog_kills));
    resp.push(
        "mem_budget",
        report.mem_budget.map_or(Json::Null, Json::U64),
    );
    resp.push(
        "mem_headroom",
        report.mem_headroom.map_or(Json::Null, Json::U64),
    );
    resp.to_line()
}

/// Parses a `health` response line back into a [`HealthReport`];
/// `None` for anything that is not a well-formed health answer.
pub fn parse_health_response(line: &str) -> Option<HealthReport> {
    let json = Json::parse(line).ok()?;
    if json.get("health").and_then(Json::as_str) != Some("ok") {
        return None;
    }
    let field = |name: &str| json.get(name).and_then(Json::as_u64);
    Some(HealthReport {
        queue_depth: field("queue_depth")?,
        degraded: matches!(json.get("degraded"), Some(Json::Bool(true))),
        breaker_trips: field("breaker_trips")?,
        jobs_shed: field("jobs_shed")?,
        jobs_oom_cancelled: field("jobs_oom_cancelled")?,
        watchdog_kills: field("watchdog_kills")?,
        mem_budget: field("mem_budget"),
        mem_headroom: field("mem_headroom"),
    })
}

/// Builds a `shed` response line: the terminal answer of a job the
/// daemon deliberately refused to execute — evicted by a
/// higher-priority submission (`"preempted"`) or expired in the queue
/// past its own deadline (`"queue_deadline"`). Distinct from `error`
/// so clients can tell load shedding from job failure.
pub fn shed_response(id: &str, reason: &str) -> String {
    let mut resp = Json::obj();
    resp.push("id", Json::Str(id.to_string()));
    resp.push("status", Json::Str("shed".to_string()));
    resp.push("reason", Json::Str(reason.to_string()));
    resp.to_line()
}

/// Builds an error response line (no trailing newline).
pub fn error_response(id: Option<&str>, message: &str) -> String {
    let mut resp = Json::obj();
    resp.push("id", id.map_or(Json::Null, |id| Json::Str(id.to_string())));
    resp.push("error", Json::Str(message.to_string()));
    resp.to_line()
}

/// The verdict summary carried alongside the full report.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatusLine {
    /// All output pairs proven equal.
    Equivalent,
    /// Output pair `po_index` differs on `witness` (full PI vector).
    NotEquivalent {
        /// First differing output pair.
        po_index: usize,
        /// Distinguishing input assignment over the primary inputs.
        witness: Vec<bool>,
    },
    /// Budget, deadline, memory budget or the stall watchdog cut the
    /// run short; `unresolved` pairs remain open.
    Inconclusive {
        /// Count of output pairs neither proven nor falsified.
        unresolved: usize,
        /// What cut the run short, in the run report's vocabulary
        /// (`deadline_expired`, `budget_exhausted`,
        /// `resource_exhausted`, `certification_failed`) plus the
        /// daemon's own `watchdog_stall` classification.
        reason: String,
    },
}

/// Builds a success response line: the id, the cache outcome, the
/// verdict summary, and the full deterministic run report (embedded
/// as a JSON object so clients need no second parse step).
pub fn result_response(
    id: &str,
    cache: CacheOutcome,
    status: &JobStatusLine,
    report_text: &str,
) -> String {
    let mut resp = Json::obj();
    resp.push("id", Json::Str(id.to_string()));
    resp.push("cache", Json::Str(cache.as_str().to_string()));
    match status {
        JobStatusLine::Equivalent => resp.push("status", Json::Str("equivalent".to_string())),
        JobStatusLine::NotEquivalent { po_index, witness } => {
            resp.push("status", Json::Str("not_equivalent".to_string()));
            resp.push("po_index", Json::U64(*po_index as u64));
            let bits: String = witness.iter().map(|&b| if b { '1' } else { '0' }).collect();
            resp.push("witness", Json::Str(bits));
        }
        JobStatusLine::Inconclusive { unresolved, reason } => {
            resp.push("status", Json::Str("inconclusive".to_string()));
            resp.push("unresolved", Json::U64(*unresolved as u64));
            resp.push("reason", Json::Str(reason.clone()));
        }
    }
    // The stored text is the daemon's own deterministic serialization,
    // so it always parses; fall back to a string for safety.
    match Json::parse(report_text) {
        Ok(report) => resp.push("report", report),
        Err(_) => resp.push("report", Json::Str(report_text.to_string())),
    }
    resp.to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_gets_defaults() {
        let req = parse_request(r#"{"id":"j1","a":"x.aig","b":"y.aig"}"#).unwrap();
        assert_eq!(req.id, "j1");
        assert_eq!(req.strategy, "simgen");
        assert_eq!(req.k, 6);
        assert_eq!(req.jobs, 1);
        assert_eq!(req.timeout, None);
        assert!(!req.certify);
        assert_eq!(req.priority, simgen_dispatch::DEFAULT_PRIORITY);
    }

    #[test]
    fn full_request_round_trips_through_to_line() {
        let req = JobRequest {
            id: "j2".into(),
            a: "a.blif".into(),
            b: "b.blif".into(),
            strategy: "revs".into(),
            seed: 7,
            k: 4,
            jobs: 0,
            timeout: Some(2.5),
            certify: true,
            priority: 8,
        };
        assert_eq!(parse_request(&req.to_line()).unwrap(), req);
    }

    #[test]
    fn priority_is_validated_and_scheduling_only() {
        let line = r#"{"id":"j","a":"x.aig","b":"y.aig","config":{"priority":10}}"#;
        let (id, msg) = parse_request(line).unwrap_err();
        assert_eq!(id.as_deref(), Some("j"));
        assert!(msg.contains("priority"), "{msg}");
        let mut hi = JobRequest {
            id: "x".into(),
            ..JobRequest::default()
        };
        let lo = hi.clone();
        hi.priority = 9;
        // Priority must not change the job's cache identity.
        assert_eq!(hi.cache_config(), lo.cache_config());
    }

    #[test]
    fn jobs_is_bounded() {
        let jobs = |n: usize| {
            let line = format!(r#"{{"id":"j","a":"x.aig","b":"y.aig","config":{{"jobs":{n}}}}}"#);
            parse_request(&line).map(|req| req.jobs)
        };
        let max = simgen_dispatch::MAX_JOBS;
        assert_eq!(jobs(0), Ok(0), "0 = auto");
        assert_eq!(jobs(max), Ok(max));
        let (id, msg) = jobs(max + 1).unwrap_err();
        assert_eq!(id.as_deref(), Some("j"));
        assert_eq!(msg, "`jobs` must be 0..=1024 (0 = auto)");
    }

    #[test]
    fn bad_requests_are_rejected_with_context() {
        // No id at all: the error cannot be correlated.
        let (id, msg) = parse_request("{}").unwrap_err();
        assert_eq!(id, None);
        assert!(msg.contains("id"), "{msg}");
        // With an id, later failures carry it.
        let (id, msg) =
            parse_request(r#"{"id":"j","a":"x.aig","b":"y.aig","config":{"k":9}}"#).unwrap_err();
        assert_eq!(id.as_deref(), Some("j"));
        assert!(msg.contains('k'), "{msg}");
        let (id, _) = parse_request(r#"{"id":"j","a":"x.aig","b":"y.aig","config":{"bogus":1}}"#)
            .unwrap_err();
        assert_eq!(id.as_deref(), Some("j"));
        assert!(parse_request("not json").is_err());
        assert!(
            parse_request(r#"{"id":"j","a":"x.aig"}"#).is_err(),
            "missing b"
        );
    }

    #[test]
    fn cache_config_ignores_scheduling_fields() {
        let mut a = JobRequest {
            id: "x".into(),
            ..JobRequest::default()
        };
        let mut b = a.clone();
        b.jobs = 8;
        b.timeout = Some(30.0);
        b.id = "y".into();
        assert_eq!(a.cache_config(), b.cache_config());
        a.certify = true;
        assert_ne!(a.cache_config(), b.cache_config());
    }

    #[test]
    fn status_lines_roundtrip_and_do_not_shadow_jobs() {
        assert!(is_status_request(&status_request()));
        assert!(!is_status_request(r#"{"id":"j1","a":"x.aig","b":"y.aig"}"#));
        assert!(!is_status_request("not json"));
        let report = StatusReport {
            queue_depth: 3,
            jobs_done: 10,
            job_hits: 4,
            replayed: 1,
            rejected: 2,
            errors: 1,
            recovered: 5,
            retries: 7,
            degraded: true,
        };
        assert_eq!(
            parse_status_response(&status_response(&report)),
            Some(report)
        );
        assert_eq!(parse_status_response(r#"{"error":"overloaded"}"#), None);
    }

    #[test]
    fn health_lines_roundtrip() {
        assert!(is_health_request(&health_request()));
        assert!(!is_health_request(&status_request()));
        assert!(!is_status_request(&health_request()));
        let report = HealthReport {
            queue_depth: 2,
            degraded: true,
            breaker_trips: 3,
            jobs_shed: 4,
            jobs_oom_cancelled: 1,
            watchdog_kills: 1,
            mem_budget: Some(1 << 20),
            mem_headroom: Some(512),
        };
        assert_eq!(
            parse_health_response(&health_response(&report)),
            Some(report)
        );
        // No budget configured: both memory fields serialize as null
        // and come back as None.
        let unbudgeted = HealthReport::default();
        assert_eq!(
            parse_health_response(&health_response(&unbudgeted)),
            Some(unbudgeted)
        );
        assert_eq!(parse_health_response(r#"{"status":"ok"}"#), None);
    }

    #[test]
    fn shed_responses_are_terminal_and_distinct_from_errors() {
        let line = shed_response("j9", "queue_deadline");
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("id").and_then(Json::as_str), Some("j9"));
        assert_eq!(json.get("status").and_then(Json::as_str), Some("shed"));
        assert_eq!(
            json.get("reason").and_then(Json::as_str),
            Some("queue_deadline")
        );
        assert!(json.get("error").is_none());
    }

    #[test]
    fn response_lines_parse_back() {
        let line = result_response(
            "j1",
            CacheOutcome::Hit,
            &JobStatusLine::NotEquivalent {
                po_index: 3,
                witness: vec![true, false, true],
            },
            "{\n  \"schema\": \"simgen-run-report/3\"\n}\n",
        );
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(
            json.get("status").and_then(Json::as_str),
            Some("not_equivalent")
        );
        assert_eq!(json.get("witness").and_then(Json::as_str), Some("101"));
        assert_eq!(
            json.get("report")
                .unwrap()
                .get("schema")
                .and_then(Json::as_str),
            Some("simgen-run-report/3")
        );
        let err = error_response(None, "bad request json: oops");
        assert_eq!(Json::parse(&err).unwrap().get("id"), Some(&Json::Null));
    }
}
