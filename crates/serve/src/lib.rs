//! CEC-as-a-service: the `simgen serve` daemon and its submit client.
//!
//! The ROADMAP's service direction in one crate: a long-lived process
//! that listens on a unix socket, accepts equivalence-checking jobs
//! as JSON Lines, runs them through the cached CEC flow
//! ([`simgen_cec::check_equivalence`] with a proof cache attached),
//! and answers repeated or overlapping queries from the
//! content-addressed [`simgen_cache::ProofCache`] instead of the SAT
//! solver.
//!
//! Three layers:
//!
//! * [`protocol`] — the wire format: requests, responses, and the
//!   `hit`/`miss`/`replayed` cache outcome vocabulary;
//! * [`daemon`] — the server: accept loop, per-client fair queueing
//!   ([`simgen_dispatch::FairQueue`]), bounded backpressure with
//!   explicit `overloaded` rejections, the job-level cache policy,
//!   and graceful signal-driven drain;
//! * [`client`] — the one-shot submit and status helpers the CLI
//!   wraps.
//!
//! With a checkpoint directory configured the daemon is also a
//! supervisor: jobs that run live are journaled, and interrupted ones
//! are recovered and resumed on restart; the `status` verb reports
//! health and recovery totals.
//!
//! The daemon also governs its own resources instead of dying under
//! pressure: per-job memory budgets cancel runaway jobs with an
//! explicit `resource_exhausted` answer, priority-aware load shedding
//! answers `shed` instead of silently dropping, a stall watchdog
//! kills and quarantines hung jobs, the persistent cache degrades to
//! memory-only behind a circuit breaker when the disk misbehaves, and
//! the `health` verb reports all of it.
//!
//! See `docs/serving.md` for the protocol reference and trust model,
//! and `docs/recovery.md` for the crash-safety story.

pub mod client;
pub mod daemon;
pub mod protocol;

pub use client::{query_health, query_status, submit};
pub use daemon::{install_signal_handlers, request_shutdown, ServeOptions, ServeStats, Server};
pub use protocol::{
    error_response, health_request, health_response, is_health_request, is_status_request,
    parse_health_response, parse_request, parse_status_response, result_response, shed_response,
    status_request, status_response, CacheOutcome, HealthReport, JobRequest, JobStatusLine,
    StatusReport,
};
pub use simgen_dispatch::{DEFAULT_PRIORITY, MAX_PRIORITY};
