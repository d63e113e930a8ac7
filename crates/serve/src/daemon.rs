//! The `simgen serve` daemon: a unix-socket CEC service in front of
//! the content-addressed proof cache.
//!
//! Architecture (all plain threads, no async runtime):
//!
//! * an **accept loop** hands each connection a numeric client id and
//!   spawns a reader thread;
//! * **reader threads** parse JSONL requests and push them into a
//!   bounded [`FairQueue`] — a full queue answers `overloaded`
//!   immediately instead of buffering, and the round-robin lanes stop
//!   one chatty client from starving the rest;
//! * one **executor thread** pops jobs in fair order and runs each
//!   through [`simgen_cec::check_equivalence`] against the
//!   shared [`ProofCache`], then writes the response back on the
//!   job's connection.
//!
//! A single executor keeps cache effects deterministic (per-job
//! parallelism still comes from the request's `jobs` field). Shutdown
//! (SIGTERM/SIGINT or [`Server::shutdown`]) stops accepting, closes
//! the queue, and drains every already-accepted job before the socket
//! file is removed.
//!
//! ## Job-level caching and trust
//!
//! Besides the pair-level entries the sweep itself reads and writes,
//! the daemon stores one entry per *job* (structural hash of both
//! circuits plus the verdict-relevant config) holding the verdict and
//! the deterministic run-report text. A repeat submission is answered
//! byte-identically from that entry without touching the solver —
//! after replaying the stored witness when the verdict was
//! inequivalence (replay is always required for counterexamples; an
//! entry that fails replay is evicted and the job re-proved live).
//!
//! Finding that entry needs the structural key, which needs both
//! circuits parsed and mapped. The executor remembers, in memory, which
//! key each request's exact file contents and config led to (the
//! *request index*), so a repeat reads its two files and hashes them
//! instead: an equivalent hit is answered without parsing, an
//! inequivalent one parses both files to replay the witness but never
//! maps them.
//!
//! Under `certify` the stored report is never trusted as a
//! short-cut: the job re-runs against the pair-level cache, where
//! every cached equivalence must pass the independent DRAT checker
//! before reuse. Such runs report `cache: "replayed"`.
//!
//! ## Supervision and crash recovery
//!
//! With [`ServeOptions::checkpoint_dir`] set the daemon survives its
//! own death. Right before a job's live run, its request line is
//! written to a manifest (`<dir>/jobs/<tag>.job`, `tag` = hash of the
//! request), and the run journals its rounds under
//! `<dir>/sweeps/<tag>/`; both are removed once the job has an answer.
//! A restarted daemon re-executes each orphaned manifest *before*
//! popping new work — resuming its sweep from the journal, so
//! certified rounds are never re-proven — and lands the result in the
//! cache for the client's resubmission to hit. The `status` verb
//! reports health, queue depth, and the recovery totals.
//!
//! ## Resource governance and graceful degradation
//!
//! The daemon prefers a degraded answer over dying:
//!
//! * **Memory governance** — [`ServeOptions::mem_budget`] flows into
//!   every job's [`SweepConfig::mem_budget`]; a job whose estimated
//!   resident footprint (clause databases + proof logs + lane tables)
//!   crosses it is cancelled with the `resource_exhausted` verdict
//!   reason instead of growing toward an OOM kill.
//! * **Load shedding** — submissions carry a priority (0–9); a full
//!   queue sheds the lowest-priority queued job to admit a strictly
//!   higher-priority one, and jobs whose wall-clock deadline passes
//!   while they wait are answered `shed` instead of executed. Both
//!   paths send an explicit terminal `shed` response.
//! * **Stall watchdog** — with [`ServeOptions::stall_horizon`] set, a
//!   job that makes no proof progress for that long is killed (its
//!   deadline is tripped by the in-flow watchdog), its manifest is
//!   quarantined under `<checkpoint>/quarantine/`, and the daemon
//!   keeps serving. Quarantined jobs are *not* re-run on restart.
//! * **Cache circuit breaker** — repeated disk failures trip the
//!   persistent cache to memory-only operation; `status` reports
//!   `degraded: true` while the breaker is open and periodic probe
//!   writes close it again.
//!
//! The `health` verb reports all of it: queue depth, breaker state,
//! shedding/cancellation totals, and memory headroom.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simgen_cache::record::hex;
use simgen_cache::{job_key, CacheEntry, CacheKey, CachedVerdict, ProofCache, Sha256};
use simgen_cec::{
    cec_run_report, check_equivalence, design_info, design_name, estimate_resident, CecVerdict,
    Deadline, InconclusiveReason, RunContext, RunMeta, SweepConfig, SweepJournal,
};
use simgen_core::make_strategy;
use simgen_dispatch::{FairQueue, Popped, PushError};
use simgen_mapping::map_to_luts;
use simgen_netlist::load::{self, Circuit, LoadError};
use simgen_netlist::LutNetwork;
use simgen_obs::{atomic_write, Counter, Observer, RunReport};

use crate::protocol::{
    error_response, health_response, is_health_request, is_status_request, parse_request,
    result_response, shed_response, status_response, CacheOutcome, HealthReport, JobRequest,
    JobStatusLine, StatusReport,
};

/// Signal-visible shutdown flag; see [`request_shutdown`].
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Marks every running [`Server`] for graceful shutdown. Safe to call
/// from a signal handler (one relaxed store).
pub fn request_shutdown() {
    SIGNALLED.store(true, Ordering::Relaxed);
}

extern "C" fn on_signal(_signum: i32) {
    request_shutdown();
}

/// Installs SIGTERM/SIGINT handlers that trigger a graceful drain.
/// Uses the raw libc `signal` entry point — the workspace builds
/// without a libc crate.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    // SAFETY: `handler` is `on_signal`, an `extern "C" fn(i32)` as
    // `signal` expects, and all it does is one atomic store, which is
    // async-signal-safe.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Unix socket path to listen on (created on start, removed on
    /// shutdown; a stale file from a dead daemon is replaced).
    pub socket: PathBuf,
    /// Directory for the persistent proof cache; `None` keeps the
    /// cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Cache byte budget (LRU evicts beyond it).
    pub cache_budget: u64,
    /// Maximum queued jobs across all clients; beyond it submissions
    /// are rejected with `overloaded`.
    pub queue_limit: usize,
    /// Directory for job manifests and sweep journals; `None`
    /// disables crash recovery (a killed daemon loses in-flight
    /// work, exactly as before).
    pub checkpoint_dir: Option<PathBuf>,
    /// Wall-clock deadline in seconds applied to jobs whose request
    /// carries no `timeout` of its own; `None` leaves such jobs
    /// unbounded.
    pub default_timeout: Option<f64>,
    /// Per-job memory budget in bytes: a job whose estimated resident
    /// footprint crosses it is cancelled with the
    /// `resource_exhausted` verdict reason. `None` disables the
    /// governor.
    pub mem_budget: Option<u64>,
    /// Stall horizon in seconds: a job making no proof progress for
    /// this long is killed by the watchdog and its manifest
    /// quarantined. `None` disables stall detection.
    pub stall_horizon: Option<f64>,
    /// Deterministic disk-fault plan seed for the persistent cache —
    /// chaos-test plumbing for the circuit breaker (`fault-inject`
    /// builds only).
    #[cfg(feature = "fault-inject")]
    pub disk_fault_seed: Option<u64>,
}

impl ServeOptions {
    /// Defaults: in-memory cache, 64 MiB budget, 64 queued jobs, no
    /// checkpointing, no default deadline.
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            socket: socket.into(),
            cache_dir: None,
            cache_budget: 64 << 20,
            queue_limit: 64,
            checkpoint_dir: None,
            default_timeout: None,
            mem_budget: None,
            stall_horizon: None,
            #[cfg(feature = "fault-inject")]
            disk_fault_seed: None,
        }
    }
}

/// Daemon lifetime totals (monotonic; readable while running).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Jobs answered (any cache outcome).
    pub jobs_done: AtomicU64,
    /// Jobs answered entirely from the job-level cache entry.
    pub job_hits: AtomicU64,
    /// Certified jobs answered by re-validating cached evidence.
    pub replayed: AtomicU64,
    /// Submissions rejected because the queue was full.
    pub rejected: AtomicU64,
    /// Jobs that failed (bad paths, malformed circuits, PO mismatch).
    pub errors: AtomicU64,
    /// Interrupted jobs re-executed from their manifests after a
    /// restart.
    pub recovered: AtomicU64,
    /// Jobs answered `shed`: evicted from a full queue by a
    /// higher-priority submission, or expired past their deadline
    /// while queued.
    pub jobs_shed: AtomicU64,
    /// Jobs the memory governor cancelled (`resource_exhausted`).
    pub jobs_oom_cancelled: AtomicU64,
    /// Stalled jobs the watchdog killed and quarantined.
    pub watchdog_kills: AtomicU64,
    /// Largest per-job resident-footprint estimate seen so far, for
    /// the `health` verb's headroom figure.
    pub peak_resident: AtomicU64,
}

impl ServeStats {
    /// A point-in-time snapshot for the `status` verb.
    fn snapshot(&self, queue_depth: u64, degraded: bool) -> StatusReport {
        StatusReport {
            queue_depth,
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            job_hits: self.job_hits.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            degraded,
        }
    }

    /// A point-in-time governance snapshot for the `health` verb.
    fn health(
        &self,
        queue_depth: u64,
        cache: &ProofCache,
        mem_budget: Option<u64>,
    ) -> HealthReport {
        HealthReport {
            queue_depth,
            degraded: cache.breaker_tripped(),
            breaker_trips: cache.breaker_trips(),
            jobs_shed: self.jobs_shed.load(Ordering::Relaxed),
            jobs_oom_cancelled: self.jobs_oom_cancelled.load(Ordering::Relaxed),
            watchdog_kills: self.watchdog_kills.load(Ordering::Relaxed),
            mem_budget,
            mem_headroom: mem_budget
                .map(|b| b.saturating_sub(self.peak_resident.load(Ordering::Relaxed))),
        }
    }
}

/// Everything a job execution needs besides the request itself —
/// shared by the executor thread and the startup recovery pass.
struct ExecCtx {
    cache: Arc<ProofCache>,
    stats: Arc<ServeStats>,
    checkpoint: Option<PathBuf>,
    default_timeout: Option<f64>,
    mem_budget: Option<u64>,
    stall_horizon: Option<f64>,
    /// The request index: request key → structural job key. Only the
    /// executor thread touches it.
    index: HashMap<CacheKey, CacheKey>,
}

/// What every reader thread shares: the queue it feeds and everything
/// the reader-side verbs (`status`, `health`) answer from.
struct ReaderCtx {
    queue: Arc<FairQueue<Job>>,
    stats: Arc<ServeStats>,
    cache: Arc<ProofCache>,
    mem_budget: Option<u64>,
    default_timeout: Option<f64>,
}

struct Job {
    request: JobRequest,
    writer: Arc<Mutex<UnixStream>>,
}

/// A running daemon. Dropping the handle does NOT stop it; call
/// [`Server::shutdown`] then [`Server::join`] (or send SIGTERM to the
/// process when the CLI installed handlers).
pub struct Server {
    stop: Arc<AtomicBool>,
    stats: Arc<ServeStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    socket: PathBuf,
}

impl Server {
    /// Binds the socket and starts the accept loop, reader threads
    /// and executor. Returns once the daemon is accepting.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        // Replace a stale socket file (left by a killed daemon);
        // bind() would otherwise fail with AddrInUse forever.
        if opts.socket.exists() {
            std::fs::remove_file(&opts.socket)?;
        }
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        let cache = Arc::new(match &opts.cache_dir {
            Some(dir) => ProofCache::persistent(dir, opts.cache_budget)?,
            None => ProofCache::in_memory(opts.cache_budget),
        });
        #[cfg(feature = "fault-inject")]
        if let Some(seed) = opts.disk_fault_seed {
            cache.set_disk_fault_plan(Some(simgen_cache::DiskFaultPlan::from_seed(seed)));
        }
        let queue: Arc<FairQueue<Job>> = Arc::new(FairQueue::new(opts.queue_limit));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServeStats::default());

        let executor = {
            let queue = Arc::clone(&queue);
            let mut ctx = ExecCtx {
                cache: Arc::clone(&cache),
                stats: Arc::clone(&stats),
                checkpoint: opts.checkpoint_dir.clone(),
                default_timeout: opts.default_timeout,
                mem_budget: opts.mem_budget,
                stall_horizon: opts.stall_horizon,
                index: HashMap::new(),
            };
            std::thread::spawn(move || {
                // Jobs a previous incarnation died holding run first:
                // the socket is already accepting, so resubmissions
                // queue up behind the recovery and hit its cached
                // results.
                recover_interrupted(&mut ctx);
                while let Some((_client, popped)) = queue.pop() {
                    match popped {
                        Popped::Ready(job) => {
                            let line = execute_job(&mut ctx, &job.request);
                            write_line(&job.writer, &line);
                        }
                        // The job's own deadline passed while it
                        // waited: executing it could only yield an
                        // inconclusive answer after burning executor
                        // time, so shed it explicitly instead.
                        Popped::Expired(job) => {
                            ctx.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
                            write_line(
                                &job.writer,
                                &shed_response(&job.request.id, "queue_deadline"),
                            );
                        }
                    }
                }
            })
        };

        let accept_thread = {
            let reader_ctx = Arc::new(ReaderCtx {
                queue: Arc::clone(&queue),
                stats: Arc::clone(&stats),
                cache: Arc::clone(&cache),
                mem_budget: opts.mem_budget,
                default_timeout: opts.default_timeout,
            });
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let socket = opts.socket.clone();
            std::thread::spawn(move || {
                let mut readers: Vec<JoinHandle<()>> = Vec::new();
                // A clone of each connection whose reader still runs,
                // so shutdown can unblock it; the reader drops its own
                // entry when it returns.
                let live: Arc<Mutex<HashMap<u64, UnixStream>>> = Arc::default();
                let mut next_client: u64 = 0;
                while !stop.load(Ordering::Relaxed) && !SIGNALLED.load(Ordering::Relaxed) {
                    readers = join_finished(readers);
                    match listener.accept() {
                        Ok((stream, _addr)) => {
                            let client = next_client;
                            next_client += 1;
                            if let Ok(clone) = stream.try_clone() {
                                lock_live(&live).insert(client, clone);
                            }
                            let ctx = Arc::clone(&reader_ctx);
                            let live = Arc::clone(&live);
                            readers.push(std::thread::spawn(move || {
                                serve_connection(client, stream, &ctx);
                                lock_live(&live).remove(&client);
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            wait_for_connection(&listener, ACCEPT_BACKOFF);
                        }
                        Err(e) if accept_error_is_transient(&e) => {
                            std::thread::sleep(ACCEPT_BACKOFF);
                        }
                        Err(_) => break,
                    }
                }
                // Graceful drain: stop accepting, refuse new pushes,
                // let the executor finish everything already queued.
                queue.close();
                let _ = executor.join();
                // Unblock readers stuck in read(): close both ends.
                for conn in lock_live(&live).values() {
                    let _ = conn.shutdown(std::net::Shutdown::Both);
                }
                for reader in readers {
                    let _ = reader.join();
                }
                let _ = std::fs::remove_file(&socket);
            })
        };

        Ok(Server {
            stop,
            stats,
            accept_thread: Some(accept_thread),
            socket: opts.socket,
        })
    }

    /// Requests a graceful shutdown (drain, then exit).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Blocks until the daemon has fully drained and cleaned up.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Lifetime totals.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// A handle on the totals that outlives [`Server::join`] (the CLI
    /// prints them after the drain).
    pub fn stats_handle(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// The socket path the daemon is listening on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }
}

/// Pause after a transient accept error before accepting again, and
/// the longest the accept loop waits for a connection before it
/// re-checks the shutdown flags.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Blocks until `listener` has a connection to accept, a signal
/// arrives or `timeout` passes, whichever is first. The listener stays
/// nonblocking, so a spurious wake makes the next accept read
/// `WouldBlock` and wait again.
fn wait_for_connection(listener: &UnixListener, timeout: Duration) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut pfd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `pfd` is one live, exclusively borrowed `struct pollfd`
    // and `nfds` is 1, so `poll` writes only within it. Its descriptor
    // belongs to `listener`, which outlives the call. A failure
    // (`EINTR` from a signal) needs no handling: the caller re-checks
    // its flags and tries `accept` again either way.
    unsafe {
        poll(&mut pfd, 1, timeout_ms);
    }
}

/// True for accept errors that mean "not now" rather than "never":
/// the process or system is out of descriptors (`EMFILE`, `ENFILE`)
/// or buffers (`ENOBUFS`), or the peer hung up first
/// (`ECONNABORTED`). The daemon backs off and keeps accepting.
fn accept_error_is_transient(e: &std::io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;
    e.kind() == std::io::ErrorKind::ConnectionAborted
        || matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS))
}

/// The live-connection table. Every update is a single insert or
/// remove, so the map stays valid even if a holder panicked.
fn lock_live(live: &Mutex<HashMap<u64, UnixStream>>) -> MutexGuard<'_, HashMap<u64, UnixStream>> {
    live.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Joins the readers whose connection has ended and returns the rest.
fn join_finished(readers: Vec<JoinHandle<()>>) -> Vec<JoinHandle<()>> {
    let (done, running): (Vec<_>, Vec<_>) = readers.into_iter().partition(|r| r.is_finished());
    for reader in done {
        // A reader that panicked took only its own connection down.
        let _ = reader.join();
    }
    running
}

fn write_line(writer: &Arc<Mutex<UnixStream>>, line: &str) {
    // A vanished client is not a daemon error; drop the response.
    if let Ok(mut stream) = writer.lock() {
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.write_all(b"\n");
        let _ = stream.flush();
    }
}

/// Longest request line a connection may send, newline excluded. A
/// request is two paths and a small config; a client that sends more
/// without a newline gets an error and loses its connection, instead
/// of making the daemon buffer without limit.
const MAX_REQUEST_LINE: usize = 64 << 10;

fn serve_connection(client: u64, stream: UnixStream, ctx: &ReaderCtx) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit at most: a line that never ends is
        // caught without buffering it.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            let message = format!("request line longer than {MAX_REQUEST_LINE} bytes");
            write_line(&writer, &error_response(None, &message));
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        // Health checks are answered right here on the reader thread:
        // they must stay responsive while the executor grinds through
        // a long job, and they never consume queue capacity.
        if is_status_request(line) {
            write_line(
                &writer,
                &status_response(
                    &ctx.stats
                        .snapshot(ctx.queue.len() as u64, ctx.cache.breaker_tripped()),
                ),
            );
            continue;
        }
        if is_health_request(line) {
            write_line(
                &writer,
                &health_response(&ctx.stats.health(
                    ctx.queue.len() as u64,
                    &ctx.cache,
                    ctx.mem_budget,
                )),
            );
            continue;
        }
        match parse_request(line) {
            Err((id, msg)) => write_line(&writer, &error_response(id.as_deref(), &msg)),
            Ok(request) => {
                let id = request.id.clone();
                let priority = request.priority;
                // The job's wall-clock budget starts at submission,
                // not execution: a job that would begin past its own
                // deadline is shed, never run.
                let queue_deadline = request
                    .timeout
                    .or(ctx.default_timeout)
                    .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                    .map(|d| Instant::now() + d);
                let job = Job {
                    request,
                    writer: Arc::clone(&writer),
                };
                match ctx.queue.push_prio(client, priority, queue_deadline, job) {
                    Ok(None) => {}
                    // A lower-priority queued job was evicted to admit
                    // this one; its client gets a terminal `shed`
                    // answer right now instead of silence.
                    Ok(Some((_victim_client, victim))) => {
                        ctx.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
                        write_line(
                            &victim.writer,
                            &shed_response(&victim.request.id, "preempted"),
                        );
                    }
                    Err(PushError::Overloaded) => {
                        ctx.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        write_line(&writer, &error_response(Some(&id), "overloaded"));
                    }
                    Err(PushError::Closed) => {
                        write_line(&writer, &error_response(Some(&id), "shutting down"));
                    }
                }
            }
        }
    }
}

/// Content address of a whole job: structural hashes of both circuits
/// (PO order included), the verdict-relevant configuration, and the
/// schema of the run report the entry stores. The
/// circuit *paths* are deliberately not part of the identity — the
/// same pair of designs submitted from different file names shares
/// the entry.
fn serve_job_key(a: &LutNetwork, b: &LutNetwork, request: &JobRequest) -> CacheKey {
    let roots = |net: &LutNetwork| -> Vec<_> { net.pos().iter().map(|po| po.node).collect() };
    let mut h = Sha256::new();
    h.update(b"simgen-serve-job/1\0");
    h.update(RunReport::SCHEMA.as_bytes());
    h.update(&[0]);
    h.update(&job_key(a, &roots(a)).0);
    h.update(&job_key(b, &roots(b)).0);
    h.update(request.cache_config().as_bytes());
    CacheKey(h.finalize())
}

/// Most requests the request index remembers. A full index is cleared;
/// a forgotten request costs one parse and map, as a new one does.
const REQUEST_INDEX_CAP: usize = 4096;

/// A job's two circuit files, taken only as far as its answer needs:
/// read always, parsed for a new request or a witness replay, mapped
/// for a new request or a live run.
struct JobFiles<'r> {
    request: &'r JobRequest,
    bytes: [Vec<u8>; 2],
    circuits: Option<[Circuit; 2]>,
    nets: Option<[LutNetwork; 2]>,
}

impl<'r> JobFiles<'r> {
    /// Reads both files. The errors come in the order loading `a` in
    /// full and then `b` gives them: when `b` cannot be read, a parse
    /// failure of `a` is reported first.
    fn read(request: &'r JobRequest) -> Result<JobFiles<'r>, LoadError> {
        let a = load::read(&request.a)?;
        let b = match load::read(&request.b) {
            Ok(b) => b,
            Err(e) => {
                load::parse(&request.a, &a)?;
                return Err(e);
            }
        };
        Ok(JobFiles {
            request,
            bytes: [a, b],
            circuits: None,
            nets: None,
        })
    }

    /// Content address of the request as submitted: each file's format
    /// and exact bytes plus the verdict-relevant configuration. Parsing
    /// and mapping are deterministic, so one request key always leads
    /// to one [`serve_job_key`]; the request index relies on that.
    /// `None` when a path names no known format (the parse reports it).
    fn request_key(&self) -> Option<CacheKey> {
        let mut h = Sha256::new();
        h.update(b"simgen-serve-request/1\0");
        let paths = [&self.request.a, &self.request.b];
        for (path, bytes) in paths.into_iter().zip(&self.bytes) {
            h.update(&[load::format_of(path).ok()? as u8]);
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(bytes);
        }
        h.update(self.request.cache_config().as_bytes());
        Some(CacheKey(h.finalize()))
    }

    fn circuits(&mut self) -> Result<&[Circuit; 2], LoadError> {
        if self.circuits.is_none() {
            let (request, [a, b]) = (self.request, &self.bytes);
            self.circuits = Some([load::parse(&request.a, a)?, load::parse(&request.b, b)?]);
        }
        Ok(self.circuits.as_ref().expect("parsed above"))
    }

    /// The LUT networks the sweep runs on: AIGs mapped at the
    /// request's `k`, LUT networks as read.
    fn nets(&mut self) -> Result<&[LutNetwork; 2], LoadError> {
        if self.nets.is_none() {
            self.circuits()?;
            let k = self.request.k;
            let net = |circuit: &Circuit| match circuit {
                Circuit::Aig(aig) => map_to_luts(aig, k),
                Circuit::Lut(net) => net.clone(),
            };
            let [a, b] = self.circuits.as_ref().expect("parsed above");
            self.nets = Some([net(a), net(b)]);
        }
        Ok(self.nets.as_ref().expect("mapped above"))
    }
}

fn status_of(verdict: &CecVerdict) -> JobStatusLine {
    match verdict {
        CecVerdict::Equivalent => JobStatusLine::Equivalent,
        CecVerdict::NotEquivalent { po_index, witness } => JobStatusLine::NotEquivalent {
            po_index: *po_index,
            witness: witness.clone(),
        },
        CecVerdict::Inconclusive {
            unresolved_pairs,
            reason,
        } => JobStatusLine::Inconclusive {
            unresolved: unresolved_pairs.len(),
            reason: reason.name().to_string(),
        },
    }
}

/// Replays a stored job-level inequivalence witness on the parsed
/// circuits: they must actually differ on it. Returns the first
/// differing PO index. Mapping keeps every PI, PO and PO function, so
/// the mapped networks the sweep ran on give the same index.
fn replay_job_witness([a, b]: &[Circuit; 2], witness: &[bool]) -> Option<usize> {
    if witness.len() != a.num_pis() || witness.len() != b.num_pis() {
        return None;
    }
    let outs_a = a.eval_pos(witness);
    let outs_b = b.eval_pos(witness);
    outs_a.iter().zip(&outs_b).position(|(x, y)| x != y)
}

/// Stable identity of a request for checkpoint bookkeeping, computed
/// from the request line alone: recovery finds a job's journal
/// without loading its circuits.
fn job_tag(request: &JobRequest) -> String {
    hex(&Sha256::digest(request.to_line().as_bytes()))
}

fn manifest_path(checkpoint: &Path, tag: &str) -> PathBuf {
    checkpoint.join("jobs").join(format!("{tag}.job"))
}

fn journal_dir(checkpoint: &Path, tag: &str) -> PathBuf {
    checkpoint.join("sweeps").join(tag)
}

/// A live run's checkpoint state: its manifest, written on creation,
/// and its sweep journal directory. Both are removed when the guard
/// drops, which is once the job has an answer — even an error is an
/// answer, and a restart would only fail the job again.
struct Checkpoint {
    dir: PathBuf,
    tag: String,
}

impl Checkpoint {
    fn write(dir: &Path, request: &JobRequest) -> Checkpoint {
        let tag = job_tag(request);
        // Best-effort, like every checkpoint write: a full disk
        // degrades recovery, never the answer.
        let _ = std::fs::create_dir_all(dir.join("jobs"));
        let _ = atomic_write(manifest_path(dir, &tag), request.to_line().as_bytes());
        let dir = dir.to_path_buf();
        Checkpoint { dir, tag }
    }
}

impl Drop for Checkpoint {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(manifest_path(&self.dir, &self.tag));
        let _ = std::fs::remove_dir_all(journal_dir(&self.dir, &self.tag));
    }
}

/// Re-executes jobs whose manifests a dead daemon left behind. Runs
/// on the executor thread before the first pop, so recovered work is
/// finished (and cached) before any newly-submitted job. There is no
/// client connection to answer; the point is the cache and journal
/// state, which the client's resubmission then hits.
fn recover_interrupted(ctx: &mut ExecCtx) {
    let Some(checkpoint) = ctx.checkpoint.clone() else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(checkpoint.join("jobs")) else {
        return;
    };
    let mut manifests: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "job"))
        .collect();
    manifests.sort();
    for path in manifests {
        let request = std::fs::read_to_string(&path)
            .ok()
            .and_then(|line| parse_request(line.trim()).ok());
        let Some(request) = request else {
            // An unreadable manifest cannot be re-run; drop it so it
            // is not rediscovered on every restart.
            let _ = std::fs::remove_file(&path);
            continue;
        };
        // A live run rewrites the manifest at its canonical path,
        // resumes the job's journal and removes both; a job the cache
        // now answers touches neither. So the scanned manifest and the
        // journal go here either way.
        let _ = execute_job(ctx, &request);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(journal_dir(&checkpoint, &job_tag(&request)));
        ctx.stats.recovered.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs one job to a response line. This is the whole service policy:
/// the request index, job-level lookup (with witness replay),
/// fall-through to a live cached run (checkpointed when a checkpoint
/// directory is set), and job-level store of conclusive verdicts. A
/// failure is answered with an error line at once.
fn execute_job(ctx: &mut ExecCtx, request: &JobRequest) -> String {
    execute_job_inner(ctx, request).unwrap_or_else(|message| {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
        error_response(Some(&request.id), &message)
    })
}

fn execute_job_inner(ctx: &mut ExecCtx, request: &JobRequest) -> Result<String, String> {
    let cache: &ProofCache = &ctx.cache;
    let stats: &ServeStats = &ctx.stats;
    let mut files = JobFiles::read(request).map_err(|e| e.to_string())?;
    // A request seen before skips the parse and map that only serve
    // to find its structural key. Never under certify, which re-proves
    // every job and so needs the mapped networks anyway.
    let request_key = if request.certify {
        None
    } else {
        files.request_key()
    };
    let key = match request_key.and_then(|rk| ctx.index.get(&rk).copied()) {
        Some(key) => key,
        None => {
            let [a, b] = files.nets().map_err(|e| e.to_string())?;
            let key = serve_job_key(a, b, request);
            if let Some(rk) = request_key {
                if ctx.index.len() >= REQUEST_INDEX_CAP {
                    ctx.index.clear();
                }
                ctx.index.insert(rk, key);
            }
            key
        }
    };
    // Pin the job's own entry for the duration: LRU pressure from
    // concurrent inserts must not evict the answer (or the prior
    // entry being revalidated) out from under an admitted job.
    let _pin = cache.pin_scope(key);

    // Job-level fast path. Never taken under certify: a stored report
    // carries no checkable evidence, so certified jobs always re-run
    // against the pair cache (where DRAT replay gates every reuse).
    // Whether this job has been answered before still matters for the
    // response's cache label ("replayed", not "miss").
    let prior_entry = request.certify
        && cache
            .lookup(&key)
            .is_some_and(|entry| entry.report.is_some());
    if !request.certify {
        if let Some(entry) = cache.lookup(&key) {
            if let Some(report) = &entry.report {
                match &entry.verdict {
                    CachedVerdict::Equivalent { .. } => {
                        stats.jobs_done.fetch_add(1, Ordering::Relaxed);
                        stats.job_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(result_response(
                            &request.id,
                            CacheOutcome::Hit,
                            &JobStatusLine::Equivalent,
                            report,
                        ));
                    }
                    CachedVerdict::NotEquivalent { witness } => {
                        // Counterexamples are replayed in every mode;
                        // a witness that no longer distinguishes the
                        // pair means the entry is poisoned.
                        let circuits = files.circuits().map_err(|e| e.to_string())?;
                        if let Some(po_index) = replay_job_witness(circuits, witness) {
                            stats.jobs_done.fetch_add(1, Ordering::Relaxed);
                            stats.job_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(result_response(
                                &request.id,
                                CacheOutcome::Hit,
                                &JobStatusLine::NotEquivalent {
                                    po_index,
                                    witness: witness.clone(),
                                },
                                report,
                            ));
                        }
                        cache.evict(&key);
                    }
                }
            } else {
                // A pair-level entry can never share a job key (domain
                // separation in the hash); report-less job entries are
                // malformed — drop them.
                cache.evict(&key);
            }
        }
    }

    // Live (but pair-cached) run.
    let [a, b] = files.nets().map_err(|e| e.to_string())?;
    let jobs = if request.jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        request.jobs
    };
    let cfg = SweepConfig {
        jobs,
        certify: request.certify,
        seed: request.seed,
        // Governance knobs: the memory governor cancels the job with
        // `resource_exhausted` past the daemon's per-job budget, and
        // the in-flow watchdog trips the deadline when no proof
        // progress lands within the stall horizon.
        mem_budget: ctx.mem_budget,
        stall: ctx
            .stall_horizon
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok()),
        ..SweepConfig::default()
    };
    let mut gen = make_strategy(&request.strategy, request.seed)?;
    // Every job gets a wall-clock deadline: the request's own timeout
    // when it names one, else the daemon's default. A single runaway
    // job must not wedge the executor thread forever.
    let deadline = request
        .timeout
        .or(ctx.default_timeout)
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .map(Deadline::after)
        .unwrap_or_default();
    // Checkpoint the live run: a manifest recovery finds, and the
    // sweep's journal under the job's tag, so a daemon killed mid-job
    // resumes from the last complete round instead of from scratch.
    // Journal failure degrades to an unjournaled run.
    let checkpoint = ctx
        .checkpoint
        .as_deref()
        .map(|dir| Checkpoint::write(dir, request));
    let mut journal = checkpoint
        .as_ref()
        .and_then(|c| SweepJournal::create(journal_dir(&c.dir, &c.tag), true).ok());
    let mut run = RunContext {
        deadline: deadline.clone(),
        // Counters only: the daemon answers with the deterministic
        // report, which has no trace section.
        obs: Observer::with(true, false),
        cache: Some(cache),
        journal: journal.as_mut(),
    };
    let report = check_equivalence(a, b, gen.as_mut(), cfg, &mut run).map_err(|e| e.to_string())?;
    let obs = run.obs;

    // Governance bookkeeping. The resident estimate feeds the `health`
    // verb's headroom figure; the verdict classification feeds the
    // shed/cancel counters and the stall quarantine.
    let resident = estimate_resident(&report.sweep_stats.solver, &report.sweep_stats.pool).max(
        estimate_resident(&report.output_solver, &Default::default()),
    );
    stats.peak_resident.fetch_max(resident, Ordering::Relaxed);
    let mut status = status_of(&report.verdict);
    match &report.verdict {
        CecVerdict::Inconclusive {
            reason: InconclusiveReason::ResourceExhausted,
            ..
        } => {
            stats.jobs_oom_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        CecVerdict::Inconclusive {
            reason: InconclusiveReason::DeadlineExpired,
            ..
        } if !deadline.past_due() => {
            // The deadline flag was tripped while wall-clock time
            // remained: the stall watchdog killed this job. Quarantine
            // its manifest so a restarted daemon does not re-run a
            // known-stalling job, and reclassify the summary line —
            // the embedded report keeps the verdict's own reason.
            stats.watchdog_kills.fetch_add(1, Ordering::Relaxed);
            if let Some(checkpoint) = &checkpoint {
                let quarantine = checkpoint.dir.join("quarantine");
                let _ = std::fs::create_dir_all(&quarantine);
                let _ = atomic_write(
                    quarantine.join(format!("{}.job", checkpoint.tag)),
                    request.to_line().as_bytes(),
                );
            }
            if let JobStatusLine::Inconclusive { reason, .. } = &mut status {
                *reason = "watchdog_stall".to_string();
            }
        }
        _ => {}
    }

    let replayed = obs.recorder.get(Counter::CacheReplays) > 0;
    let run_report = cec_run_report(
        RunMeta {
            command: "serve".to_string(),
            // Deterministic pseudo-argv: identical jobs must yield
            // identical reports, so the real process argv never
            // appears here (and `argv` is stripped anyway).
            argv: vec![
                "serve".to_string(),
                request.a.clone(),
                request.b.clone(),
                request.cache_config(),
            ],
            design: design_info(a, &design_name(&request.a), &request.a),
        },
        &cfg,
        &report,
        &obs,
    );
    let text = run_report.deterministic_json();

    // Cache conclusive verdicts at job level. For plain jobs the
    // entry short-circuits repeats; for certify jobs it only informs
    // the cache label (the verdict is always re-proved). Inconclusive
    // results are never cached at any level.
    match &report.verdict {
        CecVerdict::Equivalent => {
            cache.insert(
                key,
                CacheEntry {
                    verdict: CachedVerdict::Equivalent { proof: Vec::new() },
                    report: Some(text.clone()),
                },
            );
        }
        CecVerdict::NotEquivalent { witness, .. } => {
            cache.insert(
                key,
                CacheEntry {
                    verdict: CachedVerdict::NotEquivalent {
                        witness: witness.clone(),
                    },
                    report: Some(text.clone()),
                },
            );
        }
        CecVerdict::Inconclusive { .. } => {}
    }

    stats.jobs_done.fetch_add(1, Ordering::Relaxed);
    // "replayed" means: this exact job was answered before, and the
    // repeat was served by re-validating cached evidence (DRAT checks
    // and witness replays) instead of trusting it. A first run that
    // merely reused its own intra-run pair entries is still a miss.
    let outcome = if prior_entry && replayed {
        stats.replayed.fetch_add(1, Ordering::Relaxed);
        CacheOutcome::Replayed
    } else {
        CacheOutcome::Miss
    };
    Ok(result_response(&request.id, outcome, &status, &text))
}
