//! The work-stealing executor.
//!
//! Jobs are dealt round-robin into per-worker deques. A worker pops
//! from the *front* of its own deque (cache-friendly FIFO over its
//! shard) and, when dry, steals from the *back* of a victim's deque —
//! the classic owner/thief split that keeps contention on opposite
//! ends. No work is ever created after launch, so a worker may exit
//! as soon as one full scan over every deque comes up empty.
//!
//! Results carry their input index and are re-assembled in input
//! order before returning, which is what makes a sweep built on top
//! scheduling-invariant.
//!
//! Two failure modes are absorbed rather than propagated:
//!
//! * A `step` that **panics** poisons only its own job: the panic is
//!   caught, the job is reported as [`JobStatus::Panicked`], the
//!   worker's state is rebuilt with a fresh `init(w)` (the old state
//!   may be mid-mutation and cannot be trusted), and the worker keeps
//!   draining jobs.
//! * An expired **deadline** stops workers from *starting* new jobs;
//!   everything not yet begun comes back as [`JobStatus::Skipped`].
//!   In-flight jobs are interrupted through the deadline's shared
//!   flag, not killed, so their results are still sound.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use simgen_obs::{Json, Trace};

use crate::deadline::Deadline;

/// Per-job outcome of a dispatch run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus<R> {
    /// The step ran to completion.
    Done(R),
    /// The step panicked; the job is quarantined and the worker was
    /// respawned with fresh state.
    Panicked {
        /// Panic payload rendered as text (best effort).
        message: String,
    },
    /// The deadline expired before any worker started this job.
    Skipped,
}

impl<R> JobStatus<R> {
    /// The result, if the job completed.
    pub fn done(self) -> Option<R> {
        match self {
            JobStatus::Done(r) => Some(r),
            _ => None,
        }
    }

    /// True if the job completed.
    pub fn is_done(&self) -> bool {
        matches!(self, JobStatus::Done(_))
    }
}

/// What one worker did, plus its final caller-owned state (where the
/// sweeping layer keeps per-worker provers and proof counters).
#[derive(Clone, Debug)]
pub struct WorkerReport<S> {
    /// Worker index in `0..jobs`.
    pub worker: usize,
    /// Jobs this worker executed (completed or panicked).
    pub executed: u64,
    /// Jobs this worker stole from other workers' deques.
    pub stolen: u64,
    /// Jobs whose step panicked on this worker (each one also cost a
    /// state respawn).
    pub panics: u64,
    /// Final worker state.
    pub state: S,
}

/// Everything a dispatch run produces.
#[derive(Clone, Debug)]
pub struct DispatchOutcome<R, S> {
    /// One status per input job, **in input order** — independent of
    /// worker count and steal interleaving.
    pub results: Vec<JobStatus<R>>,
    /// Per-worker execution reports, indexed by worker id.
    pub workers: Vec<WorkerReport<S>>,
}

/// What one pool task hands back when its drain loop ends: the
/// worker's report plus its `(input index, status)` pairs.
type WorkerOutput<S, R> = (WorkerReport<S>, Vec<(usize, JobStatus<R>)>);

/// Renders a caught panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One worker's drain loop body: run `step` under `catch_unwind`,
/// respawning the state on panic. Shared by the inline and threaded
/// paths so both have identical failure semantics.
#[allow(clippy::too_many_arguments)]
fn run_step<J, R, S, I, F>(
    worker: usize,
    index: usize,
    state: &mut S,
    item: &J,
    init: &I,
    step: &F,
    panics: &mut u64,
    trace: &Trace,
) -> JobStatus<R>
where
    I: Fn(usize) -> S,
    F: Fn(&mut S, &J) -> R,
{
    match catch_unwind(AssertUnwindSafe(|| step(state, item))) {
        Ok(result) => JobStatus::Done(result),
        Err(payload) => {
            *panics += 1;
            let message = panic_message(payload);
            trace.emit(
                "job_panicked",
                vec![
                    ("job", Json::U64(index as u64)),
                    ("worker", Json::U64(worker as u64)),
                    ("message", Json::Str(message.clone())),
                ],
            );
            // The old state was abandoned mid-mutation; rebuild it
            // before touching the next job.
            *state = init(worker);
            JobStatus::Panicked { message }
        }
    }
}

/// Runs `step` over `items` on `jobs` workers and returns one
/// [`JobStatus`] per item, in input order.
///
/// `init(worker)` builds each worker's private state once, on the
/// worker's own thread (provers are neither `Send` nor cheap — they
/// must be born where they work), and again after any panic. `jobs <=
/// 1` runs everything inline on the calling thread with no
/// synchronisation at all. `deadline`, if given, is checked before
/// each job is started; jobs never started are [`JobStatus::Skipped`].
pub fn run_ordered<J, R, S, I, F>(
    jobs: usize,
    items: Vec<J>,
    deadline: Option<&Deadline>,
    init: I,
    step: F,
) -> DispatchOutcome<R, S>
where
    J: Sync,
    R: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &J) -> R + Sync,
{
    run_ordered_traced(jobs, items, deadline, &Trace::disabled(), init, step)
}

/// [`run_ordered`] with an event [`Trace`]: emits `job_panicked` (with
/// job index, worker, and panic message) as panics are absorbed, and
/// one `jobs_skipped` summary when an expired deadline left jobs
/// unstarted. A disabled trace makes this identical to [`run_ordered`]
/// at a branch's cost per event site.
pub fn run_ordered_traced<J, R, S, I, F>(
    jobs: usize,
    items: Vec<J>,
    deadline: Option<&Deadline>,
    trace: &Trace,
    init: I,
    step: F,
) -> DispatchOutcome<R, S>
where
    J: Sync,
    R: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &J) -> R + Sync,
{
    let outcome = run_ordered_inner(jobs, items, deadline, trace, init, step);
    if trace.is_enabled() {
        let skipped = outcome
            .results
            .iter()
            .filter(|s| matches!(s, JobStatus::Skipped))
            .count();
        if skipped > 0 {
            trace.emit("jobs_skipped", vec![("count", Json::U64(skipped as u64))]);
        }
    }
    outcome
}

fn run_ordered_inner<J, R, S, I, F>(
    jobs: usize,
    items: Vec<J>,
    deadline: Option<&Deadline>,
    trace: &Trace,
    init: I,
    step: F,
) -> DispatchOutcome<R, S>
where
    J: Sync,
    R: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &J) -> R + Sync,
{
    let expired = || deadline.is_some_and(Deadline::expired);
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        let mut state = init(0);
        let mut results = Vec::with_capacity(items.len());
        let mut executed = 0u64;
        let mut panics = 0u64;
        for (index, item) in items.iter().enumerate() {
            if expired() {
                results.push(JobStatus::Skipped);
                continue;
            }
            results.push(run_step(
                0,
                index,
                &mut state,
                item,
                &init,
                &step,
                &mut panics,
                trace,
            ));
            executed += 1;
        }
        return DispatchOutcome {
            results,
            workers: vec![WorkerReport {
                worker: 0,
                executed,
                stolen: 0,
                panics,
                state,
            }],
        };
    }

    // Deal jobs round-robin so each worker starts with a contiguous
    // slice of the (deterministically ordered) pair list interleaved
    // across the pool.
    let mut queues: Vec<Mutex<VecDeque<(usize, &J)>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.iter().enumerate() {
        queues[i % jobs]
            .get_mut()
            .expect("unshared yet")
            .push_back((i, item));
    }
    let queues = &queues;
    let init = &init;
    let step = &step;
    let expired = &expired;

    // Workers are *logical*: each is one task on the persistent
    // shared pool, not a freshly spawned OS thread. The pool joins
    // every task before `scope` returns, so the borrows of `queues`,
    // `init`, `step` and `trace` below are sound.
    let collected: Mutex<Vec<WorkerOutput<S, R>>> = Mutex::new(Vec::with_capacity(jobs));
    crate::pool::shared_pool().scope(|scope| {
        for w in 0..jobs {
            let collected = &collected;
            scope.spawn(move || {
                let mut state = init(w);
                let mut out: Vec<(usize, JobStatus<R>)> = Vec::new();
                let mut executed = 0u64;
                let mut stolen = 0u64;
                let mut panics = 0u64;
                loop {
                    // Stop *starting* work once the deadline is
                    // gone; unclaimed jobs surface as Skipped.
                    if expired() {
                        break;
                    }
                    // Own shard first (front), then steal (back). The
                    // own-shard guard must be released before stealing:
                    // two workers that each held their own lock while
                    // taking the other's would deadlock.
                    let own = queues[w].lock().expect("queue poisoned").pop_front();
                    let job = own.or_else(|| {
                        (1..jobs).find_map(|off| {
                            let victim = (w + off) % jobs;
                            let job = queues[victim].lock().expect("queue poisoned").pop_back();
                            if job.is_some() {
                                stolen += 1;
                            }
                            job
                        })
                    });
                    let Some((idx, item)) = job else { break };
                    out.push((
                        idx,
                        run_step(w, idx, &mut state, item, init, step, &mut panics, trace),
                    ));
                    executed += 1;
                }
                collected.lock().expect("collector poisoned").push((
                    WorkerReport {
                        worker: w,
                        executed,
                        stolen,
                        panics,
                        state,
                    },
                    out,
                ));
            });
        }
    });
    let mut workers: Vec<WorkerReport<S>> = Vec::with_capacity(jobs);
    let mut indexed: Vec<(usize, JobStatus<R>)> = Vec::with_capacity(items.len());
    for (report, out) in collected.into_inner().expect("collector poisoned") {
        workers.push(report);
        indexed.extend(out);
    }
    workers.sort_by_key(|r| r.worker);
    // Any job no worker reached (deadline) fills in as Skipped.
    let mut results: Vec<JobStatus<R>> = (0..items.len()).map(|_| JobStatus::Skipped).collect();
    for (i, status) in indexed {
        results[i] = status;
    }
    DispatchOutcome { results, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Unwraps every status, panicking on Panicked/Skipped.
    fn all_done<R, S>(out: DispatchOutcome<R, S>) -> Vec<R> {
        out.results
            .into_iter()
            .map(|s| s.done().expect("job did not complete"))
            .collect()
    }

    #[test]
    fn empty_input_is_fine() {
        let out = run_ordered(4, Vec::<u32>::new(), None, |_| (), |_, x| *x);
        assert!(out.results.is_empty());
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].executed, 0);
    }

    #[test]
    fn results_stay_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 3, 4, 8] {
            let out = run_ordered(jobs, items.clone(), None, |_| (), |_, x| x * 2);
            let total: u64 = out.workers.iter().map(|w| w.executed).sum();
            assert_eq!(
                all_done(out),
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "order broken at jobs={jobs}"
            );
            assert_eq!(total, items.len() as u64);
        }
    }

    #[test]
    fn single_job_runs_inline_without_threads() {
        let caller = std::thread::current().id();
        let out = run_ordered(
            1,
            vec![1u8, 2, 3],
            None,
            |w| w,
            move |_, x| {
                assert_eq!(std::thread::current().id(), caller);
                *x as u32
            },
        );
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].stolen, 0);
        assert_eq!(all_done(out), vec![1, 2, 3]);
    }

    #[test]
    fn traced_run_emits_panic_and_skip_events() {
        // A panicking job produces a job_panicked event with its index.
        let trace = Trace::enabled();
        let out = run_ordered_traced(
            1,
            vec![0u32, 1, 2],
            None,
            &trace,
            |_| (),
            |_, x| {
                if *x == 1 {
                    panic!("boom");
                }
                *x
            },
        );
        assert!(matches!(out.results[1], JobStatus::Panicked { .. }));
        let events = trace.snapshot();
        let panic_event = events
            .iter()
            .find(|e| e.kind == "job_panicked")
            .expect("panic event emitted");
        assert!(panic_event.to_line().contains("\"job\":1"));

        // An expired deadline produces one jobs_skipped summary.
        let trace = Trace::enabled();
        let deadline = Deadline::after(Duration::ZERO);
        let out = run_ordered_traced(
            2,
            vec![1u32, 2, 3],
            Some(&deadline),
            &trace,
            |_| (),
            |_, x| *x,
        );
        assert!(out.results.iter().all(|s| matches!(s, JobStatus::Skipped)));
        let events = trace.snapshot();
        assert!(events.iter().any(|e| e.kind == "jobs_skipped"));
    }

    #[test]
    fn worker_pool_never_exceeds_item_count() {
        // 2 items on 8 requested workers → at most 2 workers.
        let out = run_ordered(8, vec![10u32, 20], None, |w| w, |_, x| *x);
        assert!(out.workers.len() <= 2);
        assert_eq!(all_done(out), vec![10, 20]);
    }

    #[test]
    fn per_worker_state_is_private_and_returned() {
        // Each worker counts its own executions in its state; the sum
        // must cover every item exactly once.
        let items: Vec<u32> = (0..100).collect();
        let out = run_ordered(4, items, None, |w| (w, 0u64), |s, _| s.1 += 1);
        let by_state: u64 = out.workers.iter().map(|w| w.state.1).sum();
        assert_eq!(by_state, 100);
        for w in &out.workers {
            assert_eq!(w.state.1, w.executed, "state count mirrors executed");
            assert_eq!(w.state.0, w.worker, "init saw the right worker id");
        }
    }

    #[test]
    fn unbalanced_loads_get_stolen() {
        // Worker 0's shard (round-robin: even indices) is made slow;
        // the other worker finishes its shard and must steal. A tiny
        // sleep makes starvation overwhelmingly likely rather than
        // certain, so retry a few times to avoid flakiness.
        for _ in 0..5 {
            let slow_hits = AtomicU64::new(0);
            let out = run_ordered(
                2,
                (0..64u64).collect::<Vec<_>>(),
                None,
                |_| (),
                |_, x| {
                    if x % 2 == 0 {
                        slow_hits.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    *x
                },
            );
            let stolen: u64 = out.workers.iter().map(|w| w.stolen).sum();
            assert_eq!(all_done(out), (0..64).collect::<Vec<_>>());
            if stolen > 0 {
                return;
            }
        }
        panic!("no steal observed across 5 heavily unbalanced runs");
    }

    #[test]
    fn panicking_step_quarantines_only_its_job() {
        for jobs in [1, 2, 4] {
            let items: Vec<u32> = (0..20).collect();
            let out = run_ordered(
                jobs,
                items,
                None,
                |_| (),
                |_, x| {
                    if *x % 5 == 3 {
                        panic!("injected failure on {x}");
                    }
                    *x * 10
                },
            );
            for (i, status) in out.results.iter().enumerate() {
                if i % 5 == 3 {
                    match status {
                        JobStatus::Panicked { message } => {
                            assert!(message.contains("injected failure"), "got {message:?}")
                        }
                        other => panic!("job {i} should have panicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(*status, JobStatus::Done(i as u32 * 10), "jobs={jobs}");
                }
            }
            let panics: u64 = out.workers.iter().map(|w| w.panics).sum();
            assert_eq!(panics, 4, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_respawns_worker_state() {
        // State counts jobs since its birth. A panic must reset it, so
        // no state's final count may include jobs from before a panic
        // on the same worker.
        let spawns = AtomicU64::new(0);
        let out = run_ordered(
            1,
            (0..10u32).collect::<Vec<_>>(),
            None,
            |_| {
                spawns.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |s, x| {
                if *x == 4 {
                    panic!("boom");
                }
                *s += 1;
            },
        );
        // init ran once up front and once for the respawn.
        assert_eq!(spawns.load(Ordering::Relaxed), 2);
        // Final state saw only the 5 jobs after the panic.
        assert_eq!(out.workers[0].state, 5);
        assert_eq!(out.workers[0].panics, 1);
        assert_eq!(out.workers[0].executed, 10);
    }

    #[test]
    fn expired_deadline_skips_everything() {
        let deadline = Deadline::after(Duration::ZERO);
        for jobs in [1, 2, 4] {
            let out = run_ordered(
                jobs,
                (0..16u32).collect::<Vec<_>>(),
                Some(&deadline),
                |_| (),
                |_, x| *x,
            );
            assert_eq!(out.results.len(), 16);
            assert!(
                out.results.iter().all(|s| *s == JobStatus::Skipped),
                "jobs={jobs}"
            );
            let executed: u64 = out.workers.iter().map(|w| w.executed).sum();
            assert_eq!(executed, 0, "jobs={jobs}");
        }
    }

    #[test]
    fn mid_run_trip_leaves_prefix_done_suffix_skipped() {
        // Inline path: trip the deadline from inside job 3. Jobs 0-3
        // complete, 4.. are skipped — deterministically, since jobs==1.
        let deadline = Deadline::never();
        let d = deadline.clone();
        let out = run_ordered(
            1,
            (0..8u32).collect::<Vec<_>>(),
            Some(&deadline),
            |_| (),
            move |_, x| {
                if *x == 3 {
                    d.trip();
                }
                *x
            },
        );
        for (i, status) in out.results.iter().enumerate() {
            if i <= 3 {
                assert_eq!(*status, JobStatus::Done(i as u32));
            } else {
                assert_eq!(*status, JobStatus::Skipped);
            }
        }
    }
}
