//! The ordered executor.
//!
//! A round with several jobs runs on scoped threads that take job
//! indices from one shared atomic cursor: whichever thread is free
//! claims the next job, so an unbalanced list needs no stealing. No
//! work is created after launch, so a thread exits as soon as the
//! cursor passes the end of the list. A round with one job, or
//! `jobs <= 1`, runs the same loop inline on the calling thread.
//!
//! Results carry their input index and are re-assembled in input
//! order before returning, which is what makes a sweep built on top
//! scheduling-invariant.
//!
//! A job claimed while the **deadline** reads expired is not started
//! and comes back as `None`; a stall trip that the watchdog lowers
//! again costs only the jobs claimed while it was raised. In-flight
//! jobs are interrupted through the deadline's shared flag, not
//! killed, so their results are still sound.
//!
//! A `step` that **panics** is not caught here. The panic reaches the
//! caller, with the step's own payload, once every thread has been
//! joined, so callers that want a failing job isolated catch panics
//! inside their step — the sweep does, around each pair proof.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use simgen_obs::{Json, Trace};

use crate::deadline::Deadline;

/// Most workers a run may ask for. A sweep allocates per-worker state
/// up front, so a worker count that arrives from outside the program
/// (a flag, a daemon request) is checked against this bound first.
pub const MAX_JOBS: usize = 1024;

/// What one worker did, plus its final caller-owned state (where the
/// sweeping layer keeps its per-worker BDD engine and busy-time spans).
#[derive(Clone, Debug)]
pub struct WorkerReport<S> {
    /// Worker index in `0..jobs`.
    pub worker: usize,
    /// Jobs this worker executed.
    pub executed: u64,
    /// Final worker state.
    pub state: S,
}

/// Everything a dispatch run produces.
#[derive(Clone, Debug)]
pub struct DispatchOutcome<R, S> {
    /// One result per input job, **in input order** — independent of
    /// worker count and scheduling. `None` marks a job the deadline
    /// skipped.
    pub results: Vec<Option<R>>,
    /// Per-worker execution reports, indexed by worker id.
    pub workers: Vec<WorkerReport<S>>,
}

/// What one worker hands back when its loop ends: its report plus its
/// `(input index, result)` pairs.
type WorkerOutput<S, R> = (WorkerReport<S>, Vec<(usize, R)>);

/// Runs `step` over `items` on up to `jobs` workers and returns one
/// result per item, in input order.
///
/// `init(worker)` builds each worker's private state once, on the
/// worker's own thread (provers are neither `Send` nor cheap — they
/// must be born where they work). `jobs <= 1`, or a single item, runs
/// everything inline on the calling thread. Otherwise
/// `min(jobs, items, available_parallelism)` scoped threads take items
/// from one shared cursor. `deadline`, if given, is checked before
/// each job is started; jobs never started come back as `None`, and
/// one `jobs_skipped` event with their count lands in `trace`.
///
/// # Panics
///
/// A panicking `step` propagates with its own payload: inline at once,
/// on the threaded path after every thread has been joined.
pub fn run_ordered<J, R, S, I, F>(
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
    // Relaxed suffices: the cursor publishes no data. Items are shared
    // read-only, the read-modify-write hands each index out once, and
    // results come back through the thread joins.
    let cursor = AtomicUsize::new(0);
    let work = |worker: usize| -> WorkerOutput<S, R> {
        let mut state = init(worker);
        let mut out = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            if !deadline.is_some_and(Deadline::expired) {
                out.push((index, step(&mut state, item)));
            }
        }
        let report = WorkerReport {
            worker,
            executed: out.len() as u64,
            state,
        };
        (report, out)
    };
    let threads = if jobs <= 1 || items.len() <= 1 {
        1
    } else {
        // More threads than cores only time-slice the same work.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        jobs.min(items.len()).min(cores)
    };
    let outputs: Vec<WorkerOutput<S, R>> = if threads == 1 {
        vec![work(0)]
    } else {
        // Join every thread before re-raising, so the caller gets the
        // step's own panic payload rather than the scope's.
        let joined: Vec<std::thread::Result<WorkerOutput<S, R>>> = std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || work(w))).collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    };
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut workers: Vec<WorkerReport<S>> = Vec::with_capacity(outputs.len());
    for (report, out) in outputs {
        workers.push(report);
        for (i, result) in out {
            results[i] = Some(result);
        }
    }
    let skipped = results.iter().filter(|r| r.is_none()).count();
    if skipped > 0 {
        trace.emit("jobs_skipped", vec![("count", Json::U64(skipped as u64))]);
    }
    DispatchOutcome { results, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    /// Unwraps every result, panicking on a skipped job.
    fn all_done<R, S>(out: DispatchOutcome<R, S>) -> Vec<R> {
        out.results
            .into_iter()
            .map(|r| r.expect("job did not complete"))
            .collect()
    }

    #[test]
    fn empty_input_is_fine() {
        let out = run_ordered(
            4,
            Vec::<u32>::new(),
            None,
            &Trace::disabled(),
            |_| (),
            |_, x| *x,
        );
        assert!(out.results.is_empty());
        assert_eq!(out.workers.len(), 1);
        assert_eq!(out.workers[0].executed, 0);
    }

    #[test]
    fn results_stay_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [1, 2, 3, 4, 8] {
            let out = run_ordered(
                jobs,
                items.clone(),
                None,
                &Trace::disabled(),
                |_| (),
                |_, x| x * 2,
            );
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
            &Trace::disabled(),
            |w| w,
            move |_, x| {
                assert_eq!(std::thread::current().id(), caller);
                *x as u32
            },
        );
        assert_eq!(out.workers.len(), 1);
        assert_eq!(all_done(out), vec![1, 2, 3]);
    }

    #[test]
    fn traced_run_emits_one_skip_event() {
        let trace = Trace::enabled();
        let deadline = Deadline::after(Duration::ZERO);
        let out = run_ordered(
            2,
            vec![1u32, 2, 3],
            Some(&deadline),
            &trace,
            |_| (),
            |_, x| *x,
        );
        assert!(out.results.iter().all(Option::is_none));
        let events = trace.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "jobs_skipped");
        assert!(events[0].to_line().contains("\"count\":3"));
    }

    #[test]
    fn worker_pool_never_exceeds_item_count() {
        // 2 items on 8 requested workers → at most 2 workers.
        let out = run_ordered(
            8,
            vec![10u32, 20],
            None,
            &Trace::disabled(),
            |w| w,
            |_, x| *x,
        );
        assert!(out.workers.len() <= 2);
        assert_eq!(all_done(out), vec![10, 20]);
    }

    #[test]
    fn per_worker_state_is_private_and_returned() {
        // Each worker counts its own executions in its state; the sum
        // must cover every item exactly once.
        let items: Vec<u32> = (0..100).collect();
        let out = run_ordered(
            4,
            items,
            None,
            &Trace::disabled(),
            |w| (w, 0u64),
            |s, _| s.1 += 1,
        );
        let by_state: u64 = out.workers.iter().map(|w| w.state.1).sum();
        assert_eq!(by_state, 100);
        for w in &out.workers {
            assert_eq!(w.state.1, w.executed, "state count mirrors executed");
            assert_eq!(w.state.0, w.worker, "init saw the right worker id");
        }
    }

    #[test]
    fn two_workers_run_at_the_same_time() {
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        // Jobs 0 and 1 each announce themselves and then wait for the
        // other: one thread running both would wait on itself, so the
        // rendezvous only completes when two threads hold one each.
        let (to_one, from_zero) = mpsc::channel();
        let (to_zero, from_one) = mpsc::channel();
        let inbox = [Mutex::new(from_one), Mutex::new(from_zero)];
        let outbox = [to_one, to_zero];
        let out = run_ordered(
            2,
            (0..6usize).collect::<Vec<_>>(),
            None,
            &Trace::disabled(),
            |_| (),
            |_, &x| {
                if x < 2 {
                    outbox[x].send(()).expect("partner alive");
                    let met = inbox[x]
                        .lock()
                        .expect("inbox poisoned")
                        .recv_timeout(Duration::from_secs(30));
                    assert!(met.is_ok(), "job {x} never met its partner");
                }
                x
            },
        );
        assert_eq!(out.workers.len(), 2);
        assert_eq!(all_done(out), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn threads_skip_only_jobs_claimed_while_tripped() {
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            return;
        }
        // Jobs 0 and 1 meet, then job 0 trips the deadline and tells
        // job 1, which returns only after the signal. Both threads
        // therefore claim their next job with the flag as job 0 left
        // it: lowered again (a stall trip the watchdog cleared), every
        // later job runs; still raised, every later job is skipped.
        for clear in [true, false] {
            let deadline = Deadline::never();
            let (to_one, from_zero) = mpsc::channel();
            let (to_zero, from_one) = mpsc::channel();
            let inbox = [Mutex::new(from_one), Mutex::new(from_zero)];
            let outbox = [to_one, to_zero];
            let wait = |x: usize| {
                let got = inbox[x]
                    .lock()
                    .expect("inbox poisoned")
                    .recv_timeout(Duration::from_secs(30));
                assert!(got.is_ok(), "job {x} never heard from its partner");
            };
            let out = run_ordered(
                2,
                (0..8usize).collect::<Vec<_>>(),
                Some(&deadline),
                &Trace::disabled(),
                |_| (),
                |_, &x| {
                    if x < 2 {
                        outbox[x].send(()).expect("partner alive");
                        wait(x);
                    }
                    if x == 0 {
                        deadline.trip();
                        if clear {
                            deadline.clear_if_not_due();
                        }
                        outbox[0].send(()).expect("partner alive");
                    } else if x == 1 {
                        wait(1);
                    }
                    x
                },
            );
            assert_eq!(out.workers.len(), 2);
            for (i, result) in out.results.iter().enumerate() {
                let runs = i < 2 || clear;
                assert_eq!(*result, runs.then_some(i), "job {i}, clear={clear}");
            }
        }
    }

    #[test]
    fn a_panicking_step_reaches_the_caller() {
        for jobs in [1, 2] {
            let caller = std::thread::spawn(move || {
                run_ordered(
                    jobs,
                    (0..8u32).collect::<Vec<_>>(),
                    None,
                    &Trace::disabled(),
                    |_| (),
                    |_, x| {
                        if *x == 3 {
                            panic!("boom");
                        }
                    },
                )
            });
            let payload = caller.join().expect_err("the step's panic propagates");
            let message = payload.downcast_ref::<&str>().copied();
            assert_eq!(message, Some("boom"), "jobs={jobs}");
        }
    }

    #[test]
    fn expired_deadline_skips_everything() {
        let deadline = Deadline::after(Duration::ZERO);
        for jobs in [1, 2, 4] {
            let out = run_ordered(
                jobs,
                (0..16u32).collect::<Vec<_>>(),
                Some(&deadline),
                &Trace::disabled(),
                |_| (),
                |_, x| *x,
            );
            assert_eq!(out.results.len(), 16);
            assert!(out.results.iter().all(Option::is_none), "jobs={jobs}");
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
            &Trace::disabled(),
            |_| (),
            move |_, x| {
                if *x == 3 {
                    d.trip();
                }
                *x
            },
        );
        for (i, result) in out.results.iter().enumerate() {
            assert_eq!(*result, (i <= 3).then_some(i as u32));
        }
    }
}
