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
//! An expired **deadline** stops workers from *starting* new jobs;
//! everything not yet begun comes back as `None`. In-flight jobs are
//! interrupted through the deadline's shared flag, not killed, so
//! their results are still sound.
//!
//! A `step` that **panics** is not caught here. The panic reaches the
//! caller once every worker task has been joined, so callers that
//! want a failing job isolated catch panics inside their step — the
//! sweep does, around each pair proof.

use std::collections::VecDeque;
use std::sync::Mutex;

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
    /// Jobs this worker stole from other workers' deques.
    pub stolen: u64,
    /// Final worker state.
    pub state: S,
}

/// Everything a dispatch run produces.
#[derive(Clone, Debug)]
pub struct DispatchOutcome<R, S> {
    /// One result per input job, **in input order** — independent of
    /// worker count and steal interleaving. `None` marks a job the
    /// deadline skipped.
    pub results: Vec<Option<R>>,
    /// Per-worker execution reports, indexed by worker id.
    pub workers: Vec<WorkerReport<S>>,
}

/// What one worker hands back when its drain loop ends: its report
/// plus its `(input index, result)` pairs.
type WorkerOutput<S, R> = (WorkerReport<S>, Vec<(usize, R)>);

/// Runs `step` over `items` on `jobs` workers and returns one result
/// per item, in input order.
///
/// `init(worker)` builds each worker's private state once, on the
/// worker's own thread (provers are neither `Send` nor cheap — they
/// must be born where they work). `jobs <= 1` runs everything inline
/// on the calling thread with no synchronisation at all. `deadline`,
/// if given, is checked before each job is started; jobs never started
/// come back as `None`, and one `jobs_skipped` event with their count
/// lands in `trace`.
///
/// # Panics
///
/// A panicking `step` propagates: inline at once, on the threaded path
/// after every worker task has finished, so no borrow escapes.
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
    let expired = || deadline.is_some_and(Deadline::expired);
    let jobs = jobs.max(1).min(items.len().max(1));
    let outputs: Vec<WorkerOutput<S, R>> = if jobs == 1 {
        let mut state = init(0);
        let mut out = Vec::with_capacity(items.len());
        for (index, item) in items.iter().enumerate() {
            if !expired() {
                out.push((index, step(&mut state, item)));
            }
        }
        let report = WorkerReport {
            worker: 0,
            executed: out.len() as u64,
            stolen: 0,
            state,
        };
        vec![(report, out)]
    } else {
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
        let (queues, init, step, expired) = (&queues, &init, &step, &expired);

        // Workers are *logical*: each is one task on the persistent
        // shared pool, not a freshly spawned OS thread. The pool joins
        // every task before `scope` returns — also when a step panics —
        // so the borrows of `queues`, `init` and `step` below are sound.
        let collected: Mutex<Vec<WorkerOutput<S, R>>> = Mutex::new(Vec::with_capacity(jobs));
        crate::pool::shared_pool().scope(|scope| {
            for w in 0..jobs {
                let collected = &collected;
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut stolen = 0u64;
                    loop {
                        // Stop *starting* work once the deadline is
                        // gone; unclaimed jobs surface as skipped.
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
                        out.push((idx, step(&mut state, item)));
                    }
                    let report = WorkerReport {
                        worker: w,
                        executed: out.len() as u64,
                        stolen,
                        state,
                    };
                    collected
                        .lock()
                        .expect("collector poisoned")
                        .push((report, out));
                });
            }
        });
        collected.into_inner().expect("collector poisoned")
    };
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut workers: Vec<WorkerReport<S>> = Vec::with_capacity(outputs.len());
    for (report, out) in outputs {
        workers.push(report);
        for (i, result) in out {
            results[i] = Some(result);
        }
    }
    workers.sort_by_key(|r| r.worker);
    let skipped = results.iter().filter(|r| r.is_none()).count();
    if skipped > 0 {
        trace.emit("jobs_skipped", vec![("count", Json::U64(skipped as u64))]);
    }
    DispatchOutcome { results, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
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
        assert_eq!(out.workers[0].stolen, 0);
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
                &Trace::disabled(),
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
    fn a_panicking_step_reaches_the_caller() {
        for jobs in [1, 2] {
            let caller = std::thread::spawn(move || {
                run_ordered(
                    jobs,
                    (0..8u32).collect::<Vec<_>>(),
                    None,
                    &Trace::disabled(),
                    |_| (),
                    |_, x| assert_ne!(*x, 3, "boom"),
                )
            });
            assert!(caller.join().is_err(), "jobs={jobs}");
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
