//! The persistent worker pool behind every parallel phase.
//!
//! Before this module existed, each parallel simulation call spawned
//! fresh OS threads through [`std::thread::scope`] — at tens of
//! thousands of `simulate_lanes` calls per sweep, thread creation and
//! teardown dominated the supposed speedup and produced *negative*
//! scaling. The pool fixes that by paying the spawn cost exactly once
//! per process: workers are born at first use, park on a condvar when
//! idle, and drain a shared FIFO of lifetime-erased tasks forever.
//!
//! # Scoped execution
//!
//! [`WorkerPool::scope`] gives borrowed closures the same safety story
//! as `std::thread::scope` on top of the persistent threads: tasks may
//! capture `'env` references because the scope *always* joins every
//! task it spawned before returning — even when the scope body or a
//! task panics. Internally each task is boxed, its lifetime erased,
//! and tagged with its scope; the tag is what makes the join sound.
//!
//! # The caller helps
//!
//! A waiting scope does not block while its own tasks sit in the
//! queue: it pops and runs them inline (newest first, mirroring the
//! owner end of a work-stealing deque). Two consequences:
//!
//! * A pool with **zero** worker threads is fully functional — every
//!   task runs on the caller during the wait. `shared_pool()` is
//!   sized to `cores - 1` for exactly this reason: the caller is the
//!   remaining core.
//! * Nested scopes cannot deadlock. A task that opens its own scope
//!   helps with its own subtasks, so some thread always makes
//!   progress.
//!
//! # Panics
//!
//! A panicking task never takes a worker down: the payload is caught,
//! stored on the scope, and re-thrown on the *scope caller's* thread
//! once every sibling task has finished (first payload wins). Layers
//! that need finer-grained isolation — the sweep's per-pair
//! quarantine — keep their own `catch_unwind` inside the task.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A lifetime-erased task. Soundness: the closure really borrows
/// `'env` data, and the owning [`Scope`] refuses to end before the
/// task has run to completion (or the pool dropped it at shutdown
/// while still counting it as finished).
type Task = Box<dyn FnOnce() + Send>;

/// Per-scope join state shared by the scope handle, the queue entries
/// and the workers executing its tasks.
struct ScopeState {
    /// Tasks spawned and not yet finished.
    pending: Mutex<usize>,
    /// Signalled each time `pending` reaches zero.
    done: Condvar,
    /// First panic payload from any task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new() -> Arc<ScopeState> {
        Arc::new(ScopeState {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Runs one task of this scope, absorbing its panic into the
    /// scope and bookkeeping the pending count.
    fn run(self: &Arc<Self>, task: Task) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            let mut slot = self.panic.lock().expect("scope panic slot poisoned");
            slot.get_or_insert(payload);
        }
        let mut pending = self.pending.lock().expect("scope pending poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// One queue entry: the task plus the scope it joins against.
struct QueuedTask {
    scope: Arc<ScopeState>,
    task: Task,
}

struct PoolShared {
    /// FIFO of queued tasks; workers pop the front, helping scope
    /// callers pop their own tasks from the back.
    queue: Mutex<(VecDeque<QueuedTask>, bool)>,
    /// Signalled when the queue gains a task or shutdown flips.
    available: Condvar,
    /// Tasks handed to the pool over its lifetime (diagnostics; the
    /// small-input fast path is tested against this staying flat).
    dispatched: AtomicU64,
}

/// A fixed-size pool of persistent worker threads executing scoped
/// tasks (see the module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with exactly `threads` worker threads. Zero is
    /// legal: every task then runs on the thread that waits on its
    /// scope.
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
            dispatched: AtomicU64::new(0),
        });
        let threads = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("simgen-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, threads }
    }

    /// Number of worker threads (the caller of a scope is one more).
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// Total tasks ever enqueued on this pool.
    pub fn tasks_dispatched(&self) -> u64 {
        self.shared.dispatched.load(Ordering::Relaxed)
    }

    /// Runs `body` with a [`Scope`] on which borrowed tasks can be
    /// spawned, then joins every spawned task before returning.
    ///
    /// # Panics
    ///
    /// Re-raises the body's panic, or (if the body succeeded) the
    /// first panic of any spawned task — in both cases only after all
    /// tasks finished, so no borrow escapes.
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: ScopeState::new(),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
        // Join unconditionally: tasks hold `'env` borrows and must
        // not outlive this frame even when `body` panicked.
        scope.wait();
        match result {
            Ok(value) => {
                let payload = scope
                    .state
                    .panic
                    .lock()
                    .expect("scope panic slot poisoned")
                    .take();
                if let Some(payload) = payload {
                    resume_unwind(payload);
                }
                value
            }
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.1 = true;
        }
        self.shared.available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let entry = {
            let mut guard = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(entry) = guard.0.pop_front() {
                    break entry;
                }
                if guard.1 {
                    return;
                }
                guard = shared.available.wait(guard).expect("pool queue poisoned");
            }
        };
        entry.scope.run(entry.task);
    }
}

/// Spawn handle passed to [`WorkerPool::scope`] bodies.
///
/// The `'env` parameter is invariant, pinning the borrow lifetime of
/// spawned closures to the environment of the `scope` call — the same
/// variance trick `std::thread::scope` uses.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Enqueues `task` on the pool. It may borrow from `'env`; the
    /// scope joins it before those borrows can end.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        {
            let mut pending = self.state.pending.lock().expect("scope pending poisoned");
            *pending += 1;
        }
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(task);
        // SAFETY: the closure's `'env` borrows stay alive until
        // `Scope::wait` has observed the task finished, which happens
        // before `WorkerPool::scope` returns — the erased lifetime is
        // never actually exceeded.
        let task: Task = unsafe { mem::transmute(task) };
        self.pool.shared.dispatched.fetch_add(1, Ordering::Relaxed);
        {
            let mut guard = self.pool.shared.queue.lock().expect("pool queue poisoned");
            guard.0.push_back(QueuedTask {
                scope: Arc::clone(&self.state),
                task,
            });
        }
        self.pool.shared.available.notify_one();
    }

    /// Blocks until every task spawned on this scope has finished,
    /// running queued tasks of *this scope* inline while any remain
    /// (the caller-helps loop that makes a 0-worker pool viable and
    /// nested scopes deadlock-free).
    fn wait(&self) {
        loop {
            // Help: claim one of our own queued tasks, newest first.
            let mine = {
                let mut guard = self.pool.shared.queue.lock().expect("pool queue poisoned");
                let pos = guard
                    .0
                    .iter()
                    .rposition(|q| Arc::ptr_eq(&q.scope, &self.state));
                pos.and_then(|p| guard.0.remove(p))
            };
            if let Some(entry) = mine {
                entry.scope.run(entry.task);
                continue;
            }
            // Nothing of ours queued: the rest is running on workers.
            let mut pending = self.state.pending.lock().expect("scope pending poisoned");
            while *pending != 0 {
                pending = self
                    .state
                    .done
                    .wait(pending)
                    .expect("scope pending poisoned");
            }
            return;
        }
    }
}

/// The process-wide pool every parallel phase shares, sized to
/// `available_parallelism - 1` workers (the scope caller contributes
/// the remaining core). `SIMGEN_POOL_THREADS` overrides the size —
/// useful for exercising multi-worker scheduling on small machines.
pub fn shared_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("SIMGEN_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map_or(1, usize::from)
                    .saturating_sub(1)
            });
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_joins_all_tasks() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        assert_eq!(pool.tasks_dispatched(), 64);
    }

    #[test]
    fn zero_worker_pool_runs_everything_on_the_caller() {
        let pool = WorkerPool::new(0);
        let caller = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    assert_eq!(std::thread::current().id(), caller);
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn tasks_can_borrow_the_environment() {
        let pool = WorkerPool::new(2);
        let mut results = vec![0u64; 4];
        let chunks: Vec<&mut u64> = results.iter_mut().collect();
        pool.scope(|s| {
            for (i, slot) in chunks.into_iter().enumerate() {
                s.spawn(move || *slot = (i as u64 + 1) * 10);
            }
        });
        assert_eq!(results, vec![10, 20, 30, 40]);
    }

    #[test]
    fn pool_is_reusable_across_scopes() {
        let pool = WorkerPool::new(1);
        for round in 0..32u64 {
            let sum = Mutex::new(0u64);
            pool.scope(|s| {
                for i in 0..4 {
                    let sum = &sum;
                    s.spawn(move || *sum.lock().unwrap() += round + i);
                }
            });
            assert_eq!(*sum.lock().unwrap(), 4 * round + 6);
        }
    }

    #[test]
    fn nested_scopes_complete() {
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..3 {
                outer.spawn(|| {
                    // Each outer task opens its own scope on the same
                    // pool; the caller-helps loop keeps it live even
                    // though every worker may be busy.
                    shared_pool().scope(|inner| {
                        for _ in 0..3 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn task_panic_propagates_after_join() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task boom"));
                for _ in 0..8 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("scope must re-raise the task panic");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(message, "task boom");
        // Every sibling still ran: the join happens before the rethrow.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
        // The pool survives and keeps executing.
        let after = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                after.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn body_panic_still_joins_spawned_tasks() {
        let pool = WorkerPool::new(1);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body boom");
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = shared_pool() as *const WorkerPool;
        let b = shared_pool() as *const WorkerPool;
        assert_eq!(a, b);
    }
}
