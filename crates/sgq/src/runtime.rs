//! Persistent query runtime: an engine-lifetime worker pool with scoped,
//! borrow-friendly job submission.
//!
//! The paper runs "one search thread per sub-query graph" (§V-B Remarks).
//! The seed implementation realised that with `std::thread::scope` — which
//! spawns and joins **fresh OS threads on every doubling-batch round** of
//! every query. Under production traffic that is thousands of thread
//! creations per second for work items that often run microseconds.
//!
//! [`WorkerPool`] keeps a fixed set of workers alive for the engine's whole
//! lifetime; sub-query searches become jobs resumed on pooled workers.
//! [`WorkerPool::scope`] preserves the ergonomics of `std::thread::scope`:
//! jobs may borrow from the caller's stack (each search mutates its own
//! match stream in place), because the scope provably joins every submitted
//! job before returning — the same guarantee scoped threads give, here
//! enforced by a completion latch. While a scope waits it *helps*: it pulls
//! queued jobs (from any scope sharing the pool) and runs them inline, so a
//! saturated pool never idles the calling thread and concurrent queries
//! cannot deadlock each other.
//!
//! Panics inside a job are caught, forwarded to the owning scope, and
//! re-raised on the submitting thread after all of that scope's jobs have
//! settled — again matching `std::thread::scope` semantics.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased job. Jobs are stored `'static`; the lifetime erasure is
/// sound because [`Scope`] joins every job before its borrows expire (see
/// the safety argument on [`Scope::spawn`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    /// Jobs tagged with the id of the scope that submitted them, so a
    /// waiting scope can help with *its own* queued jobs without absorbing
    /// an unrelated (possibly long-running) scope's work inline.
    jobs: VecDeque<(u64, Job)>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Signals workers that a job arrived or shutdown began.
    work_cv: Condvar,
}

impl PoolShared {
    fn pop_job(&self) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some((_, job)) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.work_cv.wait(queue).unwrap();
        }
    }

    /// Pops the first queued job belonging to `scope_id`, if any.
    fn try_pop_scope_job(&self, scope_id: u64) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap();
        let idx = queue.jobs.iter().position(|(id, _)| *id == scope_id)?;
        queue.jobs.remove(idx).map(|(_, job)| job)
    }
}

/// A fixed-size worker pool living as long as its owner (the engine).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` threads; `0` selects the machine's available
    /// parallelism (capped at 16 — sub-query counts are small). Explicit
    /// counts are clamped to 1024 so a corrupt config cannot exhaust the
    /// process's thread budget.
    pub fn new(workers: usize) -> Self {
        let n = if workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .min(16)
        } else {
            workers.min(1024)
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            work_cv: Condvar::new(),
        });
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sgq-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.pop_job() {
                            job();
                        }
                    })
                    // lint-ok(panic-freedom): pool construction, not a query path — no request exists yet to degrade
                    .expect("failed to spawn sgq worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// The process-wide shared pool, sized to the machine's available
    /// parallelism (same cap as `WorkerPool::new(0)`), spawned lazily on
    /// first use and alive for the rest of the process.
    ///
    /// This is the default pool for every engine whose config asks for
    /// "one worker per core" (`workers == 0`). Before it existed, each such
    /// engine resolved `available_parallelism` *independently* and spawned
    /// its own full-size pool — a live service's epoch engines already
    /// shared one, but N engines stacked N× the machine's cores in
    /// threads. Sharing one pool keeps the total thread budget at the
    /// hardware's parallelism no matter how many engines or services a
    /// process stands up; work-helping scopes (see
    /// module docs) make the sharing starvation- and deadlock-free.
    /// Explicit worker counts still get dedicated pools.
    pub fn shared() -> Arc<WorkerPool> {
        static SHARED: std::sync::OnceLock<Arc<WorkerPool>> = std::sync::OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(WorkerPool::new(0))))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Runs `f` with a [`Scope`] on which borrow-carrying jobs can be
    /// spawned; returns only after every spawned job has finished. Panics
    /// from jobs are re-raised here.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        static NEXT_SCOPE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let scope = Scope {
            pool: self,
            id: NEXT_SCOPE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            state: Arc::new(ScopeState::default()),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join unconditionally — also when `f` itself panicked — so no job
        // can outlive the borrows it captured.
        scope.join();
        let panic = scope.state.panic.lock().unwrap().take();
        match (result, panic) {
            (Ok(value), None) => value,
            (Ok(_), Some(payload)) | (Err(payload), _) => resume_unwind(payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.queue.lock().unwrap().shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            // A worker can only panic if a job panicked *and* the owning
            // scope already re-raised; nothing useful left to propagate.
            let _ = handle.join();
        }
    }
}

#[derive(Default)]
struct ScopeState {
    /// Jobs submitted but not yet finished.
    pending: Mutex<usize>,
    done_cv: Condvar,
    /// First panic payload raised by a job of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Job-submission handle passed to the closure of [`WorkerPool::scope`].
///
/// `'env` ties submitted jobs to borrows living at least as long as the
/// scope call, exactly like `std::thread::Scope`.
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    /// Process-unique id tagging this scope's queued jobs.
    id: u64,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Submits a job that may borrow from `'env`.
    ///
    /// # Safety argument
    /// The job box is transmuted to `'static` so it can sit in the shared
    /// queue. This is sound because every control path through
    /// [`WorkerPool::scope`] — normal return, closure panic, job panic —
    /// passes through `join()`, which blocks until this scope's pending
    /// count reaches zero. Hence the job is guaranteed to have finished
    /// (and been dropped) before any `'env` borrow it captured expires.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: lifetime erasure of the boxed closure from 'env to
        // 'static. Sound because the job cannot outlive 'env:
        //  1. spawn() incremented this scope's `pending` count above,
        //     *before* the job became reachable from the shared queue;
        //  2. the job wrapper below decrements `pending` only after the
        //     job has run (or panicked) and been dropped;
        //  3. every exit from `WorkerPool::scope` — normal return, closure
        //     panic, job panic — goes through `ScopeState::join`, which
        //     drains this scope's queued jobs inline and then blocks on
        //     `done_cv` until `pending == 0`;
        //  4. `'env` borrows are live for the whole `scope` call, so by
        //     the time they can expire the job is finished and dropped.
        // The transmute only erases the lifetime parameter: source and
        // target are both `Box<dyn FnOnce() + Send>`, identical layout.
        let job: Job = unsafe { std::mem::transmute(job) };
        let tracked: Job = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            if let Err(payload) = outcome {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.done_cv.notify_all();
            }
        });
        {
            let mut queue = self.pool.shared.queue.lock().unwrap();
            queue.jobs.push_back((self.id, tracked));
        }
        self.pool.shared.work_cv.notify_one();
    }

    /// Blocks until all jobs spawned on this scope have finished, running
    /// this scope's still-queued jobs inline while waiting (work helping).
    ///
    /// Helping is restricted to *own* jobs: absorbing another scope's job
    /// inline could couple this caller's latency to an unrelated —
    /// possibly long-running — query. Foreign jobs are left to the
    /// persistent workers, which never block, so waiting here cannot
    /// deadlock.
    fn join(&self) {
        // First drain this scope's still-queued jobs inline. No new own
        // jobs can appear once join starts (spawn happens only on the
        // scope-owning thread, which is here), so one pass suffices.
        while let Some(job) = self.pool.shared.try_pop_scope_job(self.id) {
            job();
        }
        // Whatever remains is running on workers; a plain wait is enough —
        // the last decrement notifies `done_cv`.
        let mut pending = self.state.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.state.done_cv.wait(pending).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn jobs_borrow_and_mutate_disjoint_slots() {
        let pool = WorkerPool::new(4);
        let mut slots = vec![0usize; 64];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || *slot = i * i);
            }
        });
        for (i, &v) in slots.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = WorkerPool::new(2);
        let n = pool.scope(|scope| {
            scope.spawn(|| {});
            42
        });
        assert_eq!(n, 42);
    }

    #[test]
    fn nested_sequential_scopes_reuse_workers() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 400);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        pool.scope(|scope| {
                            for _ in 0..4 {
                                scope.spawn(|| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 20 * 4);
    }

    #[test]
    fn job_panic_propagates_after_all_jobs_join() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicBool::new(false));
        let finished2 = Arc::clone(&finished);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("job exploded"));
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished2.store(true, Ordering::Relaxed);
                });
            });
        }));
        assert!(result.is_err(), "panic must surface on the caller");
        assert!(
            finished.load(Ordering::Relaxed),
            "sibling jobs must have joined before the panic re-raised"
        );
        // The pool survives a panicked scope.
        let ok = pool.scope(|scope| {
            scope.spawn(|| {});
            true
        });
        assert!(ok);
    }

    #[test]
    fn join_does_not_absorb_foreign_jobs() {
        // One worker, busy with a long foreign job: a concurrent scope with
        // short jobs must help itself to completion instead of either
        // waiting for the worker or inlining the foreign 500 ms job.
        let pool = WorkerPool::new(1);
        std::thread::scope(|s| {
            let pool = &pool;
            s.spawn(move || {
                pool.scope(|scope| {
                    scope.spawn(|| std::thread::sleep(std::time::Duration::from_millis(500)));
                });
            });
            // Give the worker time to pick up the long job.
            std::thread::sleep(std::time::Duration::from_millis(50));
            let start = std::time::Instant::now();
            let counter = AtomicUsize::new(0);
            pool.scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 4);
            assert!(
                start.elapsed() < std::time::Duration::from_millis(250),
                "short scope was blocked behind the foreign long job: {:?}",
                start.elapsed()
            );
        });
    }

    #[test]
    fn shared_pool_is_a_process_singleton() {
        let a = WorkerPool::shared();
        let b = WorkerPool::shared();
        assert!(Arc::ptr_eq(&a, &b), "one pool per process");
        assert!(a.workers() >= 1);
        // And it is a fully functional pool.
        let counter = AtomicUsize::new(0);
        a.scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn helping_makes_single_worker_pools_live() {
        // One worker, more jobs than workers: the scope's join must help.
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..32 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }
}
