//! A persistent worker pool for the sampling engine.
//!
//! The paper's accelerator amortizes control overhead across Monte
//! Carlo samples and inputs by keeping its compute units resident;
//! the software analogue is to keep the sampler's worker threads
//! resident too. Before this module the engine spawned a fresh
//! `std::thread::scope` team per predictive call, paying thread
//! creation and teardown on every request — the dominant fixed cost
//! at small `S`. A [`WorkerPool`] is created once (typically owned by
//! a `Session`), its threads block on a chunked work queue, and every
//! predictive call simply enqueues its sample chunks.
//!
//! Properties the engine relies on:
//!
//! * **Order preservation** — [`WorkerPool::run`] returns task
//!   results in task order regardless of which worker executed what,
//!   so the engine's bit-identical-at-any-parallelism guarantee
//!   holds at any pool size.
//! * **Nesting without deadlock** — a task may itself call
//!   [`WorkerPool::run`] on the same pool, and several callers (the
//!   sessions and servers sharing one pool) may wait on it at once.
//!   Waiting callers *help*: they execute queued work instead of
//!   blocking idle, so progress never depends on a free worker
//!   existing.
//! * **Panic isolation** — a panicking task poisons *its call*, not
//!   the process: the payload is captured on the worker and re-thrown
//!   from [`WorkerPool::run`] on the calling thread, and the worker
//!   thread survives to serve later calls.
//! * **Inline degradation** — a pool with zero workers (or a
//!   single-task call) runs everything on the calling thread with no
//!   queue traffic, so `ParallelConfig::serial()` still spawns and
//!   synchronizes nothing.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A type-erased unit of work on the shared queue.
type Job = Box<dyn FnOnce() + Send>;

/// Queue state guarded by the pool mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
}

/// Lock a mutex, ignoring poisoning: queue and result state are only
/// ever mutated outside task execution (task panics are caught before
/// they can unwind through a held lock), so a poisoned lock still
/// guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent team of worker threads executing chunked work.
///
/// Create one per serving context ([`crate::ParallelConfig`] sizes the
/// `Session` default) or share one across sessions via `Arc`;
/// [`crate::Engine::new`] borrows it for each run. Dropping the pool
/// shuts the workers down (pending jobs are drained first, so no
/// submitted call is abandoned).
///
/// # Example
///
/// ```
/// use bnn_mcd::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
///     (0..8usize).map(|i| Box::new(move || i * i) as Box<_>).collect();
/// assert_eq!(pool.run(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` resident threads. Zero workers is a
    /// valid pool: every [`WorkerPool::run`] then executes inline on
    /// the calling thread (the right choice on single-core hosts).
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bnn-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// A process-wide zero-worker pool: every run executes inline and
    /// nothing is ever spawned ([`crate::Engine::serial`]).
    pub(crate) fn inline() -> &'static WorkerPool {
        static INLINE: OnceLock<WorkerPool> = OnceLock::new();
        INLINE.get_or_init(|| WorkerPool::new(0))
    }

    /// Number of resident worker threads (the calling thread always
    /// helps on top of these).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Execute `tasks` to completion and return their results in task
    /// order.
    ///
    /// The calling thread participates: after enqueueing, it executes
    /// queued work (its own or other calls') until its tasks are done,
    /// which is what makes nested `run` calls on one pool
    /// deadlock-free. With zero workers or a
    /// single task everything runs inline on the caller.
    ///
    /// # Panics
    ///
    /// If any task panics, the first payload (in task order) is
    /// re-thrown on the calling thread once all tasks of this call
    /// have settled. The worker that caught it keeps serving.
    pub fn run<'env, T: Send + 'env>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if self.handles.is_empty() || n == 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }

        /// Rendezvous between one `run` call and its in-flight tasks.
        struct CallState<T> {
            /// Tasks not yet settled; the caller returns at zero.
            remaining: AtomicUsize,
            /// One result slot per task, written exactly once.
            slots: Mutex<Vec<Option<std::thread::Result<T>>>>,
        }

        let call = Arc::new(CallState {
            remaining: AtomicUsize::new(n),
            slots: Mutex::new((0..n).map(|_| None).collect()),
        });
        {
            let mut st = lock(&self.shared.state);
            for (i, task) in tasks.into_iter().enumerate() {
                let call = Arc::clone(&call);
                let shared = Arc::clone(&self.shared);
                let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task));
                    lock(&call.slots)[i] = Some(result);
                    if call.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last task of the call: wake the waiting
                        // caller (under the lock, so the wakeup cannot
                        // race its remaining-check-then-wait).
                        let _guard = lock(&shared.state);
                        shared.cv.notify_all();
                    }
                });
                st.jobs.push_back(erase_job(job));
            }
            self.shared.cv.notify_all();
        }

        // Help while waiting: run queued jobs (not necessarily ours)
        // until every task of this call has settled.
        let mut st = lock(&self.shared.state);
        while call.remaining.load(Ordering::Acquire) > 0 {
            if let Some(job) = st.jobs.pop_front() {
                drop(st);
                job();
                st = lock(&self.shared.state);
            } else {
                st = self
                    .shared
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        drop(st);

        let results: Vec<_> = lock(&call.slots).drain(..).collect();
        results
            .into_iter()
            .map(|slot| match slot.expect("every task settled") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker only terminates at the queue drain below; a
            // join error would mean a panic escaped a job wrapper,
            // which catch_unwind precludes.
            let _ = handle.join();
        }
    }
}

/// Worker body: pop and execute jobs until shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Task panics are caught inside the job wrapper built by
        // `run`, so `job()` cannot unwind the worker.
        job();
    }
}

/// Erase a job's borrow lifetime so it can sit on the `'static` queue.
///
/// SAFETY: a job produced by [`WorkerPool::run`] decrements its call's
/// `remaining` counter only *after* the borrowed task has been
/// consumed and its result stored, and `run` does not return before
/// `remaining` reaches zero. Every borrow captured by the job is
/// therefore live for the job's whole execution; after `run` returns,
/// surviving clones of the job's `Arc`s hold only `'static`-shaped
/// data (emptied result slots and the queue state). This is the same
/// completion-before-return argument that underpins
/// `std::thread::scope`, with the scope being one `run` call.
#[allow(unsafe_code)]
fn erase_job<'env>(job: Box<dyn FnOnce() + Send + 'env>) -> Job {
    // SAFETY: completion-before-return (argued above) keeps every
    // borrow captured by `job` live for the job's whole execution;
    // the transmute erases only the lifetime, not the layout.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(3);
        for round in 0..10 {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..17)
                .map(|i| Box::new(move || i * 3 + round) as Box<_>)
                .collect();
            let got = pool.run(tasks);
            let want: Vec<usize> = (0..17).map(|i| i * 3 + round).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let caller = std::thread::current().id();
        let tasks: Vec<Box<dyn FnOnce() -> std::thread::ThreadId + Send>> = (0..4)
            .map(|_| Box::new(|| std::thread::current().id()) as Box<_>)
            .collect();
        for id in pool.run(tasks) {
            assert_eq!(id, caller, "zero-worker pool must not leave the caller");
        }
    }

    #[test]
    fn tasks_can_borrow_from_the_caller() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = data
            .chunks(7)
            .map(|c| Box::new(move || c.iter().sum::<u64>()) as Box<_>)
            .collect();
        let total: u64 = pool.run(chunks).into_iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        // More nested calls than workers: only caller-helping keeps
        // this from wedging.
        let pool = WorkerPool::new(1);
        let outer: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..4u64)
            .map(|i| {
                let pool = &pool;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..4u64)
                        .map(|j| Box::new(move || i * 10 + j) as Box<_>)
                        .collect();
                    pool.run(inner).into_iter().sum()
                }) as Box<_>
            })
            .collect();
        let got: Vec<u64> = pool.run(outer);
        assert_eq!(got, vec![6, 46, 86, 126]);
    }

    #[test]
    fn panic_poisons_the_call_not_the_pool() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("injected task panic");
                    }
                    i
                }) as Box<_>
            })
            .collect();
        let err = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)))
            .expect_err("panicking task must poison the call");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "injected task panic");
        // The pool keeps serving afterwards.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..6usize)
            .map(|i| Box::new(move || i + 1) as Box<_>)
            .collect();
        assert_eq!(pool.run(tasks), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = Arc::new(WorkerPool::new(2));
        let mut joins = Vec::new();
        for t in 0..4u64 {
            let pool = Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..8)
                    .map(|i| Box::new(move || t * 100 + i) as Box<_>)
                    .collect();
                pool.run(tasks)
            }));
        }
        for (t, j) in joins.into_iter().enumerate() {
            let got = j.join().expect("caller thread survived");
            let want: Vec<u64> = (0..8).map(|i| t as u64 * 100 + i).collect();
            assert_eq!(got, want);
        }
    }
}
