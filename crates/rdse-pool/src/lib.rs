//! Persistent work-stealing thread pool for the rdse workspace.
//!
//! Every parallel subsystem in the workspace — portfolio segments in
//! `explore_parallel`, the corpus runner's scenario fan-out and the
//! serve worker shards — used to spin up its own `std::thread::scope`, so
//! thread creation was paid once per barrier. [`Pool`] pays it once per
//! process: a fixed set of workers parks on a condition variable and
//! drains three kinds of queues:
//!
//! * a global **injector** fed by [`Pool::run`] calls from non-pool
//!   threads,
//! * a per-worker **local** queue fed by nested [`Pool::run`] calls
//!   issued *from* a worker (other workers steal from it), and
//! * a per-worker **pinned** lane fed by [`Pool::submit_pinned`] that
//!   is never stolen — jobs pinned to the same lane execute serially in
//!   submission order, which is what the serve front-end's shard
//!   routing relies on.
//!
//! # Design notes
//!
//! All queues live under a **single mutex**. Jobs in this workspace are
//! coarse (an annealing segment or a corpus scenario — milliseconds to
//! seconds each), so queue
//! traffic is far too cold for per-queue locks or lock-free deques to
//! matter; one lock keeps the invariants trivially auditable.
//!
//! [`Pool::run`] is a *scoped* barrier: it accepts non-`'static`
//! closures, blocks until all of them ran, and while blocked the
//! calling thread **helps drain** the pool instead of idling. Helping
//! makes nested fan-out (a corpus scenario running on the pool that
//! itself fans its portfolio's chain segments out to the pool)
//! deadlock-free:
//! a waiting owner always either executes a queued job or sleeps with
//! every queue empty.
//!
//! Determinism: the pool never reorders *results*. [`Pool::run_ordered`]
//! writes each task's output into its submission slot, so callers see
//! results in submission order regardless of which worker ran what, and
//! a panicking task fails its own scope ([`Pool::run`] re-raises the
//! first payload after the barrier) without taking down any worker
//! thread.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool identity, worker index)` of the pool worker running this
    /// thread, if any. Identity is the address of the pool's shared
    /// state, so a worker of pool A submitting to pool B is treated as
    /// an outside caller by B.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct State {
    injector: VecDeque<Job>,
    pinned: Vec<VecDeque<Job>>,
    local: Vec<VecDeque<Job>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    available: Condvar,
    threads: usize,
}

/// Ignore mutex poisoning: queue operations never unwind while holding
/// the lock (job bodies run outside it), so a poisoned lock still
/// guards a consistent queue state.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    fn id(&self) -> usize {
        self as *const Inner as usize
    }

    /// Pop order for worker `w`: its pinned lane, its local queue, the
    /// injector, then steal from the other workers' local queues.
    fn pop_worker(&self, st: &mut State, w: usize) -> Option<Job> {
        if let Some(job) = st.pinned[w].pop_front() {
            return Some(job);
        }
        if let Some(job) = st.local[w].pop_front() {
            return Some(job);
        }
        if let Some(job) = st.injector.pop_front() {
            return Some(job);
        }
        let n = st.local.len();
        for i in 1..n {
            if let Some(job) = st.local[(w + i) % n].pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Pop order for a thread *waiting* on a [`Pool::run`] barrier:
    /// anything stealable — never a pinned lane, whose jobs must run on
    /// their own worker.
    fn pop_help(&self, st: &mut State, me: Option<usize>) -> Option<Job> {
        if let Some(w) = me {
            if let Some(job) = st.local[w].pop_front() {
                return Some(job);
            }
        }
        if let Some(job) = st.injector.pop_front() {
            return Some(job);
        }
        for q in &mut st.local {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
        }
        None
    }

    fn worker_main(self: Arc<Self>, w: usize) {
        WORKER.with(|c| c.set(Some((self.id(), w))));
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = self.pop_worker(&mut st, w) {
                drop(st);
                // Containment: a panicking fire-and-forget job (pinned
                // lane) must not take the worker down. Scoped jobs
                // catch their own panics and re-raise at the barrier.
                let _ = catch_unwind(AssertUnwindSafe(job));
                st = lock(&self.state);
            } else if st.shutdown {
                // Drain-then-exit: only leave once nothing is poppable.
                break;
            } else {
                st = self.available.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// A persistent pool of worker threads. See the [crate docs](crate)
/// for the queueing model.
///
/// Dropping the pool drains every queue (pinned lanes included) and
/// joins the workers, so fire-and-forget work submitted before the
/// drop still runs — the serve front-end's drain-then-exit shutdown is
/// exactly this `Drop`.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl Pool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                injector: VecDeque::new(),
                pinned: (0..threads).map(|_| VecDeque::new()).collect(),
                local: (0..threads).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            available: Condvar::new(),
            threads,
        });
        let handles = (0..threads)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rdse-pool-{w}"))
                    .spawn(move || inner.worker_main(w))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { inner, handles }
    }

    /// The process-wide shared pool, sized to the machine's available
    /// parallelism. Created on first use; lives for the process.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Pool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Index of the worker lane `key` hashes to — the lane
    /// [`submit_pinned`](Pool::submit_pinned) would serialize it on.
    pub fn lane(&self, key: usize) -> usize {
        key % self.inner.threads
    }

    /// Runs `tasks` to completion on the pool (a scoped barrier).
    ///
    /// The calling thread helps drain the pool while it waits, so this
    /// may be called from inside a pool job without deadlocking. If any
    /// task panics, the remaining tasks still run and the first panic
    /// payload is re-raised here after the barrier; the workers
    /// survive.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if tasks.is_empty() {
            return;
        }
        let remaining = AtomicUsize::new(tasks.len());
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let me = WORKER
            .with(|c| c.get())
            .filter(|(id, _)| *id == self.inner.id())
            .map(|(_, w)| w);

        {
            let mut st = lock(&self.inner.state);
            for task in tasks {
                let remaining = &remaining;
                let first_panic = &first_panic;
                let inner = &*self.inner;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                    }
                    remaining.fetch_sub(1, Ordering::Release);
                    // Wake the owner without a missed-wakeup window: it
                    // holds the state lock from its latch check until it
                    // parks, so acquiring the lock here serializes this
                    // notify against that check.
                    let _guard = lock(&inner.state);
                    inner.available.notify_all();
                });
                // SAFETY: the job only borrows `tasks`' captures, the
                // latch and the pool, all of which outlive the barrier
                // below — this function does not return (or unwind)
                // until `remaining` hits zero, and nothing between here
                // and the barrier panics (queue pushes aside, which
                // would abort on OOM rather than unwind).
                let job: Job = unsafe { std::mem::transmute(job) };
                match me {
                    Some(w) => st.local[w].push_back(job),
                    None => st.injector.push_back(job),
                }
            }
            self.inner.available.notify_all();
        }

        let mut st = lock(&self.inner.state);
        while remaining.load(Ordering::Acquire) != 0 {
            if let Some(job) = self.inner.pop_help(&mut st, me) {
                drop(st);
                // Queued jobs are wrappers that catch their own panics;
                // this call cannot unwind past the barrier.
                job();
                st = lock(&self.inner.state);
            } else {
                st = self
                    .inner
                    .available
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        drop(st);

        let payload = first_panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Runs `tasks` on the pool and returns their results **in
    /// submission order**, independent of which worker ran what.
    pub fn run_ordered<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let mut slots: Vec<Option<T>> = (0..tasks.len()).map(|_| None).collect();
        let boxed: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .zip(tasks)
            .map(|(slot, task)| {
                Box::new(move || {
                    *slot = Some(task());
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        self.run(boxed);
        slots
            .into_iter()
            .map(|slot| slot.expect("pool task completed"))
            .collect()
    }

    /// Enqueues a fire-and-forget job on worker lane `lane % threads`.
    ///
    /// Jobs pinned to the same lane run serially in submission order on
    /// that lane's worker and are never stolen — per-lane state needs
    /// no locking against other jobs of the same lane. A panicking job
    /// is contained by the worker (the lane keeps draining).
    pub fn submit_pinned<F: FnOnce() + Send + 'static>(&self, lane: usize, job: F) {
        let mut st = lock(&self.inner.state);
        let lane = lane % self.inner.threads;
        st.pinned[lane].push_back(Box::new(job));
        self.inner.available.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.inner.state);
            st.shutdown = true;
            self.inner.available.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_ordered_preserves_submission_order() {
        let pool = Pool::new(4);
        let tasks: Vec<_> = (0..64u64)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from
                    // submission order.
                    std::thread::sleep(std::time::Duration::from_micros(200 - 3 * (i % 64)));
                    i * i
                }
            })
            .collect();
        let results = pool.run_ordered(tasks);
        let expected: Vec<_> = (0..64u64).map(|i| i * i).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn scoped_run_borrows_stack_data() {
        let pool = Pool::new(2);
        let mut data = [0u64; 8];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = i as u64 + 1;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(data, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn panicking_task_fails_its_scope_not_the_pool() {
        let pool = Pool::new(2);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            pool.run(tasks);
        }));
        assert!(result.is_err(), "panic must propagate to the scope owner");
        // The sibling tasks still ran and the pool is still alive.
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        let sums = pool.run_ordered(vec![|| 1 + 1, || 2 + 2]);
        assert_eq!(sums, vec![2, 4]);
    }

    #[test]
    fn panicking_pinned_job_does_not_kill_the_lane() {
        let pool = Pool::new(2);
        let done = Arc::new(AtomicU64::new(0));
        pool.submit_pinned(0, || panic!("pinned boom"));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.submit_pinned(0, move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Drop drains the lane before joining the worker.
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pinned_jobs_on_one_lane_run_in_submission_order() {
        let pool = Pool::new(3);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..32 {
            let log = Arc::clone(&log);
            pool.submit_pinned(1, move || {
                log.lock().unwrap().push(i);
            });
        }
        drop(pool);
        let log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
        assert_eq!(log, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn nested_run_from_a_worker_does_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        // Saturate the pool with jobs that themselves fan out: the
        // inner barrier must help-drain rather than park forever.
        let p = Arc::clone(&pool);
        let totals = pool.run_ordered(
            (0..4)
                .map(|i| {
                    let p = Arc::clone(&p);
                    move || {
                        p.run_ordered((0..8).map(|j| move || i * 8 + j).collect())
                            .iter()
                            .sum::<i32>()
                    }
                })
                .collect(),
        );
        let expected: Vec<i32> = (0..4).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn single_thread_pool_still_completes_scoped_work() {
        let pool = Pool::new(1);
        let out = pool.run_ordered((0..16).map(|i| move || i * 3).collect::<Vec<_>>());
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }
}
