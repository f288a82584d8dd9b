//! Persistent scoped worker pool.
//!
//! Every parallel section in the workspace used to spawn OS threads via
//! `std::thread::scope` — once per round of the meeting engine, once per
//! power-iteration sweep. Spawn/join latency then sits on the critical
//! path between every pair of rounds, and on short rounds it dominates
//! the work itself. This crate replaces that with **long-lived workers**
//! that park on a condvar between rounds; the handoff cost of a round is
//! one queue lock plus a wakeup instead of N thread spawns.
//!
//! # Execution model
//!
//! [`WorkerPool::run_dealt`] executes one *round*: a vector of tasks run
//! by the calling thread and up to `workers - 1` pool workers.
//!
//! * Tasks are **dealt round-robin** into `workers` stripes: stripe `s`
//!   owns tasks `s, s + workers, s + 2·workers, …`. The deal is the
//!   deterministic assignment; callers must only submit rounds whose
//!   results are **placement-invariant** (each task writes state no other
//!   task touches), which makes the next point safe:
//! * Workers **steal**: a worker drains its own stripe, then scans the
//!   other stripes for leftovers. Stealing only moves tasks between
//!   executors, never changes what a task computes, so results are
//!   bit-identical whether a task ran on its dealt worker, a thief, or
//!   the caller.
//! * The **calling thread participates**: it owns stripe 0. `workers`
//!   therefore counts the caller — `run_dealt(4, …)` puts 3 pool workers
//!   plus the caller on the round. The caller drains stripe 0 (stealing
//!   the rest), then blocks until every in-flight task has finished.
//!
//! `run_dealt` does not return until all tasks have executed *and* every
//! pool worker has exited the round — no borrow handed in via a task can
//! be observed by a worker after the call returns, which is what makes
//! the lifetime erasure below sound.
//!
//! # Lifecycle
//!
//! Workers spawn lazily ([`WorkerPool::ensure_workers`]) and live until
//! the pool is dropped. [`Drop`] signals shutdown and **joins every
//! worker** — the pool never leaks detached threads.
//! [`global`] returns a process-wide shared pool for code that wants to
//! amortize workers across subsystems (the meeting engine, the chunked
//! power iteration, and the cluster driver all share it).
//!
//! # Panics
//!
//! A task that panics on a pool worker is caught there; the round still
//! drains (other executors keep stealing), and `run_dealt` re-raises a
//! `"worker panicked"` panic on the caller once the round is quiescent.
//! A panic in a task run by the caller unwinds the caller directly — a
//! drop guard first waits for the pool workers to finish the round, so
//! borrowed task state never outlives the call.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Lock that survives a poisoned mutex: pool bookkeeping stays usable
/// after a task panic (the panic itself is reported separately).
#[expect(
    clippy::disallowed_methods,
    reason = "recovers the poisoned guard like jxp_telemetry::sync, which this dependency-free crate does not link"
)]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// What one [`WorkerPool::run_dealt`] round did, for telemetry.
///
/// Scheduling-dependent quantities (`stolen`) vary with thread count and
/// machine load; record them only in histograms/gauges, never in the
/// counters or events that the determinism tests compare bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Tasks the round carried.
    pub tasks: u64,
    /// Tasks executed by an executor other than the one they were dealt
    /// to (work-stealing traffic, including steals by the caller).
    pub stolen: u64,
}

/// A round's executable face, with task and closure types erased so the
/// worker queue can hold rounds of any shape.
trait StripeRun: Send + Sync {
    /// Drain stripe `stripe`, then steal from the others until no task
    /// remains anywhere in the round.
    fn run(&self, stripe: usize);
}

/// Completion tracking for one round. Holds no task data (and therefore
/// no borrowed lifetimes) — workers may touch it freely after the round
/// state itself is gone.
struct RoundSync {
    /// Tasks not yet finished. A task's slot writes happen-before the
    /// caller's reads via the `AcqRel` decrement here.
    pending: AtomicUsize,
    /// Pool-worker jobs that have fully exited `StripeRun::run` (and
    /// dropped their round handle).
    exited: AtomicUsize,
    /// Pool-worker jobs submitted for this round.
    jobs: usize,
    panicked: AtomicBool,
    gate: Mutex<()>,
    done: Condvar,
}

impl RoundSync {
    fn new(tasks: usize, jobs: usize) -> Self {
        RoundSync {
            pending: AtomicUsize::new(tasks),
            exited: AtomicUsize::new(0),
            jobs,
            panicked: AtomicBool::new(false),
            gate: Mutex::new(()),
            done: Condvar::new(),
        }
    }

    fn task_finished(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.notify();
        }
    }

    fn job_exited(&self) {
        self.exited.fetch_add(1, Ordering::AcqRel);
        self.notify();
    }

    fn notify(&self) {
        // Taking the gate orders the notify after any waiter's
        // check-then-wait, so no wakeup is lost.
        let _g = lock(&self.gate);
        self.done.notify_all();
    }

    /// Block until the round is quiescent: every task finished (or a
    /// worker panicked mid-task) and every pool-worker job has exited.
    fn wait_quiescent(&self) {
        let mut g = lock(&self.gate);
        loop {
            let tasks_done =
                self.pending.load(Ordering::Acquire) == 0 || self.panicked.load(Ordering::Acquire);
            if tasks_done && self.exited.load(Ordering::Acquire) == self.jobs {
                return;
            }
            g = wait(&self.done, g);
        }
    }
}

/// The live state of one round: dealt stripes plus the task closure.
struct RoundState<T, F> {
    stripes: Vec<Mutex<Vec<T>>>,
    f: F,
    stolen: AtomicU64,
    sync: Arc<RoundSync>,
}

impl<T: Send, F: Fn(T) + Send + Sync> StripeRun for RoundState<T, F> {
    fn run(&self, stripe: usize) {
        let w = self.stripes.len();
        for k in 0..w {
            let s = (stripe + k) % w;
            loop {
                // Pop under the stripe lock, execute outside it.
                let task = lock(&self.stripes[s]).pop();
                let Some(task) = task else { break };
                if k > 0 {
                    self.stolen.fetch_add(1, Ordering::AcqRel);
                }
                (self.f)(task);
                self.sync.task_finished();
            }
        }
    }
}

/// One queued unit of pool work: "participate in `round` as `stripe`".
struct WorkItem {
    round: Arc<dyn StripeRun>,
    stripe: usize,
    sync: Arc<RoundSync>,
}

struct Queue {
    items: VecDeque<WorkItem>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    available: Condvar,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let item = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(item) = q.items.pop_front() {
                    break Some(item);
                }
                if q.shutdown {
                    break None;
                }
                q = wait(&shared.available, q);
            }
        };
        let Some(WorkItem {
            round,
            stripe,
            sync,
        }) = item
        else {
            return;
        };
        // A panicking task must not kill the worker or wedge the round:
        // catch it, flag the round, and keep serving.
        if std::panic::catch_unwind(AssertUnwindSafe(|| round.run(stripe))).is_err() {
            sync.panicked.store(true, Ordering::Release);
        }
        // Drop the round handle *before* signalling exit: once `exited`
        // reaches `jobs`, no worker holds any reference into the round's
        // borrowed task state.
        drop(round);
        sync.job_exited();
    }
}

/// A persistent pool of parked worker threads. See the module docs for
/// the execution model; [`global`] for the process-wide shared instance.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; workers spawn lazily as rounds demand them.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(Queue {
                    items: VecDeque::new(),
                    shutdown: false,
                }),
                available: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Grow the pool to at least `n` workers (never shrinks).
    pub fn ensure_workers(&self, n: usize) {
        let mut handles = lock(&self.handles);
        while handles.len() < n {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("jxp-pool-{}", handles.len()))
                .spawn(move || worker_loop(shared))
                .expect("spawn jxp-pool worker");
            handles.push(handle);
        }
    }

    /// Workers currently spawned.
    pub fn spawned(&self) -> usize {
        lock(&self.handles).len()
    }

    /// Rounds' worker jobs queued but not yet picked up — a backlog
    /// indicator for telemetry (racy by nature; histogram material).
    pub fn queued(&self) -> usize {
        lock(&self.shared.queue).items.len()
    }

    /// Execute one round of `tasks` on `workers` executors (the caller
    /// plus `workers - 1` pool workers); returns the round's stats once
    /// every task has finished and the pool is quiescent.
    ///
    /// Tasks are dealt round-robin and may be stolen, so the caller's
    /// tasks must be **placement-invariant**: each task must write only
    /// state no other task of the round touches. `workers <= 1` (or a
    /// round of 0–1 tasks) degenerates to an inline serial loop that
    /// never touches pool threads.
    ///
    /// # Panics
    /// Re-raises task panics once pool workers have left the round.
    pub fn run_dealt<T, F>(&self, workers: usize, tasks: Vec<T>, f: F) -> RoundStats
    where
        T: Send,
        F: Fn(T) + Send + Sync,
    {
        let total = tasks.len();
        let workers = workers.min(total).max(1);
        if workers == 1 {
            for t in tasks {
                f(t);
            }
            return RoundStats {
                tasks: total as u64,
                stolen: 0,
            };
        }
        self.ensure_workers(workers - 1);

        let mut stripes: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            stripes[i % workers].push(t);
        }
        for s in &mut stripes {
            // Stripes pop from the back; reverse so consumption follows
            // deal order (cosmetic — results are placement-invariant).
            s.reverse();
        }
        let sync = Arc::new(RoundSync::new(total, workers - 1));
        let state = Arc::new(RoundState {
            stripes: stripes.into_iter().map(Mutex::new).collect(),
            f,
            stolen: AtomicU64::new(0),
            sync: Arc::clone(&sync),
        });

        {
            // SAFETY: the queue holds `'static` trait objects, but this
            // round borrows the caller's stack (`T` and `F` may capture
            // `&mut` state). Erasing the lifetime is sound because this
            // function does not return — or unwind past `_guard` — until
            // `sync` reports quiescence: every task executed and every
            // worker job exited after dropping its `Arc<dyn StripeRun>`
            // clone. No pool thread can reach the borrowed state after
            // that, and the only surviving handle (`state`) lives here.
            let erased: Arc<dyn StripeRun + '_> = Arc::clone(&state) as _;
            let erased: Arc<dyn StripeRun> = unsafe {
                std::mem::transmute::<Arc<dyn StripeRun + '_>, Arc<dyn StripeRun + 'static>>(erased)
            };
            let mut q = lock(&self.shared.queue);
            for stripe in 1..workers {
                q.items.push_back(WorkItem {
                    round: Arc::clone(&erased),
                    stripe,
                    sync: Arc::clone(&sync),
                });
            }
            drop(q);
            self.shared.available.notify_all();
        }

        // If a caller-run task unwinds, the guard still waits out the
        // pool workers (they drain the round on their own) before the
        // unwind releases the borrowed task state.
        let _guard = WaitOnDrop(&sync);
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| state.run(0))) {
            // A caller-run task panicked after being popped, so `pending`
            // can never drain to zero. Flag the round — quiescence
            // accepts `panicked` in lieu of a zero count — or the
            // guard's wait would deadlock on our own lost task.
            sync.panicked.store(true, Ordering::Release);
            std::panic::resume_unwind(payload);
        }
        sync.wait_quiescent();
        assert!(
            !sync.panicked.load(Ordering::Acquire),
            "jxp-pool worker panicked while executing a round task"
        );
        RoundStats {
            tasks: total as u64,
            stolen: state.stolen.load(Ordering::Acquire),
        }
    }
}

struct WaitOnDrop<'a>(&'a RoundSync);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait_quiescent();
    }
}

impl Drop for WorkerPool {
    /// Shut down and **join** every worker: no thread outlives the pool.
    fn drop(&mut self) {
        {
            let mut q = lock(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for handle in lock(&self.handles).drain(..) {
            // Workers catch task panics themselves; a join error would
            // mean the loop infrastructure panicked — surface it.
            handle
                .join()
                .expect("jxp-pool worker terminated abnormally");
        }
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide shared pool. Workers spawn on first demand and are
/// shared by every subsystem (meeting rounds, chunked power iteration,
/// cluster drivers), so repeated parallel sections reuse warm threads.
/// Concurrent rounds from different threads interleave safely: the
/// caller of each round participates in it, so a round always makes
/// progress even when every pool worker is busy elsewhere.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn round_executes_every_task_exactly_once() {
        let pool = WorkerPool::new();
        let n = 1000;
        let mut out = vec![0u32; n];
        let tasks: Vec<(usize, &mut u32)> = out.iter_mut().enumerate().collect();
        let stats = pool.run_dealt(4, tasks, |(i, slot)| *slot = i as u32 + 1);
        assert_eq!(stats.tasks, n as u64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1, "task {i} ran wrong or not at all");
        }
    }

    #[test]
    fn serial_fallback_never_spawns_workers() {
        let pool = WorkerPool::new();
        let mut acc = 0u64;
        let tasks: Vec<u64> = (1..=10).collect();
        // With workers = 1 the tasks run inline on the caller; a single
        // &mut capture proves no other thread is involved.
        let acc_ref = &mut acc;
        let stats = pool.run_dealt(1, tasks, |_| ());
        *acc_ref += 1;
        assert_eq!(stats.stolen, 0);
        assert_eq!(pool.spawned(), 0);
        assert_eq!(acc, 1);
    }

    #[test]
    fn single_task_rounds_stay_inline() {
        let pool = WorkerPool::new();
        let stats = pool.run_dealt(8, vec![7usize], |_| ());
        assert_eq!(stats.tasks, 1);
        assert_eq!(pool.spawned(), 0, "a 1-task round must not engage the pool");
    }

    #[test]
    fn pool_reuse_spawns_workers_once() {
        let pool = WorkerPool::new();
        for _ in 0..20 {
            let stats = pool.run_dealt(4, (0..32).collect::<Vec<usize>>(), |_| ());
            assert_eq!(stats.tasks, 32);
        }
        assert_eq!(pool.spawned(), 3, "workers persist across rounds");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new();
        pool.ensure_workers(4);
        assert_eq!(pool.spawned(), 4);
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        // Every worker held an Arc<PoolShared>; all joined ⇒ all clones
        // dropped ⇒ the weak can no longer upgrade.
        assert!(
            shared.upgrade().is_none(),
            "a worker outlived WorkerPool::drop"
        );
    }

    #[test]
    fn results_are_placement_invariant_across_worker_counts() {
        // The pool guarantees *where* a task runs never changes *what*
        // it computes: disjoint writes come out identical for any
        // worker count, steal pattern, or pool reuse state.
        let run = |workers: usize| {
            let pool = WorkerPool::new();
            let n = 4096 + 37;
            let mut out = vec![0.0f64; n];
            let tasks: Vec<(usize, &mut f64)> = out.iter_mut().enumerate().collect();
            pool.run_dealt(workers, tasks, |(i, slot)| {
                *slot = (i as f64 + 1.0).sqrt() * 0.37;
            });
            out
        };
        let want = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), want, "divergence at {workers} workers");
        }
    }

    #[test]
    fn task_panic_on_worker_is_reported_on_caller() {
        let pool = WorkerPool::new();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Dealt across 4 stripes, some task panics on a pool worker
            // (and possibly on the caller — both paths must surface it).
            pool.run_dealt(4, (0..64).collect::<Vec<usize>>(), |t| {
                if t % 17 == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "task panic was swallowed");
        // The pool survives the panic and keeps serving rounds.
        let stats = pool.run_dealt(4, (0..16).collect::<Vec<usize>>(), |_| ());
        assert_eq!(stats.tasks, 16);
    }

    #[test]
    fn concurrent_rounds_share_the_pool() {
        let pool = Arc::new(WorkerPool::new());
        pool.ensure_workers(2);
        let done = AtomicUsize::new(0);
        let done = &done;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..10 {
                        pool.run_dealt(3, (0..50).collect::<Vec<usize>>(), |_| ());
                    }
                    done.fetch_add(1, Ordering::AcqRel);
                });
            }
        });
        assert_eq!(done.load(Ordering::Acquire), 4);
    }

    #[test]
    fn global_pool_is_shared_and_grows_on_demand() {
        let before = global().spawned();
        global().run_dealt(3, (0..16).collect::<Vec<usize>>(), |_| ());
        assert!(global().spawned() >= 2.max(before));
        // Same instance on every call.
        assert!(std::ptr::eq(global(), global()));
    }

    #[test]
    fn stolen_counts_cross_stripe_executions_only() {
        let pool = WorkerPool::new();
        // Stripe 1's worker sleeps via a long task; everything else gets
        // eaten by caller + thieves. We can't assert exact steal counts
        // (scheduling-dependent) — only that the accounting is bounded.
        let stats = pool.run_dealt(4, (0..100).collect::<Vec<usize>>(), |_| ());
        assert_eq!(stats.tasks, 100);
        assert!(stats.stolen <= 100);
    }
}

#[cfg(test)]
mod review_tests {
    use super::*;

    #[test]
    fn task_panic_on_caller_propagates() {
        let pool = WorkerPool::new();
        // stripe 0 (caller): panic task; stripe 1 (worker): slow task.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_dealt(2, vec![0usize, 1usize], |t| {
                if t == 0 {
                    panic!("caller boom");
                } else {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
            });
        }));
        assert!(caught.is_err());
    }
}
