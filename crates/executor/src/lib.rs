//! # dvafs-executor — deterministic parallel sweep execution
//!
//! Every sweep behind the paper's figures is a map over an index space
//! (designs × precisions, Monte-Carlo chunks, CNN layers, dataset samples).
//! [`Executor::par_map_indexed`] runs such maps on a persistent work pool
//! and merges the results **in index order**, so the output is
//! bit-identical to a serial run regardless of thread count or scheduling.
//!
//! Two rules make that guarantee hold, and every caller in this workspace
//! follows them:
//!
//! 1. **Partitioning is part of the problem, not the executor.** Work items
//!    (e.g. Monte-Carlo chunks) are defined by *index*, never by "whatever
//!    share a thread happens to grab". Seeds derive from the root seed plus
//!    the item index.
//! 2. **Merging is sequential and index-ordered.** Each item's result is
//!    computed independently; any cross-item reduction (sums of partial
//!    RMSE, energy totals) happens after the join, in index order, on one
//!    thread.
//!
//! Each executor owns one pool of workers, spawned as its parallel maps
//! and pipelines need them, shared by its clones and joined when the last
//! clone drops. A map is published as an indexed job: the caller
//! starts on index 0 at once, idle workers join in, and every thread claims
//! one index at a time from the job's atomic cursor, so unequal item costs
//! — a deep per-layer precision scan next to a shallow one — still
//! balance. A caller whose indices are all claimed runs other published
//! maps while it waits for the rest. A nested map is therefore one more
//! job, with no thread of its own, and a map that ends before a worker
//! wakes has simply run inline. Idle threads sleep on a condition
//! variable; none spins.
//!
//! The streaming [`Executor::pipeline_ordered`] behind `dvafs serve` runs
//! its items on the same pool: one reader thread pulls the stream, idle
//! workers take its items only when no map index is left, and the calling
//! thread hands the results on in item order. An item can split itself
//! into a map on the same executor, which the other workers help with
//! before they start a new item.
//!
//! Jobs live on the caller's stack and borrow its data, so no `'static`
//! bounds leak into sweep code. The one lifetime erasure this takes is in
//! the private `job` module, together with the argument that no other
//! thread can reach a job once its caller has returned.
//!
//! There is deliberately no dependency on `rayon` (the build is offline;
//! see `vendor/`): `std` threads, one lock and condition variable per
//! pool, and an atomic cursor per map are all the machinery the workspace
//! needs.
//!
//! ## Example
//!
//! ```
//! use dvafs_executor::Executor;
//!
//! let serial = Executor::serial();
//! let pool = Executor::new(4);
//! let squares = |e: &Executor| e.par_map_range(100, |i| (i * i) as u64);
//! assert_eq!(squares(&serial), squares(&pool)); // bit-identical
//! ```

#![warn(missing_docs)]

mod job;

use job::{JobList, JobRef, Queue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "DVAFS_THREADS";

thread_local! {
    /// Whether this thread is a worker of some executor's pool.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Best-effort extraction of a panic payload's message: the string of a
/// `&str` or `String` payload (what `panic!`, `assert!` and `expect`
/// raise), a placeholder otherwise.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolves a raw `DVAFS_THREADS` value to a worker count.
///
/// Returns the chosen count plus a warning message when the value was
/// present but invalid (empty, unparseable, or zero — the same values
/// `--threads` hard-errors on). The pure form exists so both the `unset`
/// and `invalid` paths are unit-testable without touching process
/// environment state.
#[must_use]
pub fn threads_from_env_value(value: Option<&str>) -> (usize, Option<String>) {
    match value {
        None => (Executor::host_parallelism(), None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => (n, None),
            _ => (
                Executor::host_parallelism(),
                Some(format!(
                    "ignoring invalid {THREADS_ENV}={raw:?} (want a positive \
                     integer); using host parallelism"
                )),
            ),
        },
    }
}

/// A deterministic parallel map executor over a fixed worker count.
///
/// Cloning is cheap: clones share one pool of workers. Workers are
/// spawned as they are needed — a map of `n` items needs up to
/// `min(n, threads) − 1`, a pipeline `threads` — so an executor that is
/// built and dropped without either never starts a thread, and they are
/// joined when the last clone drops.
#[derive(Clone)]
pub struct Executor {
    threads: usize,
    pool: Arc<Pool>,
}

impl Executor {
    /// Creates an executor with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            pool: Arc::default(),
        }
    }

    /// A single-threaded executor: `par_map_indexed` degenerates to a plain
    /// in-order `map` on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Executor::new(1)
    }

    /// The default executor: `DVAFS_THREADS` if set and valid, otherwise
    /// the host's available parallelism.
    ///
    /// An invalid value (unparseable, or `0` — which `--threads 0`
    /// hard-errors on in the CLI) is **rejected, not coerced**: the
    /// executor falls back to host parallelism and says so on stderr, so
    /// a typo in the environment never silently serializes a sweep or
    /// silently picks a worker count the caller did not ask for. The
    /// warning is printed at most once per process, however many
    /// executors are built from the environment.
    #[must_use]
    pub fn from_env() -> Self {
        static WARNED: std::sync::Once = std::sync::Once::new();
        let var = std::env::var(THREADS_ENV).ok();
        let (threads, warning) = threads_from_env_value(var.as_deref());
        if let Some(w) = warning {
            WARNED.call_once(|| eprintln!("dvafs-executor: {w}"));
        }
        Executor::new(threads)
    }

    /// The host's available parallelism (≥ 1; falls back to 1 when the OS
    /// cannot report it).
    #[must_use]
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// The worker count this executor runs with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor runs on the calling thread only.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Maps `f` over `items`, in parallel, returning results in item order.
    ///
    /// `f` receives `(index, &item)` so work can derive per-item seeds from
    /// the index. The output `Vec` is ordered by index — **not** by
    /// completion — which is what makes parallel output bit-identical to
    /// serial output for any pure `f`.
    ///
    /// The calling thread runs index 0 at once and keeps claiming indices
    /// while idle workers of the pool claim the others. Once none is left
    /// to claim, it runs indices of other published maps (a nested map's,
    /// say) until its own have finished. `f` is dropped before this
    /// returns.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest index that panicked (on the pool,
    /// once every index has finished), so the panic is the one a serial
    /// map would raise.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_range(items.len(), |i| f(i, &items[i]))
    }

    /// Maps `f` over the index range `0..n`, in parallel, returning results
    /// in index order: [`par_map_indexed`] for sweeps whose items *are*
    /// their indices (Monte-Carlo chunk numbers, dataset sample positions).
    ///
    /// [`par_map_indexed`]: Self::par_map_indexed
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest index that panicked.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        self.pool.grow((self.threads - 1).min(n - 1));
        let board = self.pool.board.as_ref();
        let key = board.next_key.fetch_add(1, Ordering::Relaxed);
        job::map_shared(board, key, n, f)
    }

    /// Fallibly maps `f` over `items` in parallel. Every item is evaluated
    /// (errors do not short-circuit the in-flight map — deliberately, so
    /// the error returned is deterministic rather than a race winner), then
    /// the lowest-indexed error is selected, matching what a serial
    /// `collect::<Result<_, _>>()` would surface.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing item.
    pub fn try_par_map_indexed<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.par_map_indexed(items, f).into_iter().collect()
    }

    /// Streams `items` through `f` on the worker pool and hands each
    /// result to `consume` **in item order**, holding at most `capacity`
    /// items in flight — the bounded-queue building block behind
    /// `dvafs serve`.
    ///
    /// Unlike [`par_map_indexed`](Self::par_map_indexed) the input is a
    /// (possibly blocking, possibly unbounded) iterator rather than a
    /// slice, and results are consumed as they become ready instead of
    /// being collected: item *k*+1 can be computing while item *k*'s
    /// result is being written out. Three properties hold for any thread
    /// count:
    ///
    /// * **Order.** `consume` sees results in item order — never
    ///   completion order — so for a pure `f` the consumed stream is
    ///   bit-identical to the serial `for` loop.
    /// * **Backpressure.** The reader stops pulling the iterator while
    ///   `capacity` items are pulled but not yet consumed (capacity is
    ///   clamped to ≥ 1), so a slow consumer bounds memory and a blocking
    ///   iterator (a socket) never races ahead.
    /// * **Liveness.** The iterator is only ever pulled *outside* every
    ///   lock, on a reader thread of its own, so an iterator that blocks on
    ///   I/O stalls neither workers nor the consumer of already-pulled
    ///   items.
    ///
    /// The items run on this executor's pool, which grows to `threads`
    /// workers here because the calling thread runs no item: it only runs
    /// `consume`. A worker takes a new item only when no index of a
    /// published map is left, and a thread waiting for its own map never
    /// takes one. So `f` may split its item with
    /// [`par_map_range`](Self::par_map_range) on this executor, and spare
    /// workers help the items already running before they start new ones.
    /// A pipeline started on a pool worker (from inside `f`, say) runs
    /// inline on that worker, as at one thread: a worker waiting for items
    /// without running any could leave none to run them.
    ///
    /// Returns the number of items processed.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest item whose `f` panicked, once
    /// `consume` has seen every earlier result — the rule
    /// [`par_map_indexed`](Self::par_map_indexed) follows — and propagates
    /// a panic raised by `consume`. Items already running finish first;
    /// items not yet started are dropped without running `f`.
    pub fn pipeline_ordered<T, R, I, F, C>(
        &self,
        capacity: usize,
        items: I,
        f: F,
        mut consume: C,
    ) -> usize
    where
        T: Send,
        R: Send,
        I: Iterator<Item = T> + Send,
        F: Fn(usize, T) -> R + Sync,
        C: FnMut(usize, R),
    {
        if self.threads == 1 || IS_WORKER.get() {
            let mut n = 0;
            for item in items {
                consume(n, f(n, item));
                n += 1;
            }
            return n;
        }
        self.pool.grow(self.threads);
        let board = self.pool.board.as_ref();
        let key = board.next_key.fetch_add(1, Ordering::Relaxed);
        job::stream_ordered(board, key, capacity.max(1), items, f, consume)
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// An executor's persistent workers; dropping it (with the last clone of
/// the executor) stops and joins them.
#[derive(Default)]
struct Pool {
    board: Arc<Board>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// Spawns workers until there are `want`.
    fn grow(&self, want: usize) {
        let mut workers = self.workers.lock().expect("executor worker list lock");
        while workers.len() < want {
            let board = Arc::clone(&self.board);
            let worker = std::thread::Builder::new()
                .name("dvafs-executor".to_string())
                .spawn(move || board.work())
                .expect("spawn an executor worker");
            workers.push(worker);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Setting the flag is valid whatever a panic interrupted.
        let mut st = self
            .board
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.board.wake.notify_all();
        let workers = self
            .workers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for worker in workers.drain(..) {
            // A worker runs no code of its own that can panic.
            let _ = worker.join();
        }
    }
}

/// What a pool's threads share: the published jobs and the one condition
/// variable every idle thread sleeps on, whether a worker or a caller
/// waiting for its map.
#[derive(Default)]
struct Board {
    state: Mutex<BoardState>,
    wake: Condvar,
    /// Publish order: lower keys are helped first, so a thread that comes
    /// free takes an outer map's next item before a nested map's.
    next_key: AtomicUsize,
}

#[derive(Default)]
struct BoardState {
    maps: JobList,
    /// Pipelines: a worker takes their items only when no map index is
    /// left, and a caller waiting for its map never takes one.
    streams: JobList,
    /// Threads asleep on `wake`; nobody is woken when none sleeps.
    sleeping: usize,
    shutdown: bool,
}

impl Board {
    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().expect("executor pool lock")
    }

    /// Sleeps on `wake` (the guard is handed back re-locked).
    fn sleep<'a>(&self, mut st: MutexGuard<'a, BoardState>) -> MutexGuard<'a, BoardState> {
        st.sleeping += 1;
        st = self.wake.wait(st).expect("executor pool lock");
        st.sleeping -= 1;
        st
    }

    /// Runs a claimed index and, if its job's owner may be waiting for it,
    /// wakes that owner.
    fn run(&self, claim: job::Claim) {
        if claim.run() {
            self.wake_idle();
        }
    }

    /// A worker's life: run map indices, else stream items, else sleep
    /// until shutdown.
    fn work(&self) {
        IS_WORKER.set(true);
        let mut st = self.lock();
        loop {
            if let Some(claim) = st.maps.claim().or_else(|| st.streams.claim()) {
                drop(st);
                self.run(claim);
                st = self.lock();
            } else if st.shutdown {
                return;
            } else {
                st = self.sleep(st);
            }
        }
    }
}

impl Queue for Board {
    fn publish(&self, key: usize, job: JobRef) {
        let mut st = self.lock();
        if job.is_stream() {
            st.streams.insert(key, job);
        } else {
            st.maps.insert(key, job);
        }
        if st.sleeping > 0 {
            self.wake.notify_all();
        }
    }

    fn retract(&self, key: usize) {
        let mut st = self.lock();
        st.maps.remove(key);
        st.streams.remove(key);
    }

    /// Helps other maps, never a stream, while `done` is false, and sleeps
    /// when there is nothing to help with.
    fn wait(&self, done: &dyn Fn() -> bool) {
        let mut st = self.lock();
        while !done() {
            if let Some(claim) = st.maps.claim() {
                drop(st);
                self.run(claim);
                st = self.lock();
            } else {
                st = self.sleep(st);
            }
        }
    }

    fn wake_idle(&self) {
        if self.lock().sleeping > 0 {
            self.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc;
    use std::time::Duration;

    /// How long a test task waits for work it expects on another thread.
    const WAIT: Duration = Duration::from_secs(30);

    #[test]
    fn results_are_in_index_order() {
        let exec = Executor::new(8);
        let items: Vec<usize> = (0..1000).collect();
        let out = exec.par_map_indexed(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_bitwise_for_float_work() {
        // A float pipeline sensitive to evaluation order if the executor
        // merged in completion order.
        let work = |i: usize| {
            let x = (i as f64).sin() * 1e-3 + (i as f64).sqrt();
            x.powf(1.5) / (i as f64 + 1.0)
        };
        let serial: Vec<f64> = Executor::serial().par_map_range(500, work);
        for threads in [2, 3, 4, 7, 16] {
            let par = Executor::new(threads).par_map_range(500, work);
            assert_eq!(
                serial.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                "{threads} threads diverged from serial"
            );
        }
    }

    #[test]
    fn unbalanced_items_all_complete() {
        let exec = Executor::new(4);
        let spent = AtomicU64::new(0);
        // Item 0 is ~100x the work of the rest: claiming must rebalance.
        let out = exec.par_map_range(64, |i| {
            let reps = if i == 0 { 40_000 } else { 400 };
            let mut acc = 0u64;
            for k in 0..reps {
                acc = acc.wrapping_mul(31).wrapping_add(k ^ i as u64);
            }
            spent.fetch_add(1, Ordering::Relaxed);
            acc
        });
        assert_eq!(out.len(), 64);
        assert_eq!(spent.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_and_single_inputs() {
        let exec = Executor::new(4);
        let empty: Vec<u32> = vec![];
        assert!(exec.par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(exec.par_map_indexed(&[7u32], |_, &x| x + 1), vec![8]);
        assert_eq!(exec.par_map_range(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert!(Executor::new(0).is_serial());
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..100).collect();
        let r: Result<Vec<usize>, usize> =
            exec.try_par_map_indexed(&items, |_, &x| if x % 30 == 17 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(17));
        let ok: Result<Vec<usize>, usize> = exec.try_par_map_indexed(&items, |_, &x| Ok(x));
        assert_eq!(ok.unwrap(), items);
    }

    #[test]
    #[should_panic(expected = "boom at 13")]
    fn worker_panics_propagate() {
        let exec = Executor::new(4);
        let _ = exec.par_map_range(64, |i| {
            if i == 13 {
                panic!("boom at 13");
            }
            i
        });
    }

    /// Blocks each caller of `arrive` until `parties` threads have
    /// arrived, so a map whose items all arrive runs each item on its own
    /// thread. Panics after [`WAIT`] instead of hanging.
    struct Rendezvous {
        arrived: Mutex<usize>,
        all: Condvar,
        parties: usize,
    }

    impl Rendezvous {
        fn new(parties: usize) -> Self {
            Rendezvous {
                arrived: Mutex::new(0),
                all: Condvar::new(),
                parties,
            }
        }

        fn arrive(&self) {
            let mut arrived = self.arrived.lock().expect("rendezvous lock");
            *arrived += 1;
            self.all.notify_all();
            while *arrived < self.parties {
                let (guard, timeout) = self
                    .all
                    .wait_timeout(arrived, WAIT)
                    .expect("rendezvous lock");
                arrived = guard;
                assert!(
                    *arrived >= self.parties || !timeout.timed_out(),
                    "only {} of {} threads arrived",
                    *arrived,
                    self.parties
                );
            }
        }
    }

    #[test]
    fn nested_maps_complete_while_every_thread_is_busy_in_outer_items() {
        for threads in 1..=8 {
            let exec = Executor::new(threads);
            let meet = Rendezvous::new(threads);
            let sums = exec.par_map_range(threads, |i| {
                // Every thread now holds an outer item, so no thread is
                // idle when the nested maps are published.
                meet.arrive();
                exec.par_map_range(50, |j| i * 100 + j)
                    .into_iter()
                    .sum::<usize>()
            });
            let expected: Vec<usize> = (0..threads)
                .map(|i| (0..50).map(|j| i * 100 + j).sum())
                .collect();
            assert_eq!(sums, expected, "{threads} threads");
        }
    }

    /// A nested map whose index 0 blocks until index 1 has run, on the
    /// thread `nest_on` of two outer items.
    fn nested_blocking_map(exec: &Executor, nest_on: usize) -> Vec<std::thread::ThreadId> {
        let (started_tx, started_rx) = mpsc::channel();
        let started_rx = Mutex::new(started_rx);
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let mut ran_on = exec.par_map_range(2, |outer| {
            if outer != nest_on {
                if outer == 0 {
                    // The caller's item ends only once the other has begun.
                    started_rx
                        .lock()
                        .expect("receiver lock")
                        .recv_timeout(WAIT)
                        .expect("outer item 1 started on the worker");
                }
                return Vec::new();
            }
            let _ = started_tx.send(());
            exec.par_map_range(2, |i| {
                if i == 0 {
                    rx.lock()
                        .expect("receiver lock")
                        .recv_timeout(WAIT)
                        .expect("index 1 ran while index 0 waited");
                } else {
                    tx.send(()).expect("index 0 is listening");
                }
                std::thread::current().id()
            })
        });
        ran_on.swap_remove(nest_on)
    }

    /// The caller nests the map in outer item 0 and blocks in its index 0,
    /// so the idle worker has to run index 1.
    #[test]
    fn an_idle_worker_helps_a_nested_map() {
        let caller = std::thread::current().id();
        let ran_on = nested_blocking_map(&Executor::new(2), 0);
        assert_eq!(ran_on[0], caller);
        assert_ne!(ran_on[1], caller, "index 1 ran on the worker");
    }

    /// The worker nests the map in outer item 1 and blocks in its index 0;
    /// the caller, done with item 0 and waiting for item 1, has to run
    /// index 1 while it waits.
    #[test]
    fn a_waiting_caller_helps_a_nested_map() {
        let caller = std::thread::current().id();
        let ran_on = nested_blocking_map(&Executor::new(2), 1);
        assert_ne!(ran_on[0], caller);
        assert_eq!(ran_on[1], caller, "the waiting caller ran index 1");
    }

    #[test]
    fn captured_values_drop_before_the_map_returns() {
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        for threads in 1..=8 {
            let exec = Executor::new(threads);
            let dropped = Arc::new(AtomicBool::new(false));
            let flag = Flag(Arc::clone(&dropped));
            let out = exec.par_map_range(16, move |i| {
                let _ = &flag;
                i
            });
            assert_eq!(out.len(), 16);
            assert!(dropped.load(Ordering::SeqCst), "{threads} threads, success");

            let dropped = Arc::new(AtomicBool::new(false));
            let flag = Flag(Arc::clone(&dropped));
            let result = catch_unwind(AssertUnwindSafe(|| {
                exec.par_map_range(16, move |i| {
                    let _ = &flag;
                    assert_ne!(i, 9, "boom");
                    i
                })
            }));
            assert!(result.is_err());
            assert!(dropped.load(Ordering::SeqCst), "{threads} threads, panic");
        }
    }

    #[test]
    fn the_lowest_index_panic_is_reraised_at_every_thread_count() {
        for threads in 1..=8 {
            let (tx, rx) = mpsc::channel();
            let rx = Mutex::new(rx);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Executor::new(threads).par_map_range(32, |i| {
                    match i {
                        // On several threads, index 5 panics only once
                        // index 20 is panicking.
                        5 => {
                            if threads > 1 {
                                rx.lock()
                                    .expect("receiver lock")
                                    .recv_timeout(WAIT)
                                    .expect("index 20 panicked first");
                            }
                            panic!("boom at {i}");
                        }
                        20 => {
                            let _ = tx.send(());
                            panic!("boom at {i}");
                        }
                        _ => i,
                    }
                })
            }))
            .expect_err("two indices panic");
            assert_eq!(
                panic_message(payload.as_ref()),
                "boom at 5",
                "{threads} threads"
            );
        }
    }

    #[test]
    fn workers_spawn_as_maps_need_them() {
        let exec = Executor::new(4);
        let workers = |e: &Executor| e.pool.workers.lock().expect("worker list lock").len();
        let _ = exec.par_map_range(1, |i| i);
        let _ = Executor::serial().par_map_range(8, |i| i);
        assert_eq!(workers(&exec), 0, "a one-item map runs inline");
        let _ = exec.par_map_range(2, |i| i);
        assert_eq!(workers(&exec), 1);
        let _ = exec.par_map_range(100, |i| i);
        assert_eq!(workers(&exec), 3, "never more than threads − 1");
        let _ = exec.par_map_range(2, |i| i);
        assert_eq!(workers(&exec), 3, "workers persist");
    }

    #[test]
    fn workers_exit_when_the_last_clone_drops() {
        thread_local! {
            static HELD: std::cell::RefCell<Option<Arc<()>>> = const {
                std::cell::RefCell::new(None)
            };
        }
        // One executor at a time: each one's workers are joined before the
        // next one spawns its own.
        for threads in 2..=8 {
            let token = Arc::new(());
            let exec = Executor::new(threads);
            let clone = exec.clone();
            let caller = std::thread::current().id();
            let meet = Rendezvous::new(threads);
            clone.par_map_range(threads, |_| {
                meet.arrive();
                // Each worker keeps a token until its thread exits.
                if std::thread::current().id() != caller {
                    HELD.with(|held| *held.borrow_mut() = Some(Arc::clone(&token)));
                }
            });
            assert_eq!(Arc::strong_count(&token), threads);
            drop(clone);
            assert_eq!(Arc::strong_count(&token), threads, "a clone keeps the pool");
            drop(exec);
            assert_eq!(
                Arc::strong_count(&token),
                1,
                "{threads} threads: workers joined"
            );
        }
    }

    #[test]
    fn from_env_and_host_parallelism_are_sane() {
        assert!(Executor::host_parallelism() >= 1);
        assert!(Executor::from_env().threads() >= 1);
    }

    #[test]
    fn env_value_resolution_accepts_positive_integers() {
        assert_eq!(threads_from_env_value(Some("3")), (3, None));
        assert_eq!(threads_from_env_value(Some(" 8 ")), (8, None));
        let (n, warn) = threads_from_env_value(None);
        assert_eq!(n, Executor::host_parallelism());
        assert!(warn.is_none());
    }

    #[test]
    fn env_value_resolution_rejects_invalid_values_with_warning() {
        // `0` used to clamp to 1 and garbage used to silently fall back;
        // both now fall back to host parallelism *and* warn, matching the
        // CLI's `--threads` validation instead of contradicting it.
        for bad in ["0", "", "  ", "lots", "-2", "3.5"] {
            let (n, warn) = threads_from_env_value(Some(bad));
            assert_eq!(n, Executor::host_parallelism(), "value {bad:?}");
            let warn = warn.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(warn.contains(THREADS_ENV), "{warn}");
            assert!(warn.contains(&format!("{bad:?}")), "{warn}");
        }
    }

    #[test]
    fn pipeline_consumes_in_order_and_matches_serial() {
        let work = |i: usize, x: u64| {
            // Uneven costs so completion order differs from item order.
            let reps = if i.is_multiple_of(7) { 20_000 } else { 200 };
            let mut acc = x;
            for k in 0..reps {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            acc
        };
        let run = |threads: usize, capacity: usize| {
            let mut seen: Vec<(usize, u64)> = Vec::new();
            let n = Executor::new(threads).pipeline_ordered(
                capacity,
                (0..300u64).map(|x| x * 11),
                work,
                |i, r| seen.push((i, r)),
            );
            assert_eq!(n, 300);
            seen
        };
        let serial = run(1, 4);
        assert!(serial.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        for (threads, capacity) in [(2, 1), (3, 2), (4, 8), (8, 64)] {
            assert_eq!(
                run(threads, capacity),
                serial,
                "{threads} threads / capacity {capacity} diverged"
            );
        }
    }

    #[test]
    fn pipeline_bounds_in_flight_items() {
        // With capacity C, no item may be claimed more than C ahead of the
        // consumed watermark (the consumer here is deliberately slow).
        const CAPACITY: usize = 3;
        let consumed = AtomicU64::new(0);
        let max_lead = AtomicU64::new(0);
        Executor::new(6).pipeline_ordered(
            CAPACITY,
            0..200usize,
            |i, _| {
                let lead = i as u64 - consumed.load(Ordering::Relaxed);
                max_lead.fetch_max(lead, Ordering::Relaxed);
            },
            |_, ()| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                consumed.fetch_add(1, Ordering::Relaxed);
            },
        );
        // The pop-before-consume window allows exactly `capacity` of lead,
        // never more.
        assert!(
            max_lead.load(Ordering::Relaxed) <= CAPACITY as u64,
            "lead {} exceeded capacity {CAPACITY}",
            max_lead.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn pipeline_handles_empty_and_single_streams() {
        let exec = Executor::new(4);
        let mut seen = Vec::new();
        assert_eq!(
            exec.pipeline_ordered(
                8,
                std::iter::empty::<u8>(),
                |_, x| x,
                |i, r| seen.push((i, r))
            ),
            0
        );
        assert!(seen.is_empty());
        assert_eq!(
            exec.pipeline_ordered(
                8,
                std::iter::once(9u8),
                |_, x| x + 1,
                |i, r| seen.push((i, r))
            ),
            1
        );
        assert_eq!(seen, [(0, 10)]);
    }

    #[test]
    #[should_panic(expected = "pipe boom at 5")]
    fn pipeline_propagates_worker_panics() {
        Executor::new(4).pipeline_ordered(
            4,
            0..64usize,
            |i, _| {
                if i == 5 {
                    panic!("pipe boom at 5");
                }
                i
            },
            |_, _| {},
        );
    }

    /// A panicking iterator ends the stream: the items pulled before it are
    /// consumed, and the panic reaches the caller instead of a hang.
    #[test]
    fn pipeline_propagates_iterator_panics() {
        for threads in [1, 2, 4] {
            let mut seen = Vec::new();
            let items = (0..8usize).inspect(|&i| assert_ne!(i, 3, "iterator boom"));
            let result = catch_unwind(AssertUnwindSafe(|| {
                Executor::new(threads).pipeline_ordered(4, items, |_, x| x, |i, _| seen.push(i))
            }));
            assert!(result.is_err(), "{threads} threads");
            assert_eq!(seen, [0, 1, 2], "{threads} threads");
        }
    }

    #[test]
    fn pipeline_reraises_the_lowest_item_panic_after_the_earlier_results() {
        for threads in 1..=8 {
            let (tx, rx) = mpsc::channel();
            let rx = Mutex::new(rx);
            let mut seen = Vec::new();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Executor::new(threads).pipeline_ordered(
                    32,
                    0..64usize,
                    |i, _| match i {
                        // On several threads, item 5 panics only once item
                        // 20 is panicking.
                        5 => {
                            if threads > 1 {
                                rx.lock()
                                    .expect("receiver lock")
                                    .recv_timeout(WAIT)
                                    .expect("item 20 panicked first");
                            }
                            panic!("boom at {i}");
                        }
                        20 => {
                            let _ = tx.send(());
                            panic!("boom at {i}");
                        }
                        _ => i,
                    },
                    |i, r| seen.push((i, r)),
                )
            }))
            .expect_err("two items panic");
            assert_eq!(
                panic_message(payload.as_ref()),
                "boom at 5",
                "{threads} threads"
            );
            let earlier: Vec<(usize, usize)> = (0..5).map(|i| (i, i)).collect();
            assert_eq!(seen, earlier, "{threads} threads");
        }
    }

    #[test]
    fn panic_message_reads_string_payloads_and_names_the_rest() {
        let payload = |f: fn()| catch_unwind(f).expect_err("the closure panics");
        let message = |f: fn()| panic_message(payload(f).as_ref());
        assert_eq!(message(|| panic!("a str payload")), "a str payload");
        assert_eq!(
            message(|| panic!("a String payload {}", 2)),
            "a String payload 2"
        );
        assert_eq!(
            message(|| std::panic::panic_any(42u32)),
            "non-string panic payload"
        );
    }

    /// A map whose index 0 blocks until index 1 has run: it completes
    /// only if index 1 runs on the idle worker while the owner waits in
    /// index 0 (a serial map would time out in index 0).
    #[test]
    fn task_map_runs_on_the_idle_worker_beside_its_owner() {
        let exec = Executor::new(2);
        let mut seen = Vec::new();
        exec.pipeline_ordered(
            1,
            std::iter::once(()),
            |_, ()| {
                let owner = std::thread::current().id();
                let (tx, rx) = mpsc::channel();
                let rx = Mutex::new(rx);
                let ran_on = exec.par_map_range(2, move |i| {
                    if i == 0 {
                        rx.lock()
                            .expect("receiver lock")
                            .recv_timeout(WAIT)
                            .expect("index 1 ran while index 0 waited");
                    } else {
                        tx.send(()).expect("index 0 is listening");
                    }
                    std::thread::current().id()
                });
                (owner, ran_on)
            },
            |_, r| seen.push(r),
        );
        let (owner, ran_on) = &seen[0];
        assert_eq!(ran_on[0], *owner, "index 0 stays on the owning worker");
        assert_ne!(ran_on[1], *owner, "index 1 ran on the idle worker");
    }

    /// A worker that finishes its item helps the running task's map
    /// before it starts the next item: item 1 finishes only once item 0
    /// has published its map, so item 2 is already queued when that
    /// worker comes free, and item 2 must find the map's index 1 done.
    #[test]
    fn idle_workers_help_before_taking_new_items() {
        let exec = Executor::new(2);
        let (published_tx, published_rx) = mpsc::channel();
        let published_rx = Mutex::new(published_rx);
        let helped = Arc::new(AtomicBool::new(false));
        let mut seen = Vec::new();
        exec.pipeline_ordered(
            8,
            0..3usize,
            |seq, _| match seq {
                0 => {
                    let (tx, rx) = mpsc::channel();
                    let rx = Mutex::new(rx);
                    let published = published_tx.clone();
                    let helped = Arc::clone(&helped);
                    exec.par_map_range(2, move |i| {
                        if i == 0 {
                            published.send(()).expect("item 1 is listening");
                            rx.lock()
                                .expect("receiver lock")
                                .recv_timeout(WAIT)
                                .expect("index 1 ran while index 0 waited");
                        } else {
                            helped.store(true, Ordering::SeqCst);
                            tx.send(()).expect("index 0 is listening");
                        }
                    });
                    true
                }
                1 => {
                    published_rx
                        .lock()
                        .expect("receiver lock")
                        .recv_timeout(WAIT)
                        .expect("item 0 published its map");
                    true
                }
                _ => helped.load(Ordering::SeqCst),
            },
            |_, r| seen.push(r),
        );
        assert_eq!(
            seen,
            [true, true, true],
            "item 2 started before the help job"
        );
    }

    /// Item 0's map holds index 1 on the other worker until item 1 has
    /// been pulled, and 50 ms more. Item 0's thread, waiting for that index,
    /// must not start item 1 meanwhile: a waiting owner runs only maps.
    #[test]
    fn a_task_waiting_for_its_map_never_starts_a_new_item() {
        let exec = Executor::new(2);
        // Index 0 and index 1 of item 0's map, and the reader about to
        // pull item 1: index 1 is then running on the other worker.
        let meet = Rendezvous::new(3);
        let owner = Mutex::new(None);
        let returned = AtomicBool::new(false);
        let mut early = Vec::new();
        let items = (0..2usize).inspect(|&i| {
            if i == 1 {
                meet.arrive();
            }
        });
        exec.pipeline_ordered(
            8,
            items,
            |seq, _| {
                let me = std::thread::current().id();
                if seq == 1 {
                    let owner = *owner.lock().expect("owner lock");
                    return owner == Some(me) && !returned.load(Ordering::SeqCst);
                }
                *owner.lock().expect("owner lock") = Some(me);
                exec.par_map_range(2, |i| {
                    meet.arrive();
                    if i == 1 {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                });
                returned.store(true, Ordering::SeqCst);
                false
            },
            |_, r| early.push(r),
        );
        assert_eq!(early, [false, false], "item 1 started on the waiting owner");
    }

    #[test]
    fn a_pipeline_and_its_nested_maps_share_threads_workers() {
        let consumer = std::thread::current().id();
        for threads in 2..=4 {
            let exec = Executor::new(threads);
            let ran_on = Mutex::new(HashSet::new());
            let record = |spin: u64| {
                let mut acc = spin;
                for k in 0..spin {
                    acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
                }
                let id = std::thread::current().id();
                ran_on.lock().expect("thread set lock").insert(id);
                acc
            };
            exec.pipeline_ordered(
                8,
                0..64u64,
                |_, x| {
                    record(100);
                    exec.par_map_range(8, |i| record(x * 8 + i as u64))
                },
                |_, _| {},
            );
            let ran_on = ran_on.into_inner().expect("thread set lock");
            assert!(
                !ran_on.contains(&consumer),
                "{threads} threads: the consumer ran work"
            );
            assert!(
                ran_on.len() <= threads,
                "{threads} threads: {} threads ran work",
                ran_on.len()
            );
        }
    }

    /// Nested pipelines would leave no worker to run the inner items if
    /// every worker waited as an inner consumer; a worker runs its inner
    /// pipeline inline instead.
    #[test]
    fn a_pipeline_inside_a_pipeline_item_runs_inline() {
        for threads in 1..=4 {
            let exec = Executor::new(threads);
            let mut sums = Vec::new();
            exec.pipeline_ordered(
                4,
                0..8u64,
                |_, x| {
                    let item_thread = std::thread::current().id();
                    let mut inline = true;
                    let mut sum = 0;
                    exec.pipeline_ordered(
                        4,
                        0..8u64,
                        |_, y| (x * 8 + y, std::thread::current().id()),
                        |_, (r, id)| {
                            sum += r;
                            inline &= id == item_thread;
                        },
                    );
                    (sum, inline)
                },
                |_, r| sums.push(r),
            );
            let expected: Vec<(u64, bool)> = (0..8).map(|x| (64 * x + 28, true)).collect();
            assert_eq!(sums, expected, "{threads} threads");
        }
    }

    #[test]
    fn task_maps_equal_the_serial_map() {
        // Uneven index costs so helpers finish out of index order.
        let work = |x: u64, i: usize| {
            let mut acc = x ^ i as u64;
            for k in 0..if i.is_multiple_of(3) { 5_000 } else { 50 } {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            acc
        };
        for threads in 1..=4 {
            for n in 0..=20 {
                let exec = Executor::new(threads);
                let mut got = Vec::new();
                exec.pipeline_ordered(
                    3,
                    0..4u64,
                    |_, x| exec.par_map_range(n, move |i| work(x, i)),
                    |_, r| got.push(r),
                );
                let serial: Vec<Vec<u64>> = (0..4)
                    .map(|x| (0..n).map(|i| work(x, i)).collect())
                    .collect();
                assert_eq!(got, serial, "{threads} threads, n = {n}");
            }
        }
    }

    /// Item 1's map panics in index 1, which runs on the idle worker
    /// (index 0 waits for it); the other items map without panicking.
    /// With `contain`, each item catches its own panic, as `dvafs serve`
    /// does.
    fn shared_index_panic(contain: bool) -> Vec<(usize, Result<usize, String>)> {
        let exec = Executor::new(2);
        let mut seen = Vec::new();
        exec.pipeline_ordered(
            2,
            0..4usize,
            |seq, _| {
                let item = || {
                    if seq != 1 {
                        return exec.par_map_range(2, |i| i).len();
                    }
                    let (tx, rx) = mpsc::channel();
                    let rx = Mutex::new(rx);
                    exec.par_map_range(2, move |i| {
                        if i == 0 {
                            rx.lock()
                                .expect("receiver lock")
                                .recv_timeout(WAIT)
                                .expect("index 1 ran on the idle worker");
                        } else {
                            tx.send(()).expect("index 0 is listening");
                            panic!("shared boom at index {i}");
                        }
                        i
                    })
                    .len()
                };
                if contain {
                    catch_unwind(AssertUnwindSafe(item)).map_err(|p| panic_message(p.as_ref()))
                } else {
                    Ok(item())
                }
            },
            |seq, r| seen.push((seq, r)),
        );
        seen
    }

    #[test]
    fn shared_index_panic_is_the_owning_items_err_under_isolate() {
        assert_eq!(
            shared_index_panic(true),
            [
                (0, Ok(2)),
                (1, Err("shared boom at index 1".to_string())),
                (2, Ok(2)),
                (3, Ok(2)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "shared boom at index 1")]
    fn shared_index_panic_propagates_under_propagate() {
        shared_index_panic(false);
    }

    #[test]
    fn task_map_reraises_the_lowest_index_panic() {
        for threads in 1..=4 {
            let exec = Executor::new(threads);
            let mut errs = Vec::new();
            exec.pipeline_ordered(
                2,
                0..3usize,
                |_, _| {
                    let map = || {
                        exec.par_map_range(6, |i| {
                            if i == 2 || i == 4 {
                                panic!("boom at index {i}");
                            }
                            i
                        })
                    };
                    catch_unwind(AssertUnwindSafe(map)).map_err(|p| panic_message(p.as_ref()))
                },
                |_, r| errs.push(r.expect_err("index 2 panics")),
            );
            assert_eq!(errs, ["boom at index 2"; 3], "{threads} threads");
        }
    }

    #[test]
    fn task_map_runs_inline_at_one_thread() {
        let caller = std::thread::current().id();
        let exec = Executor::serial();
        let mut ran_on = Vec::new();
        exec.pipeline_ordered(
            4,
            0..3usize,
            |_, _| exec.par_map_range(5, |_| std::thread::current().id()),
            |_, r| ran_on.extend(r),
        );
        assert_eq!(ran_on.len(), 15);
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "consumer boom")]
    fn pipeline_propagates_consumer_panics() {
        Executor::new(4).pipeline_ordered(
            4,
            0..64usize,
            |_, x| x,
            |i, _| {
                if i == 3 {
                    panic!("consumer boom");
                }
            },
        );
    }
}
