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
//! Each executor owns one pool of up to `threads − 1` workers, spawned as
//! its parallel maps need them (never more than a map has items to share),
//! shared by its clones and joined when the last clone drops. A map is
//! published as an indexed job: the caller starts on index 0 at once, idle
//! workers join in, and every thread claims one index at a time from the
//! job's atomic cursor, so unequal item costs — a deep per-layer precision
//! scan next to a shallow one — still balance. A caller whose indices are
//! all claimed runs other published jobs while it waits for the rest. A
//! nested map is therefore one more job, with no thread of its own, and a
//! map that ends before a worker wakes has simply run inline. Idle threads
//! sleep on a condition variable; none spins.
//!
//! Jobs live on the caller's stack and borrow its data, so no `'static`
//! bounds leak into sweep code. The one lifetime erasure this takes is in
//! the private `job` module, together with the argument that no other
//! thread can reach a job once its caller has returned.
//!
//! The streaming [`Executor::pipeline_ordered_policy`] behind `dvafs
//! serve` runs on scoped threads of its own. A pipeline task can split
//! itself into an indexed map ([`TaskHandle::map_indexed`]), the same job
//! type, that idle workers of the same pipeline run beside it, merged in
//! index order like every other map here.
//!
//! There is deliberately no dependency on `rayon` (the build is offline;
//! see `vendor/`): `std` threads, one lock and condition variable per
//! pool, and an atomic cursor per job are all the machinery the workspace
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
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "DVAFS_THREADS";

/// What [`Executor::pipeline_ordered_policy`] does when a task panics.
///
/// [`Propagate`](PanicPolicy::Propagate) is the default and the retained
/// oracle: a panicking task tears down the pipeline and the panic resumes
/// on the caller, exactly as [`Executor::pipeline_ordered`] always
/// behaved. [`Isolate`](PanicPolicy::Isolate) is the serving posture: the
/// panic is contained to its task, surfaced to `consume` as
/// [`Err(TaskPanic)`](TaskPanic) **in item order**, and every other item
/// — earlier, later, in flight — is processed as if the faulted task had
/// returned normally. Panics raised by `consume` itself always propagate
/// under either policy (the consumer runs on the caller's thread and
/// owns the output stream; nothing can answer for it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Tear down the pipeline and re-raise the first task panic on the
    /// caller (the historical behavior, kept as the oracle).
    #[default]
    Propagate,
    /// Contain a task panic to its item: `consume` receives
    /// `Err(TaskPanic)` at that item's position and the stream continues.
    Isolate,
}

/// A contained task panic, delivered in item order under
/// [`PanicPolicy::Isolate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The item index whose task panicked.
    pub seq: usize,
    /// The panic payload, when it was a string (the overwhelmingly common
    /// case: `panic!`, `assert!`, `expect`); a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.seq, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
/// Cloning is cheap: clones share one pool of up to `threads − 1`
/// workers. Workers are spawned as parallel maps need them (a map of `n`
/// items needs `n − 1`), so an executor that is built and dropped without
/// one never starts a thread, and they are joined when the last clone
/// drops.
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
    /// silently picks a worker count the caller did not ask for.
    #[must_use]
    pub fn from_env() -> Self {
        let var = std::env::var(THREADS_ENV).ok();
        let (threads, warning) = threads_from_env_value(var.as_deref());
        if let Some(w) = warning {
            eprintln!("dvafs-executor: {w}");
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
    /// * **Backpressure.** The producer stops pulling the iterator while
    ///   `capacity` items are claimed-or-queued but not yet consumed
    ///   (capacity is clamped to ≥ 1), so a slow consumer bounds memory
    ///   and a blocking iterator (a socket) never races ahead.
    /// * **Liveness.** The iterator is only ever pulled *outside* the
    ///   internal lock, so an iterator that blocks on I/O stalls neither
    ///   workers nor the consumer of already-claimed items.
    ///
    /// `consume` runs on the calling thread. Returns the number of items
    /// processed.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f` or `consume`
    /// (remaining claimed items are drained without executing `f`).
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
        self.pipeline_ordered_policy(
            PanicPolicy::Propagate,
            capacity,
            items,
            |i, t, _| f(i, t),
            |i, r| match r {
                Ok(r) => consume(i, r),
                // Propagate never delivers Err: the task panic resumed on
                // the caller before the consumer could see this item.
                Err(p) => unreachable!("contained panic under Propagate: {p}"),
            },
        )
    }

    /// [`pipeline_ordered`](Self::pipeline_ordered) with an explicit
    /// [`PanicPolicy`] and a [`TaskHandle`] per task: `consume` receives
    /// `Result<R, TaskPanic>` so that under [`PanicPolicy::Isolate`] a
    /// panicking task becomes an ordered, per-item `Err` instead of
    /// tearing down the pipeline — the fault containment `dvafs serve` is
    /// built on. Under [`PanicPolicy::Propagate`] the `Err` arm is never
    /// entered and the behavior is exactly `pipeline_ordered`.
    ///
    /// `f` gets its item's [`TaskHandle`], whose
    /// [`map_indexed`](TaskHandle::map_indexed) splits the task into
    /// indexed jobs that idle workers of this pipeline run beside it.
    /// Workers take such help jobs before new items, lowest item first, so
    /// spare threads go to the task at the head of the ordered stream
    /// instead of to items whose results would wait behind it.
    ///
    /// All three `pipeline_ordered` properties (order, backpressure,
    /// liveness) hold unchanged; under `Isolate` a faulted item occupies
    /// its queue slot like any other and its `Err` is consumed at the
    /// item's own position.
    ///
    /// # Panics
    ///
    /// Under `Propagate`, propagates the first panic raised inside `f`.
    /// Under either policy, propagates a panic raised by `consume`
    /// (remaining claimed items are drained without executing `f`).
    pub fn pipeline_ordered_policy<T, R, I, F, C>(
        &self,
        policy: PanicPolicy,
        capacity: usize,
        items: I,
        f: F,
        mut consume: C,
    ) -> usize
    where
        T: Send,
        R: Send,
        I: Iterator<Item = T> + Send,
        F: Fn(usize, T, &TaskHandle<'_>) -> R + Sync,
        C: FnMut(usize, Result<R, TaskPanic>),
    {
        let capacity = capacity.max(1);
        let contain = |seq: usize, p: Box<dyn std::any::Any + Send>| TaskPanic {
            seq,
            message: panic_message(p.as_ref()),
        };
        if self.threads == 1 {
            let mut n = 0usize;
            for item in items {
                let handle = TaskHandle {
                    seq: n,
                    queue: None,
                };
                let result = match policy {
                    PanicPolicy::Propagate => Ok(f(n, item, &handle)),
                    PanicPolicy::Isolate => catch_unwind(AssertUnwindSafe(|| f(n, item, &handle)))
                        .map_err(|p| contain(n, p)),
                };
                consume(n, result);
                n += 1;
            }
            return n;
        }

        let pipe = Pipe {
            state: Mutex::new(PipeState {
                items: VecDeque::new(),
                jobs: JobList::default(),
                running: 0,
                ready: BTreeMap::new(),
                consumed: 0,
                total: None,
                panic: None,
            }),
            work: Condvar::new(),
            ready: Condvar::new(),
            space: Condvar::new(),
            helped: Condvar::new(),
        };

        let mut processed = 0usize;
        std::thread::scope(|scope| {
            // Producer: pull the iterator outside the lock, gated on
            // `seq < consumed + capacity`.
            scope.spawn(|| {
                let mut items = items;
                let mut seq = 0usize;
                loop {
                    {
                        let mut st = pipe.lock();
                        while st.panic.is_none() && seq >= st.consumed + capacity {
                            st = pipe.space.wait(st).expect("pipeline state lock");
                        }
                        if st.panic.is_some() {
                            break;
                        }
                    }
                    let Some(item) = items.next() else { break };
                    pipe.lock().items.push_back((seq, item));
                    pipe.work.notify_all();
                    seq += 1;
                }
                pipe.lock().total = Some(seq);
                pipe.ready.notify_all();
                pipe.work.notify_all();
            });

            // Workers: help the lowest published task, else claim the next
            // item; leave once the producer is done and no task runs.
            for _ in 0..self.threads {
                scope.spawn(|| loop {
                    let work = {
                        let mut st = pipe.lock();
                        loop {
                            if let Some(claim) = st.jobs.claim() {
                                break Work::Help(claim);
                            }
                            if let Some((seq, item)) = st.items.pop_front() {
                                if st.panic.is_some() {
                                    continue; // drain without executing
                                }
                                st.running += 1;
                                break Work::Item(seq, item);
                            }
                            if st.total.is_some() && st.running == 0 {
                                break Work::Done;
                            }
                            st = pipe.work.wait(st).expect("pipeline state lock");
                        }
                    };
                    let (seq, item) = match work {
                        Work::Help(claim) => {
                            if claim.run() {
                                drop(pipe.lock());
                                pipe.helped.notify_all();
                            }
                            continue;
                        }
                        Work::Item(seq, item) => (seq, item),
                        Work::Done => break,
                    };
                    let handle = TaskHandle {
                        seq,
                        queue: Some(&pipe),
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| f(seq, item, &handle)));
                    let mut st = pipe.lock();
                    st.running -= 1;
                    match result {
                        Ok(r) => {
                            st.ready.insert(seq, Ok(r));
                        }
                        Err(p) => match policy {
                            PanicPolicy::Propagate => {
                                st.panic.get_or_insert(p);
                                pipe.space.notify_all();
                            }
                            PanicPolicy::Isolate => {
                                st.ready.insert(seq, Err(contain(seq, p)));
                            }
                        },
                    }
                    let idle = st.running == 0 && st.total.is_some();
                    drop(st);
                    pipe.ready.notify_all();
                    if idle {
                        pipe.work.notify_all();
                    }
                });
            }

            // Consumer: the calling thread pops results in sequence order.
            let mut next = 0usize;
            loop {
                let result = {
                    let mut st = pipe.lock();
                    loop {
                        if st.panic.is_some() {
                            break None;
                        }
                        if let Some(r) = st.ready.remove(&next) {
                            st.consumed += 1;
                            break Some(r);
                        }
                        if st.total == Some(next) {
                            break None;
                        }
                        st = pipe.ready.wait(st).expect("pipeline state lock");
                    }
                };
                let Some(r) = result else { break };
                pipe.space.notify_all();
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| consume(next, r))) {
                    pipe.lock().panic.get_or_insert(p);
                    pipe.space.notify_all();
                    pipe.work.notify_all();
                    break;
                }
                next += 1;
            }
            processed = next;
        });

        let panic = pipe.lock().panic.take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
        processed
    }
}

/// What a pipeline worker took off the shared queue.
enum Work<T> {
    /// One index of a published help job.
    Help(job::Claim),
    /// A new item and its sequence number.
    Item(usize, T),
    /// The stream is finished and no task is running.
    Done,
}

/// The one queue of [`Executor::pipeline_ordered_policy`]: produced items,
/// published help jobs and the reorder buffer share a lock, with one
/// condition variable per kind of waiter.
struct Pipe<T, R> {
    state: Mutex<PipeState<T, R>>,
    /// Workers wait here for an item, a help job or the end of the stream.
    work: Condvar,
    /// The consumer waits here for the next result in order.
    ready: Condvar,
    /// The producer waits here for a consumed slot.
    space: Condvar,
    /// A task waits here for the indices helpers run of its map.
    helped: Condvar,
}

struct PipeState<T, R> {
    /// Pulled but unclaimed items, in sequence order.
    items: VecDeque<(usize, T)>,
    /// Help jobs with indices possibly left, keyed by the owning item.
    jobs: JobList,
    /// Items claimed by a worker and not yet finished.
    running: usize,
    /// Finished results waiting for the consumer.
    ready: BTreeMap<usize, Result<R, TaskPanic>>,
    /// Results handed to the consumer so far.
    consumed: usize,
    /// The item count, once the producer is done.
    total: Option<usize>,
    /// The panic that tears the pipeline down (a consumer panic, or a
    /// task panic under `Propagate`).
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl<T, R> Pipe<T, R> {
    fn lock(&self) -> MutexGuard<'_, PipeState<T, R>> {
        self.state.lock().expect("pipeline state lock")
    }
}

impl<T: Send, R: Send> Queue for Pipe<T, R> {
    fn publish(&self, seq: usize, job: JobRef) {
        self.lock().jobs.insert(seq, job);
        self.work.notify_all();
    }

    fn retract(&self, seq: usize) {
        self.lock().jobs.remove(seq);
    }

    fn wait(&self, done: &dyn Fn() -> bool) {
        let mut st = self.lock();
        while !done() {
            st = self.helped.wait(st).expect("pipeline state lock");
        }
    }
}

/// A running pipeline task's access to the idle workers of its pipeline,
/// handed to `f` by [`Executor::pipeline_ordered_policy`].
///
/// [`map_indexed`](Self::map_indexed) is fork-join work sharing: the
/// task's thread and any idle worker claim the map's indices one at a
/// time, and the results come back in index order, so the output is the
/// serial map's for any thread count or timing.
pub struct TaskHandle<'a> {
    seq: usize,
    /// `None` on a one-thread pipeline, where maps run inline.
    queue: Option<&'a (dyn Queue + Sync)>,
}

impl TaskHandle<'_> {
    /// Maps `f` over `0..n`, running indices on the calling thread and on
    /// any idle worker of the same pipeline, and returns the results in
    /// index order. The calling thread takes index 0 and keeps claiming
    /// until none is left, then waits for the indices helpers are running.
    /// On a one-thread pipeline, or for `n <= 1`, the map runs inline.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest index that panicked, after every
    /// index has finished, so the owning task fails as the serial map
    /// would (and under [`PanicPolicy::Isolate`] becomes that item's
    /// `Err(TaskPanic)`).
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self.queue {
            Some(queue) if n > 1 => job::map_shared(queue, self.seq, n, f),
            _ => (0..n).map(f).collect(),
        }
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

/// What a pool's threads share: the published maps and the one condition
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
    jobs: JobList,
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

    /// Runs a claimed index and, if it finished its map, wakes the map's
    /// caller.
    fn run(&self, claim: job::Claim) {
        if claim.run() && self.lock().sleeping > 0 {
            self.wake.notify_all();
        }
    }

    /// A worker's life: run claimed indices, else sleep until shutdown.
    fn work(&self) {
        let mut st = self.lock();
        loop {
            if let Some(claim) = st.jobs.claim() {
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
        st.jobs.insert(key, job);
        if st.sleeping > 0 {
            self.wake.notify_all();
        }
    }

    fn retract(&self, key: usize) {
        self.lock().jobs.remove(key);
    }

    /// Helps other maps while `done` is false, and sleeps when there is
    /// nothing to help with.
    fn wait(&self, done: &dyn Fn() -> bool) {
        let mut st = self.lock();
        while !done() {
            if let Some(claim) = st.jobs.claim() {
                drop(st);
                self.run(claim);
                st = self.lock();
            } else {
                st = self.sleep(st);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn pipeline_isolate_contains_panics_in_order() {
        // Under Isolate a panicking task becomes an ordered Err; every
        // other item — before, after, concurrent — is untouched, and the
        // consumed stream is identical for any thread count.
        let run = |threads: usize, capacity: usize| {
            let mut seen: Vec<(usize, Result<u64, String>)> = Vec::new();
            let n = Executor::new(threads).pipeline_ordered_policy(
                PanicPolicy::Isolate,
                capacity,
                0..64u64,
                |i, x, _| {
                    if i % 13 == 5 {
                        panic!("isolated boom at {i}");
                    }
                    x * 3
                },
                |i, r| seen.push((i, r.map_err(|p| p.message))),
            );
            assert_eq!(n, 64);
            seen
        };
        let serial = run(1, 4);
        assert_eq!(serial.len(), 64);
        for (i, r) in &serial {
            if i % 13 == 5 {
                assert_eq!(*r, Err(format!("isolated boom at {i}")));
            } else {
                assert_eq!(*r, Ok(*i as u64 * 3));
            }
        }
        for (threads, capacity) in [(2, 1), (3, 4), (8, 64)] {
            assert_eq!(
                run(threads, capacity),
                serial,
                "{threads} threads / capacity {capacity} diverged under Isolate"
            );
        }
    }

    #[test]
    fn pipeline_isolate_reports_seq_and_placeholder_payloads() {
        let mut errs: Vec<TaskPanic> = Vec::new();
        Executor::new(3).pipeline_ordered_policy(
            PanicPolicy::Isolate,
            2,
            0..8usize,
            |i, _, _| {
                if i == 2 {
                    // A String payload (panic! with formatting).
                    panic!("string payload {i}");
                }
                if i == 5 {
                    // A non-string payload must not poison the stream.
                    std::panic::panic_any(42u32);
                }
                i
            },
            |_, r| {
                if let Err(p) = r {
                    errs.push(p);
                }
            },
        );
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].seq, 2);
        assert_eq!(errs[0].message, "string payload 2");
        assert_eq!(errs[1].seq, 5);
        assert_eq!(errs[1].message, "non-string panic payload");
        assert_eq!(errs[0].to_string(), "task 2 panicked: string payload 2");
    }

    #[test]
    #[should_panic(expected = "consumer boom under isolate")]
    fn pipeline_isolate_still_propagates_consumer_panics() {
        // Isolate contains *task* panics only: the consumer owns the
        // output stream and nothing can answer for it.
        Executor::new(4).pipeline_ordered_policy(
            PanicPolicy::Isolate,
            4,
            0..64usize,
            |_, x, _| x,
            |i, _| {
                if i == 3 {
                    panic!("consumer boom under isolate");
                }
            },
        );
    }

    #[test]
    fn panic_policy_defaults_to_propagate() {
        assert_eq!(PanicPolicy::default(), PanicPolicy::Propagate);
    }

    /// A map whose index 0 blocks until index 1 has run: it completes
    /// only if index 1 runs on the idle worker while the owner waits in
    /// index 0 (a serial map would time out in index 0).
    #[test]
    fn task_map_runs_on_the_idle_worker_beside_its_owner() {
        let mut seen = Vec::new();
        Executor::new(2).pipeline_ordered_policy(
            PanicPolicy::Propagate,
            1,
            std::iter::once(()),
            |_, (), handle| {
                let owner = std::thread::current().id();
                let (tx, rx) = mpsc::channel();
                let rx = Mutex::new(rx);
                let ran_on = handle.map_indexed(2, move |i| {
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
            |_, r| seen.push(r.expect("no task panics")),
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
        let (published_tx, published_rx) = mpsc::channel();
        let published_rx = Mutex::new(published_rx);
        let helped = Arc::new(AtomicBool::new(false));
        let mut seen = Vec::new();
        Executor::new(2).pipeline_ordered_policy(
            PanicPolicy::Propagate,
            8,
            0..3usize,
            |seq, _, handle| match seq {
                0 => {
                    let (tx, rx) = mpsc::channel();
                    let rx = Mutex::new(rx);
                    let published = published_tx.clone();
                    let helped = Arc::clone(&helped);
                    handle.map_indexed(2, move |i| {
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
            |_, r| seen.push(r.expect("no task panics")),
        );
        assert_eq!(
            seen,
            [true, true, true],
            "item 2 started before the help job"
        );
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
                let mut got = Vec::new();
                Executor::new(threads).pipeline_ordered_policy(
                    PanicPolicy::Propagate,
                    3,
                    0..4u64,
                    |_, x, handle| handle.map_indexed(n, move |i| work(x, i)),
                    |_, r| got.push(r.expect("no task panics")),
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
    fn shared_index_panic(policy: PanicPolicy) -> Vec<(usize, Result<usize, String>)> {
        let mut seen = Vec::new();
        Executor::new(2).pipeline_ordered_policy(
            policy,
            2,
            0..4usize,
            |seq, _, handle| {
                if seq != 1 {
                    return handle.map_indexed(2, |i| i).len();
                }
                let (tx, rx) = mpsc::channel();
                let rx = Mutex::new(rx);
                handle
                    .map_indexed(2, move |i| {
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
            },
            |seq, r| seen.push((seq, r.map_err(|p| p.message))),
        );
        seen
    }

    #[test]
    fn shared_index_panic_is_the_owning_items_err_under_isolate() {
        assert_eq!(
            shared_index_panic(PanicPolicy::Isolate),
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
        shared_index_panic(PanicPolicy::Propagate);
    }

    #[test]
    fn task_map_reraises_the_lowest_index_panic() {
        for threads in 1..=4 {
            let mut errs = Vec::new();
            Executor::new(threads).pipeline_ordered_policy(
                PanicPolicy::Isolate,
                2,
                0..3usize,
                |_, _, handle| {
                    handle.map_indexed(6, |i| {
                        if i == 2 || i == 4 {
                            panic!("boom at index {i}");
                        }
                        i
                    })
                },
                |_, r| errs.push(r.expect_err("index 2 panics").message),
            );
            assert_eq!(errs, ["boom at index 2"; 3], "{threads} threads");
        }
    }

    #[test]
    fn task_map_runs_inline_at_one_thread() {
        let caller = std::thread::current().id();
        let mut ran_on = Vec::new();
        Executor::serial().pipeline_ordered_policy(
            PanicPolicy::Propagate,
            4,
            0..3usize,
            |_, _, handle| handle.map_indexed(5, |_| std::thread::current().id()),
            |_, r| ran_on.extend(r.expect("no task panics")),
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
