//! The jobs that other threads help run, and the crate's one lifetime
//! erasure.
//!
//! A job lives on the stack of the thread that made it, its *owner*, and
//! may borrow from it. There are two kinds:
//!
//! - [`map_shared`] runs `f` over `0..n` on the owner and on the threads
//!   that claim indices beside it.
//! - [`stream_ordered`] runs `f` over the items its reader thread pulls, on
//!   the threads that claim them, while the owner hands the results on in
//!   item order. A stream's indices are its items' sequence numbers.
//!
//! A published job is therefore a lifetime-erased reference ([`JobRef`]).
//! Every other thread reaches the job only through that reference or
//! through an index it claimed ([`Claim`]), and the owner does not leave
//! the function that made the job, by returning or by unwinding, while
//! either can exist:
//!
//! 1. A `JobRef` is made only by the [`Published`] guard, cannot be
//!    cloned, and marks the job *listed* until it is dropped. Other threads
//!    claim indices only through it, from the [`JobList`] that holds it.
//! 2. Before the owner leaves, it retracts the job from its queue and
//!    checks that no `JobRef` is left. If a queue kept one, the process
//!    aborts: leaving would let another thread read a freed stack frame.
//! 3. It then waits until every claimed index has finished. A `Claim`
//!    touches the job until its index is counted as finished, and never
//!    after: a stream wakes its owner before it releases the lock it counts
//!    the item under.
//!
//! A stream's reader borrows the stream through `std::thread::scope`, which
//! joins it before the owner leaves, so the reader needs no erasure.
//!
//! A queue that breaks its own contract can therefore hang or abort the
//! process, but it cannot make another thread touch a job whose owner has
//! left.

#![allow(unsafe_code)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Where an owner offers its job to other threads.
pub(crate) trait Queue: Sync {
    /// Makes `job` claimable under `key` and wakes idle helpers. Helpers
    /// take map indices, lowest key first, before any stream item.
    fn publish(&self, key: usize, job: JobRef);
    /// Drops the job published under `key`, unless a claimer already
    /// dropped it as exhausted.
    fn retract(&self, key: usize);
    /// Blocks until `done()` holds, checking it under the lock that
    /// helpers take before they announce a finished job (a
    /// [`Claim::run`] that returned `true`).
    fn wait(&self, done: &dyn Fn() -> bool);
    /// Wakes idle helpers: a published stream has an item to claim.
    fn wake_idle(&self);
}

/// Maps `f` over `0..n` on the calling thread and on any thread that
/// claims from `queue`, and returns the results in index order.
///
/// The caller runs index 0 and keeps claiming until no index is left,
/// then waits for the indices helpers are running.
///
/// # Panics
///
/// Re-raises the panic of the lowest index that panicked, once every
/// index has finished and `f` has been dropped.
pub(crate) fn map_shared<R, F>(queue: &dyn Queue, key: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let job = MapJob {
        f,
        n,
        next: AtomicUsize::new(0),
        listed: AtomicBool::new(false),
        done: Mutex::new(Slots {
            results: (0..n).map(|_| None).collect(),
            count: 0,
        }),
    };
    {
        let mut claimed = job.claim();
        let _published = Published::new(queue, key, &job);
        while let Some(i) = claimed {
            job.run(i);
            claimed = job.claim();
        }
    }
    job.into_results()
}

/// Runs `f` over `items` on the threads that claim from `queue`, and hands
/// each result to `consume` on the calling thread in item order, with at
/// most `capacity` items pulled and not yet consumed. One scoped reader
/// thread pulls the iterator, outside every lock. Returns how many results
/// were consumed.
///
/// # Panics
///
/// Re-raises a panic of `consume`, or of `f` for the lowest item that
/// panicked once every earlier result was consumed, and panics if the
/// iterator does. The items already claimed finish first; the others are
/// dropped unrun.
pub(crate) fn stream_ordered<T, R, I, F, C>(
    queue: &dyn Queue,
    key: usize,
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
    let stream = StreamJob {
        f,
        listed: AtomicBool::new(false),
        flow: Mutex::new(Flow {
            items: BTreeMap::new(),
            results: BTreeMap::new(),
            pulled: 0,
            claimed: 0,
            finished: 0,
            consumed: 0,
            ended: false,
            stopped: false,
        }),
        ready: Condvar::new(),
        space: Condvar::new(),
    };
    let mut panic = None;
    let consumed = std::thread::scope(|scope| {
        scope.spawn(|| {
            // The stream ends even if the iterator panics; the scope then
            // re-raises that panic.
            let read = catch_unwind(AssertUnwindSafe(|| stream.read(items, capacity, queue)));
            stream.end();
            read.unwrap_or_else(|p| resume_unwind(p));
        });
        let _published = Published::new(queue, key, &stream);
        let mut next = 0;
        while let Some(result) = stream.next_result() {
            if let Err(p) = result.and_then(|r| catch_unwind(AssertUnwindSafe(|| consume(next, r))))
            {
                panic = Some(p);
                break;
            }
            next += 1;
        }
        stream.stop();
        next
    });
    if let Some(p) = panic {
        resume_unwind(p);
    }
    consumed
}

/// A job's stay in a queue: dropping it retracts the job and waits out
/// every index another thread claimed, so the owner's frame outlives
/// every reference to the job.
struct Published<'a> {
    queue: &'a dyn Queue,
    key: usize,
    job: &'a dyn Job,
}

impl<'a> Published<'a> {
    fn new(queue: &'a dyn Queue, key: usize, job: &'a dyn Job) -> Self {
        // The guard exists before the queue sees the job, so a panicking
        // `publish` still retracts and waits.
        let published = Published { queue, key, job };
        queue.publish(key, JobRef::new(job));
        published
    }
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        self.queue.retract(self.key);
        // Acquire, paired with the Release in `JobRef`'s drop: every claim
        // made through the dropped `JobRef` is seen below.
        if self.job.listed().load(Ordering::Acquire) {
            // A queue kept a reference past its retraction: no return or
            // unwind from this frame would be sound.
            std::process::abort();
        }
        // Other threads claim only through the `JobRef`, which is gone, so
        // no index is claimed from here on.
        let done = || self.job.settled();
        while !done() {
            self.queue.wait(&done);
        }
    }
}

/// A type-erased job that several threads run one claimed index at a
/// time.
trait Job: Sync {
    /// Claims the next index nobody has claimed yet, if one is ready.
    fn claim(&self) -> Option<usize>;
    /// Runs claimed index `i` and records its result or panic. Returns
    /// `true` when the owner may be waiting for its claimed indices and
    /// that left none unfinished.
    fn run(&self, i: usize) -> bool;
    /// Whether a [`JobRef`] to this job exists.
    fn listed(&self) -> &AtomicBool;
    /// Whether every claimed index has finished.
    fn settled(&self) -> bool;
    /// Whether this is a stream, which stays listed while no item is ready.
    fn is_stream(&self) -> bool {
        false
    }
}

/// An indexed map: a claim cursor plus one result slot per index.
struct MapJob<R, F> {
    f: F,
    n: usize,
    next: AtomicUsize,
    listed: AtomicBool,
    done: Mutex<Slots<R>>,
}

struct Slots<R> {
    results: Vec<Option<std::thread::Result<R>>>,
    count: usize,
}

impl<R, F> MapJob<R, F> {
    fn lock(&self) -> MutexGuard<'_, Slots<R>> {
        self.done.lock().expect("map job lock")
    }

    /// The results in index order, after `f` is dropped.
    fn into_results(self) -> Vec<R> {
        let MapJob { f, done, .. } = self;
        drop(f);
        let slots = done.into_inner().expect("map job lock");
        slots
            .results
            .into_iter()
            .map(|slot| match slot.expect("every index ran") {
                Ok(r) => r,
                Err(p) => resume_unwind(p),
            })
            .collect()
    }
}

impl<R, F> Job for MapJob<R, F>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fn claim(&self) -> Option<usize> {
        // Relaxed: the cursor publishes no data. Its count is read as final
        // only after the `listed` Release/Acquire pair.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    fn run(&self, i: usize) -> bool {
        let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
        let mut done = self.lock();
        done.results[i] = Some(result);
        done.count += 1;
        done.count == self.next.load(Ordering::Relaxed).min(self.n)
    }

    fn listed(&self) -> &AtomicBool {
        &self.listed
    }

    fn settled(&self) -> bool {
        self.lock().count == self.next.load(Ordering::Relaxed).min(self.n)
    }
}

/// An ordered stream: the items its reader pulled, claimed in sequence
/// order, and their results until the owner consumes them.
struct StreamJob<T, R, F> {
    f: F,
    listed: AtomicBool,
    flow: Mutex<Flow<T, R>>,
    /// The owner waits here for the next result in order.
    ready: Condvar,
    /// The reader waits here for a consumed slot.
    space: Condvar,
}

struct Flow<T, R> {
    /// Pulled items that no claimer has taken yet, by sequence number.
    items: BTreeMap<usize, T>,
    /// Finished results that the owner has not taken, by sequence number.
    results: BTreeMap<usize, std::thread::Result<R>>,
    pulled: usize,
    claimed: usize,
    finished: usize,
    consumed: usize,
    /// The reader has pulled its last item.
    ended: bool,
    /// The owner has stopped consuming: nothing more is pulled or claimed.
    stopped: bool,
}

impl<T, R, F> StreamJob<T, R, F> {
    fn lock(&self) -> MutexGuard<'_, Flow<T, R>> {
        self.flow.lock().expect("stream lock")
    }

    /// The reader's loop: pulls the next item whenever fewer than
    /// `capacity` pulled items wait to be consumed, until the iterator ends
    /// or the owner stops.
    fn read(&self, mut items: impl Iterator<Item = T>, capacity: usize, queue: &dyn Queue) {
        loop {
            let mut flow = self.lock();
            while !flow.stopped && flow.pulled >= flow.consumed + capacity {
                flow = self.space.wait(flow).expect("stream lock");
            }
            if flow.stopped {
                return;
            }
            drop(flow);
            let Some(item) = items.next() else { return };
            let mut flow = self.lock();
            let seq = flow.pulled;
            flow.items.insert(seq, item);
            flow.pulled += 1;
            drop(flow);
            queue.wake_idle();
        }
    }

    /// Marks that the reader has pulled its last item.
    fn end(&self) {
        self.lock().ended = true;
        self.ready.notify_one();
    }

    /// The owner's wait for the next result in order: `None` once the
    /// reader has ended and every pulled item was consumed.
    fn next_result(&self) -> Option<std::thread::Result<R>> {
        let mut flow = self.lock();
        loop {
            let next = flow.consumed;
            if let Some(result) = flow.results.remove(&next) {
                flow.consumed += 1;
                self.space.notify_one();
                return Some(result);
            }
            if flow.ended && flow.pulled == next {
                return None;
            }
            flow = self.ready.wait(flow).expect("stream lock");
        }
    }

    /// Stops the reader and every further claim.
    fn stop(&self) {
        self.lock().stopped = true;
        self.space.notify_one();
    }
}

impl<T, R, F> Job for StreamJob<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    fn claim(&self) -> Option<usize> {
        let mut flow = self.lock();
        if flow.stopped || flow.claimed == flow.pulled {
            return None;
        }
        flow.claimed += 1;
        Some(flow.claimed - 1)
    }

    fn run(&self, seq: usize) -> bool {
        let item = self.lock().items.remove(&seq).expect("a claimed item");
        let result = catch_unwind(AssertUnwindSafe(|| (self.f)(seq, item)));
        let mut flow = self.lock();
        flow.results.insert(seq, result);
        flow.finished += 1;
        // Under the lock: once this item is counted, the owner may leave.
        self.ready.notify_one();
        flow.stopped && flow.finished == flow.claimed
    }

    fn listed(&self) -> &AtomicBool {
        &self.listed
    }

    fn settled(&self) -> bool {
        let flow = self.lock();
        flow.finished == flow.claimed
    }

    fn is_stream(&self) -> bool {
        true
    }
}

/// A published job as a queue holds it: a `&dyn Job` whose lifetime is
/// erased. It exists only between a [`Published`] guard's publish and
/// retract.
pub(crate) struct JobRef {
    job: NonNull<dyn Job>,
}

// SAFETY: a `JobRef` only hands out `&dyn Job`, and `Job: Sync`, so the
// thread holding it may be any thread.
unsafe impl Send for JobRef {}

impl JobRef {
    fn new(job: &dyn Job) -> Self {
        job.listed().store(true, Ordering::Release);
        let job: NonNull<dyn Job + '_> = NonNull::from(job);
        // SAFETY: this changes only the trait object's lifetime bound, not
        // the pointer. The owner keeps the job alive while any `JobRef`
        // exists (the `Published` guard checks `listed` before it lets the
        // owner go).
        let job: NonNull<dyn Job + 'static> = unsafe { std::mem::transmute(job) };
        JobRef { job }
    }

    fn get(&self) -> &dyn Job {
        // SAFETY: the job is alive while this `JobRef` exists (see `new`).
        unsafe { self.job.as_ref() }
    }

    /// Whether the job is a stream rather than a map.
    pub(crate) fn is_stream(&self) -> bool {
        self.get().is_stream()
    }
}

impl Drop for JobRef {
    fn drop(&mut self) {
        // The last access: the owner may free the job once this lands.
        // Release, paired with the Acquire in `Published`'s drop.
        self.get().listed().store(false, Ordering::Release);
    }
}

/// One claimed index of a published job. Run it: the owner waits for it.
#[must_use = "the job's owner waits until the claimed index has run"]
pub(crate) struct Claim {
    job: NonNull<dyn Job>,
    index: usize,
}

impl Claim {
    /// Runs the claimed index. Returns `true` when its owner may be waiting
    /// and it was the last claimed index to finish: the caller then wakes
    /// its queue's waiters.
    pub(crate) fn run(self) -> bool {
        // SAFETY: the owner does not leave before every claimed index has
        // finished, and this index finishes inside `run`, after its last
        // access to the job.
        unsafe { self.job.as_ref() }.run(self.index)
    }
}

/// The jobs published to one queue, lowest key first. The queue keeps the
/// list under the lock its [`Queue::wait`] checks `done` under.
#[derive(Default)]
pub(crate) struct JobList {
    jobs: Vec<(usize, JobRef)>,
}

impl JobList {
    /// Adds `job` under `key`.
    pub(crate) fn insert(&mut self, key: usize, job: JobRef) {
        let at = self.jobs.partition_point(|&(k, _)| k < key);
        self.jobs.insert(at, (key, job));
    }

    /// Drops the job under `key`, if it is still listed.
    pub(crate) fn remove(&mut self, key: usize) {
        self.jobs.retain(|&(k, _)| k != key);
    }

    /// Claims an index of the lowest-key job that has one ready. A map
    /// whose indices are all claimed leaves the list; a stream stays until
    /// its owner retracts it, as its reader may pull more items.
    pub(crate) fn claim(&mut self) -> Option<Claim> {
        let mut at = 0;
        while let Some((_, job)) = self.jobs.get(at) {
            if let Some(index) = job.get().claim() {
                return Some(Claim {
                    job: job.job,
                    index,
                });
            }
            if job.is_stream() {
                at += 1;
            } else {
                self.jobs.remove(at);
            }
        }
        None
    }
}
