//! The indexed map that other threads help run, and the crate's one
//! lifetime erasure.
//!
//! [`map_shared`] runs `f` over `0..n` on its caller, the *owner*, and
//! publishes the map to a [`Queue`] so that idle threads can claim indices
//! beside it. The job lives on the owner's stack and `f` may borrow from
//! it, so a published job is a lifetime-erased reference ([`JobRef`]).
//! Every other thread reaches the job only through that reference or
//! through an index it claimed ([`Claim`]), and the owner does not leave
//! [`map_shared`], by returning or by unwinding, while either can exist:
//!
//! 1. A `JobRef` is made only in `map_shared`, cannot be cloned, and marks
//!    the job *listed* until it is dropped. Other threads claim indices
//!    only through it, from the [`JobList`] that holds it.
//! 2. Before the owner leaves, it retracts the job from its queue and
//!    checks that no `JobRef` is left. If a queue kept one, the process
//!    aborts: leaving would let another thread read a freed stack frame.
//! 3. It then waits until every claimed index has finished. A `Claim`
//!    touches the job until its index is counted as finished, and never
//!    after.
//!
//! A queue that breaks its own contract can therefore hang or abort the
//! process, but it cannot make another thread touch a job whose owner has
//! left.

#![allow(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Where an owner offers its map to other threads.
pub(crate) trait Queue {
    /// Makes `job` claimable under `key` (lower keys are helped first)
    /// and wakes idle helpers.
    fn publish(&self, key: usize, job: JobRef);
    /// Drops the job published under `key`, unless a claimer already
    /// dropped it as exhausted.
    fn retract(&self, key: usize);
    /// Blocks until `done()` holds, checking it under the lock that
    /// helpers take before they announce a finished job (a
    /// [`Claim::run`] that returned `true`).
    fn wait(&self, done: &dyn Fn() -> bool);
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
        if self.job.listed() {
            // A queue kept a reference past its retraction: no return or
            // unwind from this frame would be sound.
            std::process::abort();
        }
        // Other threads claim only through the `JobRef`, which is gone
        // (the `listed` Release/Acquire pair orders its claims before this
        // read), so this count is final.
        let claimed = self.job.claimed();
        let done = || self.job.finished() == claimed;
        while !done() {
            self.queue.wait(&done);
        }
    }
}

/// A type-erased indexed map that several threads run one claimed index
/// at a time.
trait Job: Sync {
    /// Claims the next index nobody has claimed yet.
    fn claim(&self) -> Option<usize>;
    /// Runs claimed index `i` and records its result or panic. Returns
    /// `true` when that left no claimed index unfinished.
    fn run(&self, i: usize) -> bool;
    /// Marks whether a [`JobRef`] to this job exists.
    fn set_listed(&self, listed: bool);
    /// Whether a [`JobRef`] to this job exists.
    fn listed(&self) -> bool;
    /// How many indices have been claimed.
    fn claimed(&self) -> usize;
    /// How many claimed indices have finished.
    fn finished(&self) -> usize;
}

/// The one job type: a claim cursor plus one result slot per index.
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
    fn lock(&self) -> std::sync::MutexGuard<'_, Slots<R>> {
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
        // only after the `listed` Release/Acquire pair below.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.n).then_some(i)
    }

    fn run(&self, i: usize) -> bool {
        let result = catch_unwind(AssertUnwindSafe(|| (self.f)(i)));
        let mut done = self.lock();
        done.results[i] = Some(result);
        done.count += 1;
        done.count == self.claimed()
    }

    fn set_listed(&self, listed: bool) {
        // Release, paired with the Acquire in `listed`: an owner that sees
        // `false` sees every claim made through the dropped `JobRef`.
        self.listed.store(listed, Ordering::Release);
    }

    fn listed(&self) -> bool {
        self.listed.load(Ordering::Acquire)
    }

    fn claimed(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.n)
    }

    fn finished(&self) -> usize {
        self.lock().count
    }
}

/// A published job as a queue holds it: a `&dyn Job` whose lifetime is
/// erased. It exists only between [`map_shared`]'s publish and retract.
pub(crate) struct JobRef {
    job: NonNull<dyn Job>,
}

// SAFETY: a `JobRef` only hands out `&dyn Job`, and `Job: Sync`, so the
// thread holding it may be any thread.
unsafe impl Send for JobRef {}

impl JobRef {
    fn new(job: &dyn Job) -> Self {
        job.set_listed(true);
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
}

impl Drop for JobRef {
    fn drop(&mut self) {
        // The last access: the owner may free the job once this lands.
        self.get().set_listed(false);
    }
}

/// One claimed index of a published job. Run it: the owner waits for it.
#[must_use = "the job's owner waits until the claimed index has run"]
pub(crate) struct Claim {
    job: NonNull<dyn Job>,
    index: usize,
}

impl Claim {
    /// Runs the claimed index. Returns `true` when it was the last claimed
    /// index to finish: the caller then wakes its queue's waiters.
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

    /// Claims an index of the lowest-key job that has one left, dropping
    /// jobs whose indices are all claimed.
    pub(crate) fn claim(&mut self) -> Option<Claim> {
        while let Some((_, job)) = self.jobs.first() {
            if let Some(index) = job.get().claim() {
                return Some(Claim {
                    job: job.job,
                    index,
                });
            }
            self.jobs.remove(0);
        }
        None
    }
}
