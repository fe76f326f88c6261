//! The processor threads a [`crate::ThreadedRuntime`] keeps between runs.
//!
//! Worker `i` is rank `i` for the life of the pool. Between runs the
//! workers wait, a few yields and then parked; [`WorkerPool::run`] posts
//! one borrowed job, wakes them, and does not return until every worker
//! has acknowledged it — the invariant that lets the job borrow from the
//! caller's stack, exactly as `std::thread::scope` would. Dropping the pool shuts the
//! workers down and joins them, so a caller that unwinds out of `run`
//! (a model teardown) still outlives every use of its job.
//!
//! The protocol, with its ordering sites (`docs/ordering_audit.md`):
//!
//! 1. the caller writes the job cell, arms `remaining`, and publishes
//!    both with a Release increment of `epoch` (`pool.epoch.publish`);
//! 2. a worker that Acquire-loads a new epoch (`pool.epoch.poll`) reads
//!    the cell, runs the job, and acknowledges with a Release decrement
//!    of `remaining` (`pool.remaining.ack`), the last one unparking the
//!    caller;
//! 3. the caller Acquire-loads `remaining == 0` (`pool.remaining.wait`)
//!    — every worker's last touch of the job happens-before it — and
//!    puts the idle job back in the cell.
//!
//! Both waits — a worker's for the next epoch, the caller's for the last
//! acknowledgement — go through [`pause`]: a bounded number of
//! `yield_now` rounds, as at the barrier, and only then `park`. Runs that
//! follow each other closely (a scheduler's drain posts one every few
//! hundred microseconds) then hand over through the cache, without a
//! futex wait and wake per thread per run; what that pair costs depends
//! on which cores the kernel last left the two threads on, a state that
//! lasts for seconds, so parking at once made one 20 s run of the drain
//! differ from the next by a fifth (`docs/performance.md` §5).

use crate::barrier::{model_scaled, YIELD_LIMIT};
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::thread::{self, JoinHandle, Thread};
use crate::sync::{cell_read, hb_assert, site_ord, UnsafeCell};
use std::sync::Arc;

/// One run's work: called once per rank, on that rank's worker.
type Job<'a> = &'a (dyn Fn(usize) + Sync);

/// What the cell holds while no run is in flight, so that a worker
/// always finds a job to read and the cell never keeps a borrowed one
/// past its run.
const IDLE: Job<'static> = &|_| {};

/// A posted run: the caller's job with its lifetime erased, and the
/// thread to wake on the last acknowledgement.
struct Posted {
    job: Job<'static>,
    caller: Thread,
}

struct Shared {
    /// Written by the caller while no run is in flight, read by the
    /// workers between acquiring the epoch that published it and their
    /// acknowledgement.
    posted: UnsafeCell<Posted>,
    /// Number of runs posted so far.
    epoch: AtomicUsize,
    /// Workers that have not yet acknowledged the current run.
    remaining: AtomicUsize,
    /// Value-only flag: publishes no data, the unpark after it is what
    /// wakes a parked worker.
    shutdown: AtomicBool,
}

// SAFETY: `posted` is the only field that is not `Sync` by itself. It
// holds a `Sync` job reference and a `Thread` (both `Send + Sync`), and
// access to it follows the protocol in the module docs — the caller
// alone outside a run, shared reads by the workers inside one — which
// the caller's `hb_assert!`s state and `hbsp-race` checks exhaustively.
unsafe impl Sync for Shared {}
// SAFETY: every field is `Send` (see above for `posted`'s contents).
unsafe impl Send for Shared {}

/// `p` parked worker threads, rank-stable, one job at a time.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `p` workers named `hbsp-p<rank>`; they wait for the first
    /// [`WorkerPool::run`]. Fails when the system refuses a thread, after
    /// joining the workers already started.
    pub fn new(p: usize) -> std::io::Result<Self> {
        let shared = Arc::new(Shared {
            posted: UnsafeCell::new(Posted {
                job: IDLE,
                caller: thread::current(),
            }),
            epoch: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        // Pushed one by one so that a failed spawn returns through
        // `Drop`, which joins the workers already started.
        let mut pool = WorkerPool {
            shared,
            workers: Vec::with_capacity(p),
        };
        for rank in 0..p {
            let shared = Arc::clone(&pool.shared);
            let handle = thread::Builder::new()
                .name(format!("hbsp-p{rank}"))
                .spawn(move || worker(&shared, rank))?;
            pool.workers.push(handle);
        }
        Ok(pool)
    }

    /// Run `job(rank)` on every worker and wait for all of them. A job
    /// that panics is contained on its worker (the panic hook has
    /// already reported it); the caller sees it as that rank's missing
    /// result.
    pub fn run(&mut self, job: Job<'_>) {
        let shared = &*self.shared;
        // SAFETY: only the lifetime changes. The reference is reachable
        // by workers from the epoch publish below until their
        // acknowledgements, all of which this function waits for; if it
        // unwinds instead, the pool's owner drops the pool — joining
        // the workers — before the job's referents go out of scope.
        let job: Job<'static> = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
        hb_assert!(
            shared.posted,
            "the caller posts a job only after the last acknowledgement of the previous one"
        );
        // SAFETY: `&mut self` admits one run at a time and the previous
        // one returned only after every worker's acknowledgement, so no
        // worker holds a reference into the cell.
        unsafe {
            *shared.posted.get() = Posted {
                job,
                caller: thread::current(),
            };
        }
        // Published by the epoch increment: no worker decrements before
        // acquiring it.
        shared
            .remaining
            .store(self.workers.len(), Ordering::Relaxed);
        shared
            .epoch
            .fetch_add(1, site_ord!("pool.epoch.publish", Ordering::Release));
        for w in &self.workers {
            w.thread().unpark();
        }
        let mut rounds = 0;
        while shared
            .remaining
            .load(site_ord!("pool.remaining.wait", Ordering::Acquire))
            != 0
        {
            pause(&mut rounds);
        }
        hb_assert!(
            shared.posted,
            "the worker reads the job only after acquiring the epoch that published it; \
             the caller clears it only after the last acknowledgement"
        );
        // SAFETY: every worker acknowledged, and a worker does not touch
        // the cell after its acknowledgement.
        unsafe { (*shared.posted.get()).job = IDLE };
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared
            .shutdown
            .store(true, site_ord!("pool.shutdown.publish", Ordering::Relaxed));
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            // A worker contains its jobs' panics, so `Err` means the
            // model is tearing the execution down; nothing to add.
            let _ = w.join();
        }
    }
}

/// One round of waiting for a value another thread will store: yield
/// the core for the first [`YIELD_LIMIT`] rounds, park after that. The
/// caller re-checks the value after every round, so an `unpark` that
/// lands on a thread that is not parked yet only makes its first `park`
/// return at once.
fn pause(rounds: &mut u32) {
    if *rounds < model_scaled(YIELD_LIMIT) {
        *rounds += 1;
        thread::yield_now();
    } else {
        thread::park();
    }
}

/// Rank `rank`'s thread: wait for a new epoch or shutdown, run the
/// posted job, acknowledge, repeat. Never unwinds out of a job.
fn worker(shared: &Shared, rank: usize) {
    let mut seen = 0;
    let mut rounds = 0;
    loop {
        let epoch = shared
            .epoch
            .load(site_ord!("pool.epoch.poll", Ordering::Acquire));
        if epoch == seen {
            if shared
                .shutdown
                .load(site_ord!("pool.shutdown.check", Ordering::Relaxed))
            {
                return;
            }
            pause(&mut rounds);
            continue;
        }
        seen = epoch;
        rounds = 0;
        // SAFETY: the epoch this worker acquired was published after the
        // caller's write of the cell (under the model `cell_read` checks
        // exactly that), and the caller does not write it again before
        // this worker's acknowledgement below. Other workers only read.
        let posted = unsafe { &*cell_read(&shared.posted) };
        let (job, caller) = (posted.job, posted.caller.clone());
        // A worker must never die: the ranks of the next run need it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(rank)));
        // Last touch of anything the job borrows; the handle cloned
        // above lets the wake-up come after it.
        if shared
            .remaining
            .fetch_sub(1, site_ord!("pool.remaining.ack", Ordering::Release))
            == 1
        {
            caller.unpark();
        }
    }
}
