//! Superstep barriers with a leader hook.
//!
//! Two implementations of the same rendezvous contract:
//!
//! * [`CentralBarrier`] — the classic flat sense-reversing barrier: one
//!   mutex + condvar that every thread hammers. Kept as the baseline the
//!   hierarchical barrier is measured against (`tests/stress.rs` at
//!   p = 16, 32 and 64, the repository benchmark at p = 8).
//! * [`HierBarrier`] — a hierarchical sense-reversing barrier whose
//!   combining tree mirrors an [`hbsp_core::MachineTree`]: leaf
//!   processors arrive at their cluster's combining node, the last
//!   arriver of a cluster arrives at the parent cluster, and the thread
//!   that completes the root arrival becomes the generation's leader.
//!   Arrival is a single relaxed-contention `fetch_add` per tree level
//!   (so threads of different clusters never touch the same cache
//!   line), and waiting is spin-then-park on the *cluster's* gate, so
//!   both the arrival counters and the wait queues are c-way, not
//!   p-way — release is one broadcast per cluster, not one syscall per
//!   thread.
//!
//! In both, the last thread to arrive runs a closure (the "leader
//! section") before anyone is released — the standard way to fold a
//! small amount of sequential coordination (here: superstep
//! bookkeeping) into a barrier without extra synchronization rounds.
//! Exactly one thread per generation runs the leader section.

//! ## Watchdogs and aborts
//!
//! Both barriers also offer a *watched* wait
//! ([`CentralBarrier::wait_leader_watched`],
//! [`HierBarrier::wait_leader_watched`]): a waiter that outlives the
//! given deadline without seeing the generation flip claims the abort
//! (exactly one claimant per barrier lifetime), runs an `on_timeout`
//! closure (the engine's drain-and-fail path), and permanently kills
//! the barrier — every current and future waiter returns `None`
//! immediately instead of hanging. This is what turns a stalled or
//! vanished peer into a typed `BarrierTimeout` error. All internal
//! locks are poison-tolerant: a panicking thread elsewhere must not
//! cascade `PoisonError` panics through surviving waiters.

use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::sync::{site_ord, Condvar, Instant, Mutex, MutexGuard};
use hbsp_core::MachineTree;
use std::sync::PoisonError;
use std::time::Duration;

/// Process-global census of runtime threads that compete with barrier
/// parties for cores: every live [`HierBarrier`] contributes its party
/// count, and auxiliary threads (probes, monitors, co-running test
/// harnesses) can add themselves via [`register_extra_thread`]. The
/// spin/park policy consults this census — both at construction and
/// periodically from the leader section — so a barrier stops spinning
/// when the process becomes oversubscribed *after* it was built.
static RUNTIME_THREADS: AtomicUsize = AtomicUsize::new(0);

/// RAII registration of `n` runtime threads in the process census.
pub struct ThreadCensusGuard {
    n: usize,
}

impl Drop for ThreadCensusGuard {
    fn drop(&mut self) {
        RUNTIME_THREADS.fetch_sub(self.n, Ordering::Relaxed);
    }
}

fn register_threads(n: usize) -> ThreadCensusGuard {
    RUNTIME_THREADS.fetch_add(n, Ordering::Relaxed);
    ThreadCensusGuard { n }
}

/// Register one auxiliary thread (a probe flusher, a watchdog, a
/// co-running harness thread) with the barrier spin policy for the
/// lifetime of the returned guard. While any extra thread is
/// registered, barriers whose parties plus extras exceed the host's
/// cores park immediately instead of spinning — a spinning waiter
/// would only steal cycles from the thread everyone is waiting for.
pub fn register_extra_thread() -> ThreadCensusGuard {
    register_threads(1)
}

fn census_threads() -> usize {
    RUNTIME_THREADS.load(Ordering::Relaxed)
}

/// The pure spin policy: how many generation-poll iterations a waiter
/// runs before yielding/parking, given the host's core count, the
/// barrier's party count, and how many *other* runtime threads are
/// live in the process. Spinning is only ever profitable when every
/// party (and every co-running thread) can hold a core simultaneously.
fn spin_iters(cores: usize, parties: usize, extra: usize) -> u32 {
    if cores >= parties + extra {
        model_scaled(SPIN_LIMIT)
    } else {
        0
    }
}

/// Scale a spin/yield budget down when running inside a model
/// exploration: every poll iteration there is a scheduler decision
/// point, so the real budgets would blow up the interleaving space
/// without exercising any additional behavior (one spin round and one
/// yield round cover the spin→yield→park escalation). Identity in
/// normal builds and outside explorations.
#[cfg(feature = "model")]
pub(crate) fn model_scaled(limit: u32) -> u32 {
    if weave::is_modeling() {
        limit.min(1)
    } else {
        limit
    }
}

#[cfg(not(feature = "model"))]
pub(crate) fn model_scaled(limit: u32) -> u32 {
    limit
}

/// Poison-tolerant lock: a panic in some other thread while it held
/// the mutex must not take the survivors down with it. Shared with the
/// engine and mailboxes — every runtime lock maps poisoning into the
/// typed abort path instead of cascading `PoisonError` unwraps.
pub(crate) fn lock_anyway<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| {
        // Count the recovery (process-global: the poisoning thread is
        // gone, so nobody else can attribute it to a run).
        hbsp_obs::metrics::record_poison_recovery();
        e.into_inner()
    })
}

struct Inner {
    arrived: usize,
    generation: u64,
    /// Permanently true once a watched wait timed out: the barrier is
    /// dead and every wait returns `None` immediately.
    aborted: bool,
}

/// A flat barrier for a fixed set of `n` threads, reusable across
/// generations.
pub struct CentralBarrier {
    n: usize,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl CentralBarrier {
    /// Barrier for `n` threads.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "barrier needs at least one thread");
        CentralBarrier {
            n,
            inner: Mutex::new(Inner {
                arrived: 0,
                generation: 0,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.n
    }

    /// Wait for all `n` threads. The last to arrive runs `leader` (while
    /// the others remain blocked), then everyone is released. Returns
    /// `Some(result)` to the leader, `None` to the rest.
    pub fn wait_leader<R>(&self, leader: impl FnOnce() -> R) -> Option<R> {
        self.wait_leader_watched(None, || (), leader)
    }

    /// [`Self::wait_leader`] with a watchdog: a waiter still blocked
    /// `timeout` after arriving claims the abort, runs `on_timeout`
    /// (exactly once per barrier, while holding the barrier lock — the
    /// same exclusivity the leader section gets), and kills the
    /// barrier. Every wait on a dead barrier returns `None` at once.
    pub fn wait_leader_watched<R>(
        &self,
        timeout: Option<Duration>,
        on_timeout: impl FnOnce(),
        leader: impl FnOnce() -> R,
    ) -> Option<R> {
        let mut guard = lock_anyway(&self.inner);
        if guard.aborted {
            return None;
        }
        guard.arrived += 1;
        if guard.arrived == self.n {
            // Leader: run the section, flip the generation, release.
            let result = leader();
            guard.arrived = 0;
            guard.generation = guard.generation.wrapping_add(1);
            self.cv.notify_all();
            Some(result)
        } else {
            let gen = guard.generation;
            let deadline = timeout.map(|t| Instant::now() + t);
            loop {
                if guard.generation != gen || guard.aborted {
                    return None;
                }
                match deadline {
                    None => guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            // Claim the abort: `on_timeout` runs under
                            // the barrier lock, so its effects are
                            // visible to every waiter before they wake.
                            guard.aborted = true;
                            on_timeout();
                            self.cv.notify_all();
                            return None;
                        }
                        guard = self
                            .cv
                            .wait_timeout(guard, d - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
            }
        }
    }

    /// Plain barrier wait with no leader work.
    pub fn wait(&self) {
        self.wait_leader(|| ());
    }
}

/// The arrival counter of a combining node, alone on its own pair of
/// cache lines (128 covers adjacent-line prefetch on common x86
/// parts): the hammered `fetch_add` line must not be shared with the
/// node's gate or with a neighbouring node's counter.
#[repr(align(128))]
struct ArriveLine {
    /// Arrivals so far in the current generation.
    count: AtomicUsize,
}

/// The wait state of a combining node, on its own pair of cache lines
/// for the same reason: parked-waiter bookkeeping must not false-share
/// with the arrival counter one field over.
#[repr(align(128))]
struct WaitLine {
    /// Gate the node's waiters park behind: threads whose arrival
    /// stopped at this node block here, so wait queues are as wide as a
    /// cluster, and the leader releases with one broadcast per cluster.
    /// The guarded count is the number of waiters parked (or committed
    /// to parking) behind the gate — the leader skips the broadcast
    /// entirely for gates nobody is parked behind, which on the
    /// yield-resolved fast path makes release syscall-free.
    gate: Mutex<usize>,
    cv: Condvar,
}

/// One combining node: a cluster of the machine tree. `repr(C)` pins
/// the layout so the const assertions below can verify that the three
/// concurrently-touched regions (cold topology metadata, the arrival
/// counter, the wait gate) sit on disjoint cache lines.
#[repr(C)]
struct TreeNode {
    /// Parent combining node, `None` for the root.
    parent: Option<usize>,
    /// Arrivals this node waits for: one per machine-tree child (a
    /// processor child arrives itself; a sub-cluster child is
    /// represented by its own last arriver).
    expected: usize,
    arrive: ArriveLine,
    wait: WaitLine,
}

// Layout audit: metadata, arrival counter, and wait gate each own a
// disjoint 128-byte slot, and nodes tile an array without bleeding
// into each other's lines.
const _: () = {
    assert!(std::mem::align_of::<TreeNode>() == 128);
    assert!(std::mem::offset_of!(TreeNode, arrive) == 128);
    assert!(std::mem::offset_of!(TreeNode, wait) == 256);
    assert!(std::mem::size_of::<TreeNode>() == 384);
};

/// Iterations of generation-polling before a waiter parks, when the
/// host has a core per thread. Kept short: superstep leader sections do
/// real work (timing, message routing), so a long-spinning waiter only
/// burns power. When threads outnumber cores the barrier does not spin
/// at all — a spinning waiter then *delays* the very threads it is
/// waiting for, so parking immediately is strictly better.
const SPIN_LIMIT: u32 = 64;

/// Bounded `yield_now` rounds between spinning and parking. On an
/// oversubscribed host each yield hands the core to the very threads
/// the waiter is blocked on, and the generation flip usually lands
/// within a few reschedules — resolving the barrier without any
/// futex wait/wake round-trip. Bounded so a genuinely stalled peer
/// still drives waiters into the parked state where the watchdog
/// deadline is honored. The worker pool waits the same way between
/// runs (`pool.rs`).
pub(crate) const YIELD_LIMIT: u32 = 64;

/// The leader re-reads the core count and thread census every this
/// many generations, so the spin policy tracks oversubscription drift
/// (another runtime starting in-process, cgroup cpu masks shrinking)
/// instead of staying frozen at construction time.
const SPIN_REEVAL_PERIOD: u64 = 256;

/// A hierarchical sense-reversing barrier whose combining tree mirrors
/// a machine tree's cluster structure.
///
/// Each processor rank arrives at the combining node of its parent
/// cluster; the last arriver of a cluster propagates the arrival to the
/// parent cluster, and the thread completing the root arrival runs the
/// leader section, advances the generation (the sense word), and wakes
/// all parked waiters.
///
/// The generation counter plays the role of the classic sense flag:
/// waiters watch for it to move rather than for a boolean to flip,
/// which makes the barrier trivially reusable across generations.
pub struct HierBarrier {
    nodes: Vec<TreeNode>,
    /// Per processor rank: the combining node it arrives at (`None`
    /// only for a single-processor machine, which has no clusters).
    start: Vec<Option<usize>>,
    /// The sense word. Even a relaxed reader can never confuse two
    /// generations: a release flip happens-after every arrival of its
    /// generation.
    generation: AtomicU64,
    /// Generation-poll iterations before yielding/parking
    /// ([`SPIN_LIMIT`] with a core per thread and no co-running
    /// threads, 0 when oversubscribed). Re-evaluated by the leader
    /// every [`SPIN_REEVAL_PERIOD`] generations against the live core
    /// count and thread census, never frozen at construction.
    spin: AtomicU32,
    /// Watchdog state: [`ABORT_LIVE`] → [`ABORT_CLAIMED`] (one timed-out
    /// waiter won the CAS and is running its `on_timeout`) →
    /// [`ABORT_DEAD`] (abort effects published; every wait returns
    /// `None` immediately).
    abort: AtomicU8,
    /// This barrier's own parties, registered in the process census
    /// for its lifetime so concurrently-running barriers see each
    /// other as oversubscription.
    _census: ThreadCensusGuard,
}

const ABORT_LIVE: u8 = 0;
const ABORT_CLAIMED: u8 = 1;
const ABORT_DEAD: u8 = 2;

impl HierBarrier {
    /// Barrier for the processor threads of `tree`, one per leaf, with
    /// a combining node per cluster.
    pub fn new(tree: &MachineTree) -> Self {
        let arena = tree.nodes().count();
        let mut map = vec![usize::MAX; arena];
        let mut nodes = Vec::new();
        for n in tree.nodes() {
            if !n.is_proc() {
                map[n.idx().index()] = nodes.len();
                nodes.push(TreeNode {
                    parent: None,
                    expected: n.num_children(),
                    arrive: ArriveLine {
                        count: AtomicUsize::new(0),
                    },
                    wait: WaitLine {
                        gate: Mutex::new(0),
                        cv: Condvar::new(),
                    },
                });
            }
        }
        for n in tree.nodes() {
            if !n.is_proc() {
                if let Some(par) = n.parent() {
                    nodes[map[n.idx().index()]].parent = Some(map[par.index()]);
                }
            }
        }
        let start: Vec<Option<usize>> = tree
            .leaves()
            .iter()
            .map(|&leaf| tree.node(leaf).parent().map(|par| map[par.index()]))
            .collect();
        let parties = start.len();
        // Register our parties first so the census (and any barrier
        // built concurrently) counts them, then size the spin budget
        // against cores minus everyone else's threads.
        let census = register_threads(parties);
        let cores = crate::sync::thread::available_parallelism().map_or(1, |n| n.get());
        let extra = census_threads().saturating_sub(parties);
        HierBarrier {
            nodes,
            start,
            generation: AtomicU64::new(0),
            spin: AtomicU32::new(spin_iters(cores, parties, extra)),
            abort: AtomicU8::new(ABORT_LIVE),
            _census: census,
        }
    }

    /// Number of participating threads (one per leaf processor).
    pub fn parties(&self) -> usize {
        self.start.len()
    }

    /// The current spin budget: generation-poll iterations a waiter
    /// runs before yielding and parking. Zero whenever the process's
    /// thread census exceeds the host's cores.
    pub fn spin_budget(&self) -> u32 {
        self.spin.load(Ordering::Relaxed)
    }

    /// Re-derive the spin budget from the live core count and thread
    /// census. Called by the root leader every [`SPIN_REEVAL_PERIOD`]
    /// generations.
    fn reevaluate_spin(&self) {
        let cores = crate::sync::thread::available_parallelism().map_or(1, |n| n.get());
        let parties = self.start.len();
        let extra = census_threads().saturating_sub(parties);
        self.spin
            .store(spin_iters(cores, parties, extra), Ordering::Relaxed);
    }

    /// Wait for every rank. The thread that completes the root arrival
    /// runs `leader` (while the others remain blocked), then everyone
    /// is released. Returns `Some(result)` to the leader, `None` to the
    /// rest.
    ///
    /// `rank` must be this thread's processor rank; each rank must
    /// arrive exactly once per generation.
    pub fn wait_leader<R>(&self, rank: usize, leader: impl FnOnce() -> R) -> Option<R> {
        self.wait_leader_watched(rank, None, || (), leader)
    }

    /// [`Self::wait_leader`] with a watchdog: a parked waiter still
    /// blocked `timeout` after arriving races a CAS for the abort claim;
    /// the winner runs `on_timeout` (exactly once per barrier), marks
    /// the barrier dead, and wakes every gate. Waits on a dead barrier
    /// return `None` immediately.
    pub fn wait_leader_watched<R>(
        &self,
        rank: usize,
        timeout: Option<Duration>,
        on_timeout: impl FnOnce(),
        leader: impl FnOnce() -> R,
    ) -> Option<R> {
        if self
            .abort
            .load(site_ord!("hier.abort.check", Ordering::Acquire))
            == ABORT_DEAD
        {
            return None;
        }
        // Pin the generation *before* arriving: the flip can only
        // happen after this thread's own arrival reaches the root.
        let gen = self
            .generation
            .load(site_ord!("hier.generation.pin", Ordering::Acquire));
        let mut node = match self.start[rank] {
            Some(n) => n,
            None => {
                // Single-processor machine: the lone thread is always
                // the leader.
                let result = leader();
                self.generation
                    .fetch_add(1, site_ord!("hier.generation.flip", Ordering::AcqRel));
                return Some(result);
            }
        };
        loop {
            let n = &self.nodes[node];
            // AcqRel chains every earlier arriver's writes (its
            // contribution slot, its subtree's counts) into this
            // thread's view before it proceeds upward.
            if n.arrive
                .count
                .fetch_add(1, site_ord!("hier.arrive.combine", Ordering::AcqRel))
                + 1
                == n.expected
            {
                // Last arriver of this cluster: reset for the next
                // generation (safe: nobody re-arrives here until after
                // the release flip, which happens-after this store) and
                // represent the cluster one level up.
                n.arrive
                    .count
                    .store(0, site_ord!("hier.arrive.reset", Ordering::Relaxed));
                match n.parent {
                    Some(parent) => node = parent,
                    None => {
                        let result = leader();
                        let done = self
                            .generation
                            .fetch_add(1, site_ord!("hier.generation.flip", Ordering::AcqRel));
                        if done.is_multiple_of(SPIN_REEVAL_PERIOD) {
                            self.reevaluate_spin();
                        }
                        self.release_all();
                        return Some(result);
                    }
                }
            } else {
                self.wait_for_flip(gen, node, timeout, on_timeout);
                return None;
            }
        }
    }

    /// Plain barrier wait with no leader work.
    pub fn wait(&self, rank: usize) {
        self.wait_leader(rank, || ());
    }

    /// Wait out the generation flip in three escalating phases:
    ///
    /// 1. **Spin** for the current spin budget (zero on an
    ///    oversubscribed host) — cheapest when every thread has a core.
    /// 2. **Yield** up to [`YIELD_LIMIT`] reschedules: on an
    ///    oversubscribed host this donates the core to the threads we
    ///    are waiting for, and the flip usually lands here with no
    ///    futex traffic in either direction.
    /// 3. **Park** behind the gate of the combining node our arrival
    ///    stopped at, counting ourselves in the gate's parked tally so
    ///    the leader broadcasts only to gates that hold sleepers.
    ///
    /// No lost wakeup is possible: the parked tally is incremented and
    /// the generation re-checked under the gate mutex, and the leader
    /// reads the tally under the same mutex after flipping the
    /// generation — so either we entered `cv.wait` before the leader
    /// read a nonzero tally (and its broadcast wakes us), or the
    /// leader's lock acquisition ordered after ours made the flip
    /// visible to our re-check and we never wait.
    fn wait_for_flip(
        &self,
        gen: u64,
        node: usize,
        timeout: Option<Duration>,
        on_timeout: impl FnOnce(),
    ) {
        for _ in 0..self.spin.load(Ordering::Relaxed) {
            if self
                .generation
                .load(site_ord!("hier.generation.poll", Ordering::Acquire))
                != gen
            {
                return;
            }
            crate::sync::hint::spin_loop();
        }
        for _ in 0..model_scaled(YIELD_LIMIT) {
            if self
                .generation
                .load(site_ord!("hier.generation.poll", Ordering::Acquire))
                != gen
                || self
                    .abort
                    .load(site_ord!("hier.abort.check", Ordering::Acquire))
                    == ABORT_DEAD
            {
                return;
            }
            crate::sync::thread::yield_now();
        }
        let n = &self.nodes[node];
        let mut deadline = timeout.map(|t| Instant::now() + t);
        let mut guard = lock_anyway(&n.wait.gate);
        *guard += 1;
        loop {
            if self
                .generation
                .load(site_ord!("hier.generation.poll", Ordering::Acquire))
                != gen
                || self
                    .abort
                    .load(site_ord!("hier.abort.check", Ordering::Acquire))
                    == ABORT_DEAD
            {
                *guard -= 1;
                return;
            }
            match deadline {
                None => {
                    guard = n
                        .wait
                        .cv
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner)
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        if self
                            .abort
                            .compare_exchange(
                                ABORT_LIVE,
                                ABORT_CLAIMED,
                                site_ord!("hier.abort.claim", Ordering::AcqRel),
                                Ordering::Acquire,
                            )
                            .is_ok()
                        {
                            // Claim won: publish the abort effects
                            // before any waiter can observe the dead
                            // barrier (they park until `release_all`).
                            *guard -= 1;
                            drop(guard);
                            on_timeout();
                            self.abort.store(
                                ABORT_DEAD,
                                site_ord!("hier.abort.publish", Ordering::Release),
                            );
                            self.release_all();
                            return;
                        }
                        // Lost the claim: another waiter is aborting.
                        // Park without a deadline until it finishes.
                        deadline = None;
                        continue;
                    }
                    guard = n
                        .wait
                        .cv
                        .wait_timeout(guard, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Release every parked waiter: at most one broadcast per combining
    /// node (a waiter's queue is its cluster's), and none at all for
    /// gates whose parked tally is zero — which is every gate when the
    /// waiters resolved the flip in their spin or yield phase, making
    /// the steady-state release entirely syscall-free.
    fn release_all(&self) {
        for n in &self.nodes {
            // Lock-then-read pairs with the waiter's locked increment
            // and re-check (see `wait_for_flip`).
            let parked = *lock_anyway(&n.wait.gate);
            if parked > 0 {
                n.wait.cv.notify_all();
            }
        }
    }
}

/// Which barrier the threaded engine synchronizes supersteps with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// Flat mutex+condvar barrier (the pre-hierarchical baseline).
    Central,
    /// Combining-tree barrier mirroring the machine's cluster
    /// structure.
    #[default]
    Hierarchical,
}

/// The engine-facing barrier: either implementation behind one call.
pub(crate) enum StepBarrier {
    Central(CentralBarrier),
    Hier(HierBarrier),
}

impl StepBarrier {
    pub(crate) fn new(kind: BarrierKind, tree: &MachineTree) -> Self {
        match kind {
            BarrierKind::Central => StepBarrier::Central(CentralBarrier::new(tree.num_procs())),
            BarrierKind::Hierarchical => StepBarrier::Hier(HierBarrier::new(tree)),
        }
    }

    pub(crate) fn wait_leader_watched<R>(
        &self,
        rank: usize,
        timeout: Option<Duration>,
        on_timeout: impl FnOnce(),
        leader: impl FnOnce() -> R,
    ) -> Option<R> {
        match self {
            StepBarrier::Central(b) => b.wait_leader_watched(timeout, on_timeout, leader),
            StepBarrier::Hier(b) => b.wait_leader_watched(rank, timeout, on_timeout, leader),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{NodeParams, TreeBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_is_always_leader() {
        let b = CentralBarrier::new(1);
        assert_eq!(b.wait_leader(|| 42), Some(42));
        assert_eq!(b.wait_leader(|| 7), Some(7));
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const N: usize = 8;
        const ROUNDS: usize = 50;
        let b = CentralBarrier::new(N);
        let leader_runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        b.wait_leader(|| {
                            leader_runs.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(leader_runs.load(Ordering::SeqCst), ROUNDS);
    }

    #[test]
    fn leader_section_is_exclusive() {
        // No thread may pass the barrier while the leader section runs:
        // the leader writes a value; every thread must observe it after
        // the wait.
        const N: usize = 6;
        const ROUNDS: usize = 40;
        let b = CentralBarrier::new(N);
        let value = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    for round in 1..=ROUNDS {
                        b.wait_leader(|| value.store(round, Ordering::SeqCst));
                        assert_eq!(value.load(Ordering::SeqCst), round);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_parties_rejected() {
        CentralBarrier::new(0);
    }

    /// An HBSP^2 machine: three clusters of 3, 2, and 4 processors.
    fn clustered() -> MachineTree {
        TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (2.0, 0.5), (1.5, 0.8)]),
                (10.0, vec![(2.0, 0.5), (3.0, 0.4)]),
                (10.0, vec![(1.2, 0.9), (2.5, 0.45), (2.0, 0.5), (4.0, 0.2)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn hier_mirrors_machine_tree() {
        let t = clustered();
        let b = HierBarrier::new(&t);
        assert_eq!(b.parties(), 9);
        // One combining node per cluster: the root plus three LANs.
        assert_eq!(b.nodes.len(), 4);
        let root = b
            .nodes
            .iter()
            .position(|n| n.parent.is_none())
            .expect("one root");
        assert_eq!(b.nodes[root].expected, 3, "root waits for its clusters");
    }

    #[test]
    fn hier_exactly_one_leader_per_generation() {
        const ROUNDS: usize = 200;
        let t = clustered();
        let b = HierBarrier::new(&t);
        let p = b.parties();
        let leader_runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for rank in 0..p {
                let b = &b;
                let leader_runs = &leader_runs;
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        b.wait_leader(rank, || {
                            leader_runs.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(leader_runs.load(Ordering::SeqCst), ROUNDS);
    }

    #[test]
    fn hier_leader_section_is_exclusive() {
        const ROUNDS: usize = 100;
        let t = clustered();
        let b = HierBarrier::new(&t);
        let p = b.parties();
        let value = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for rank in 0..p {
                let b = &b;
                let value = &value;
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        b.wait_leader(rank, || value.store(round, Ordering::SeqCst));
                        assert_eq!(value.load(Ordering::SeqCst), round);
                    }
                });
            }
        });
    }

    #[test]
    fn hier_handles_unbalanced_trees() {
        // Figure-2-like machine: a leaf sitting directly under the root
        // next to two clusters arrives straight at the root node.
        let mut builder = TreeBuilder::new(1.0);
        let root = builder.cluster("campus", NodeParams::cluster(500.0));
        let smp = builder.child_cluster(root, "smp", NodeParams::cluster(50.0));
        builder.child_proc(smp, "smp0", NodeParams::proc(1.0, 1.0));
        builder.child_proc(smp, "smp1", NodeParams::proc(2.0, 0.5));
        builder.child_proc(root, "sgi", NodeParams::proc(1.5, 0.9));
        let t = builder.build().unwrap();
        let b = HierBarrier::new(&t);
        assert_eq!(b.parties(), 3);
        let leader_runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for rank in 0..3 {
                let b = &b;
                let leader_runs = &leader_runs;
                s.spawn(move || {
                    for _ in 0..150 {
                        b.wait_leader(rank, || {
                            leader_runs.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(leader_runs.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn central_watchdog_fires_once_and_kills_the_barrier() {
        // 3 parties, only 2 arrive: both time out, exactly one claims
        // the abort, both return None, and later arrivals fail fast.
        let b = CentralBarrier::new(3);
        let aborts = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let r = b.wait_leader_watched(
                        Some(std::time::Duration::from_millis(20)),
                        || {
                            aborts.fetch_add(1, Ordering::SeqCst);
                        },
                        || 1,
                    );
                    assert_eq!(r, None);
                });
            }
        });
        assert_eq!(aborts.load(Ordering::SeqCst), 1);
        // The straggler finally shows up: dead barrier, immediate None.
        assert_eq!(b.wait_leader_watched(None, || (), || 1), None);
        assert_eq!(b.wait_leader(|| 1), None);
    }

    #[test]
    fn hier_watchdog_fires_once_and_kills_the_barrier() {
        let t = clustered();
        let b = HierBarrier::new(&t);
        let p = b.parties();
        let aborts = AtomicUsize::new(0);
        // Everyone but rank 0 arrives; every waiter carries a deadline.
        std::thread::scope(|s| {
            for rank in 1..p {
                let b = &b;
                let aborts = &aborts;
                s.spawn(move || {
                    let r = b.wait_leader_watched(
                        rank,
                        Some(std::time::Duration::from_millis(20)),
                        || {
                            aborts.fetch_add(1, Ordering::SeqCst);
                        },
                        || 1,
                    );
                    assert_eq!(r, None);
                });
            }
        });
        assert_eq!(aborts.load(Ordering::SeqCst), 1);
        assert_eq!(b.wait_leader(0, || 1), None, "dead barrier fails fast");
    }

    #[test]
    fn watchdog_does_not_fire_when_everyone_arrives() {
        let t = clustered();
        let b = HierBarrier::new(&t);
        let p = b.parties();
        let aborts = AtomicUsize::new(0);
        let leads = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for rank in 0..p {
                let (b, aborts, leads) = (&b, &aborts, &leads);
                s.spawn(move || {
                    for _ in 0..50 {
                        b.wait_leader_watched(
                            rank,
                            Some(std::time::Duration::from_secs(60)),
                            || {
                                aborts.fetch_add(1, Ordering::SeqCst);
                            },
                            || {
                                leads.fetch_add(1, Ordering::SeqCst);
                            },
                        );
                    }
                });
            }
        });
        assert_eq!(aborts.load(Ordering::SeqCst), 0);
        assert_eq!(leads.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn spin_policy_requires_a_core_per_thread() {
        // Spinning is only profitable when parties + co-running threads
        // all fit on cores; any deficit means a spinning waiter steals
        // cycles from the thread it waits for.
        assert_eq!(spin_iters(16, 16, 0), SPIN_LIMIT);
        assert_eq!(spin_iters(16, 8, 8), SPIN_LIMIT);
        assert_eq!(spin_iters(16, 16, 1), 0, "one extra thread disables spin");
        assert_eq!(spin_iters(8, 16, 0), 0, "oversubscribed parties");
        assert_eq!(spin_iters(1, 2, 0), 0);
        assert_eq!(spin_iters(1, 1, 0), SPIN_LIMIT);
    }

    /// Regression: the spin decision used to be frozen at construction
    /// from `available_parallelism() >= parties` alone, ignoring every
    /// other runtime thread in the process. An oversubscribed barrier
    /// must never spin — neither at construction nor after the leader's
    /// periodic re-evaluation.
    #[test]
    fn oversubscribed_barrier_never_spins() {
        // Register far more extra threads than any host has cores.
        let _guards: Vec<ThreadCensusGuard> = (0..1024).map(|_| register_extra_thread()).collect();
        let t = clustered();
        let b = HierBarrier::new(&t);
        assert_eq!(
            b.spin_budget(),
            0,
            "census of co-running threads must veto spinning at construction"
        );

        // Drift case: a barrier that decided to spin must drop to 0
        // once the leader re-evaluates against the live census. Force a
        // stale nonzero budget, run one generation (generation 0
        // triggers re-evaluation), and observe the corrected budget.
        b.spin.store(SPIN_LIMIT, Ordering::Relaxed);
        let p = b.parties();
        std::thread::scope(|s| {
            for rank in 0..p {
                let b = &b;
                s.spawn(move || {
                    b.wait_leader(rank, || ());
                });
            }
        });
        assert_eq!(
            b.spin_budget(),
            0,
            "leader re-evaluation must track oversubscription drift"
        );
    }

    #[test]
    fn tree_node_isolates_hot_lines() {
        // The const asserts enforce this at compile time; restate the
        // intent where a failing layout change will name the test.
        assert_eq!(std::mem::size_of::<TreeNode>(), 384);
        assert_eq!(std::mem::offset_of!(TreeNode, arrive), 128);
        assert_eq!(std::mem::offset_of!(TreeNode, wait), 256);
    }

    #[test]
    fn hier_single_proc_is_always_leader() {
        let mut builder = TreeBuilder::new(1.0);
        builder.proc_root("solo", NodeParams::fastest());
        let t = builder.build().unwrap();
        let b = HierBarrier::new(&t);
        assert_eq!(b.wait_leader(0, || 42), Some(42));
        assert_eq!(b.wait_leader(0, || 7), Some(7));
    }
}
