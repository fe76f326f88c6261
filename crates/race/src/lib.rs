//! `hbsp-race` — model checking + happens-before race detection for
//! the runtime's unsafe concurrency core.
//!
//! This crate builds `hbsp-runtime` with its `model` feature, which
//! routes the runtime's sync facade (`hbsp_runtime::sync`) through the
//! vendored [`weave`] model checker. The [`scenarios`] module packages
//! the runtime's risky protocols — hierarchical barrier arrival /
//! combine / release with sense reversal, the yield→park escalation,
//! the watchdog abort racing a normal release, the engine's outbox
//! hand-off (receivers pulling from double-buffered outboxes), mailbox
//! batch circulation, the worker pool's dispatch of borrowed jobs, and
//! a whole-engine superstep exchange — as closures
//! that [`weave::explore`] can run under exhaustive bounded-preemption
//! DFS or seeded random walks.
//!
//! The integration tests then drive them two ways:
//!
//! * `tests/exploration_suite.rs` asserts the **unmutated** runtime is
//!   clean (no data race, lost wakeup, deadlock, or runaway spin) —
//!   exhaustively at 2–3 threads for the barrier protocols.
//! * `tests/race_mutations.rs` weakens one labeled memory-ordering
//!   site at a time (the `site_ord!` labels catalogued in
//!   `docs/ordering_audit.md`) and asserts the checker reports a race
//!   *naming that site* — evidence each ordering is load-bearing and
//!   the checker would catch its regression.

pub mod scenarios;

/// A shared cell whose cross-thread discipline is *claimed*, not
/// compiler-checked — the scenario-side analogue of the runtime's
/// `ProcSlot`. Every access goes through [`weave::UnsafeCell`]: writes
/// register write accesses, reads register read accesses, and any
/// read/write or write/write pair without a happens-before edge is
/// reported as a data race naming both sites.
pub struct RacyCell(weave::UnsafeCell<u64>);

// SAFETY: scenarios mediate access through the barrier / mailbox
// protocol under test; the model checker verifies that claim.
unsafe impl Sync for RacyCell {}

impl RacyCell {
    /// A new cell holding `v`.
    pub fn new(v: u64) -> Self {
        RacyCell(weave::UnsafeCell::new(v))
    }

    /// Write `v`.
    ///
    /// # Safety
    /// The caller must hold the cell exclusively per the protocol the
    /// scenario exercises (the model checker validates the claim).
    #[track_caller]
    pub unsafe fn write(&self, v: u64) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { *self.0.get() = v }
    }

    /// Read the value.
    ///
    /// # Safety
    /// The caller must hold the cell per the scenario's protocol (no
    /// concurrent writer); the model checker validates the claim.
    #[track_caller]
    pub unsafe fn read(&self) -> u64 {
        // SAFETY: forwarded from the caller's contract.
        unsafe { *self.0.get_read() }
    }
}

impl Default for RacyCell {
    fn default() -> Self {
        RacyCell::new(0)
    }
}
