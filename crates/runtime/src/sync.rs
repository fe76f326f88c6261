//! The runtime's synchronization facade.
//!
//! Every atomic, mutex, condvar, `UnsafeCell`, `Instant` and thread
//! operation the runtime performs goes through this module
//! — `hbsp_lint`'s facade-bypass check enforces that nothing else in
//! the crate names `std::sync::atomic`, `std::thread` or a raw
//! `UnsafeCell`. In a normal build the facade is pure re-exports of
//! `std`, so it costs
//! nothing (the `alloc_audit` suite asserts this). With the `model`
//! feature it routes through the vendored `weave` model checker
//! instead: outside an exploration weave's primitives forward to `std`
//! after one thread-local check, and inside one every operation
//! becomes a scheduler decision point with vector-clock
//! happens-before tracking — which is how `hbsp-race` exhaustively
//! explores the barrier, engine, outbox and pool protocols.
//!
//! Threads the runtime keeps across calls (the worker pool) are
//! `thread::Builder::spawn` / `JoinHandle::join` plus `park` and
//! `Thread::unpark`; `cell_read` is the one addition to `UnsafeCell`,
//! for contents several threads read at once.
//!
//! Two macros make the runtime's memory-ordering discipline checkable:
//!
//! * `site_ord!` labels a *tunable* ordering site. Normally it
//!   expands to the ordering literal; under the model it consults
//!   `weave::mutation` so `hbsp-race`'s mutation tests can weaken
//!   one site at a time and assert the checker names the resulting
//!   race. The labels are the keys of `docs/ordering_audit.md`.
//! * `hb_assert!` is the checkable form of a SAFETY comment on an
//!   `UnsafeCell`: under the model it verifies that every recorded
//!   access to the cell happens-before the current point (i.e. the
//!   caller really is the unique holder); normally it vanishes.

#[cfg(not(feature = "model"))]
mod imp {
    /// `std::sync::atomic` subset the runtime uses.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
    }

    pub use std::cell::UnsafeCell;
    pub use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use std::time::Instant;

    /// `std::thread` subset the runtime uses.
    pub mod thread {
        pub use std::thread::{current, park, sleep, yield_now, Builder, JoinHandle, Thread};
    }

    /// Pointer for a *shared read* of a cell's contents: several
    /// threads may hold one at once, provided every write
    /// happens-before it (the model records a read access, where
    /// `UnsafeCell::get` records a write).
    pub fn cell_read<T>(cell: &UnsafeCell<T>) -> *const T {
        cell.get()
    }

    /// Always false without the `model` feature: no exploration can
    /// be running.
    pub fn is_modeling() -> bool {
        false
    }
}

#[cfg(feature = "model")]
mod imp {
    /// Model-aware atomics ([`weave::atomic`]); `Ordering` is always
    /// `std`'s (weave takes it by value).
    pub mod atomic {
        pub use std::sync::atomic::Ordering;
        pub use weave::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};
    }

    pub use weave::is_modeling;
    pub use weave::thread;
    pub use weave::time::Instant;
    pub use weave::{Condvar, Mutex, MutexGuard, UnsafeCell, WaitTimeoutResult};

    /// Pointer for a *shared read* of a cell's contents
    /// ([`weave::UnsafeCell::get_read`]: races only with an unordered
    /// write).
    #[track_caller]
    pub fn cell_read<T>(cell: &UnsafeCell<T>) -> *const T {
        cell.get_read()
    }
}

pub use imp::*;

/// A labeled, tunable memory-ordering site: `site_ord!("label", Ordering::X)`.
///
/// Normally expands to the ordering literal (zero cost). Under the
/// `model` feature it resolves through [`weave::mutation`], letting
/// `hbsp-race`'s mutation suite override one labeled site at a time.
/// Every label must have a row in `docs/ordering_audit.md`.
#[cfg(not(feature = "model"))]
macro_rules! site_ord {
    ($label:literal, $ord:expr) => {
        $ord
    };
}

/// A labeled, tunable memory-ordering site (model build: resolves
/// through [`weave::mutation`] so tests can weaken it by label).
#[cfg(feature = "model")]
macro_rules! site_ord {
    ($label:literal, $ord:expr) => {
        ::weave::mutation::resolve($label, $ord)
    };
}

pub(crate) use site_ord;

/// Checkable SAFETY comment on an [`UnsafeCell`]:
/// `hb_assert!(cell, "claim")` asserts (under the model) that every
/// recorded access to the cell happens-before the current point — the
/// vector-clock form of "the caller is the unique holder". Expands to
/// nothing in a normal build.
#[cfg(not(feature = "model"))]
macro_rules! hb_assert {
    ($cell:expr, $claim:expr) => {{
        let _ = (&$cell, $claim);
    }};
}

/// Checkable SAFETY comment on an [`UnsafeCell`] (model build:
/// verifies the happens-before claim via the cell's recorded accesses).
#[cfg(feature = "model")]
macro_rules! hb_assert {
    ($cell:expr, $claim:expr) => {
        $cell.hb_assert($claim)
    };
}

pub(crate) use hb_assert;

#[cfg(test)]
mod tests {
    #[test]
    fn site_ord_yields_the_default_ordering() {
        use super::atomic::Ordering;
        // Without an exploration (and in normal builds statically),
        // the label resolves to the default.
        assert_eq!(
            site_ord!("sync.test.site", Ordering::AcqRel),
            Ordering::AcqRel
        );
    }

    #[test]
    fn hb_assert_is_free_outside_a_model() {
        let cell = super::UnsafeCell::new(7u32);
        hb_assert!(cell, "exclusive by construction");
        // SAFETY: `cell` is a local; no other reference exists.
        assert_eq!(unsafe { *cell.get() }, 7);
    }
}
