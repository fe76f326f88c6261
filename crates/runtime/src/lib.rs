//! # hbsp-runtime — a threaded SPMD superstep runtime
//!
//! Executes the same [`hbsp_core::SpmdProgram`]s as `hbsp-sim`, but on
//! real OS threads: one thread per leaf processor, double-buffered
//! outboxes providing the BSP delivery guarantee (messages sent in
//! superstep `s` are pulled by their receivers in `s + 1`), and a
//! hierarchical sense-reversing barrier whose combining tree mirrors
//! the machine's cluster structure; the thread completing the root
//! arrival performs the per-superstep coordination (SPMD-discipline
//! checks, message routing by metadata, virtual-time accounting). A
//! flat central barrier is kept as the measurable baseline
//! ([`BarrierKind::Central`]), selectable via
//! [`ThreadedRuntime::barrier`]. See `docs/runtime.md` for the
//! architecture.
//!
//! The runtime keeps a *virtual clock* using exactly the same timing
//! algebra as the simulator ([`hbsp_sim::timing`]), so for any program
//!
//! ```text
//! ThreadedRuntime::run(p).virtual_outcome  ==  Simulator::run(p)
//! ```
//!
//! bit for bit — the cross-engine agreement tests in `/tests` rely on
//! this. On top of that it reports real wall-clock duration, which is
//! what the `engine_overhead` bench and the repository benchmark
//! (`benchmark/`) measure.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod barrier;
pub mod engine;
pub mod mailbox;
mod pool;
pub mod sync;

pub use barrier::{BarrierKind, CentralBarrier, HierBarrier};
pub use engine::{RunOutcome, ThreadedRuntime};
pub use mailbox::Mailbox;
/// The worker pool, reachable for `hbsp-race`'s exploration scenarios
/// only.
#[cfg(feature = "model")]
#[doc(hidden)]
pub use pool::WorkerPool;
