//! # hbsplib — the HBSP Programming Library
//!
//! The paper implements its collectives with *HBSPlib*, a library
//! "incorporating many of the functions (message passing,
//! synchronization, enquiry) contained in BSPlib" plus "primitives that
//! allow the programmer to take advantage of the heterogeneity of the
//! underlying system". This crate is that library. Message passing and
//! synchronization are the engines' [`SpmdContext`] (`send`/`send_with`,
//! `messages`, `charge`, a [`StepOutcome`] naming the next barrier);
//! around it sit:
//!
//! * [`codec`] — payload encoding for words (`u32`) and in-place readers
//!   of `u32`/`f64` payloads;
//! * [`TreeEnquiry`] — the hierarchical enquiry functions: cluster
//!   membership and coordinators at any level (the fastest and slowest
//!   processor are `MachineTree::fastest_proc`/`slowest_proc`, and the
//!   paper's `c_j` shares are `hbsp_core::Partition::balanced_for`);
//! * [`Executor`] — run the same [`Program`] on the discrete-event
//!   simulator (`hbsp-sim`) or on real threads (`hbsp-runtime`), with
//!   optional fault injection and graceful degradation
//!   ([`RecoveryPolicy`], `docs/faults.md`);
//! * [`adaptive`] — the closed loop that re-plans a run from observed
//!   parameters.
//!
//! ```
//! use hbsplib::{Executor, Program};
//! use hbsp_core::{ProcEnv, SpmdContext, StepOutcome, SyncScope, TreeBuilder};
//! use std::sync::Arc;
//!
//! /// Every processor reports its pid to the fastest processor.
//! struct Census;
//! impl Program for Census {
//!     type State = u64;
//!     fn init(&self, _env: &ProcEnv) -> u64 { 0 }
//!     fn step(&self, step: usize, env: &ProcEnv, count: &mut u64, ctx: &mut dyn SpmdContext)
//!         -> StepOutcome
//!     {
//!         match step {
//!             0 => {
//!                 let root = env.tree.fastest_proc();
//!                 if env.pid != root {
//!                     ctx.send_with(root, 0, 4, &mut |w| w.word(env.pid.0));
//!                 }
//!                 StepOutcome::Continue(SyncScope::global(&env.tree))
//!             }
//!             _ => {
//!                 *count = ctx.messages().len() as u64;
//!                 StepOutcome::Done
//!             }
//!         }
//!     }
//! }
//!
//! let tree = Arc::new(TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.5)]).unwrap());
//! let (outcome, states) = Executor::simulator(tree).run(&Census).unwrap();
//! assert_eq!(states[0], 2, "the fastest processor heard from both peers");
//! assert!(outcome.total_time() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod codec;
pub mod enquiry;
pub mod executor;

pub use adaptive::{
    Action, AdaptiveConfig, AdaptiveError, AdaptiveExecutor, AdaptiveOutcome, AdaptivePlan,
    ClosedLoop, Decision, Observed, Planned,
};
pub use enquiry::TreeEnquiry;
pub use executor::{
    predict_program, ExecOutcome, Executor, FaultReport, Recovered, RecoveryEvent, RecoveryPolicy,
};

// The program surface is defined in hbsp-core; re-export under the
// library's own names so user code only needs `hbsplib`.
pub use hbsp_core::spmd::{Message, ProcEnv, SpmdContext, StepOutcome, SyncScope};

/// An HBSP program (the library's name for [`hbsp_core::SpmdProgram`]).
pub use hbsp_core::spmd::SpmdProgram as Program;
