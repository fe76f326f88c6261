//! # hbsplib — the HBSP Programming Library
//!
//! The paper implements its collectives with *HBSPlib*, a library
//! "incorporating many of the functions (message passing,
//! synchronization, enquiry) contained in BSPlib" plus "primitives that
//! allow the programmer to take advantage of the heterogeneity of the
//! underlying system". This crate is that library:
//!
//! * [`Ctx`] — an ergonomic, typed wrapper around the engine-agnostic
//!   superstep context: BSMP-style `send`/typed receives, work
//!   accounting, and enquiry;
//! * [`codec`] — payload encoding for words (`u32`), `u64`, `f64`;
//! * [`TreeEnquiry`] — the heterogeneity enquiry functions: speed
//!   ranking, fastest/slowest processor, cluster membership and
//!   coordinators at any level;
//! * [`hetero`] — balanced-workload helpers (`balanced_partition`,
//!   `my_share`) implementing the paper's `c_j` guidance;
//! * [`Executor`] — run the same [`Program`] on the discrete-event
//!   simulator (`hbsp-sim`) or on real threads (`hbsp-runtime`), with
//!   optional fault injection and graceful degradation
//!   ([`RecoveryPolicy`], `docs/faults.md`);
//! * [`closure`] — build programs from closures without hand-writing a
//!   state machine.
//!
//! ```
//! use hbsplib::{Ctx, Executor, Program};
//! use hbsp_core::{ProcEnv, SpmdContext, StepOutcome, SyncScope, TreeBuilder};
//! use std::sync::Arc;
//!
//! /// Every processor reports its pid to the fastest processor.
//! struct Census;
//! impl Program for Census {
//!     type State = u64;
//!     fn init(&self, _env: &ProcEnv) -> u64 { 0 }
//!     fn step(&self, step: usize, env: &ProcEnv, count: &mut u64, raw: &mut dyn SpmdContext)
//!         -> StepOutcome
//!     {
//!         let mut ctx = Ctx::new(env, raw);
//!         match step {
//!             0 => {
//!                 let root = ctx.fastest();
//!                 if ctx.pid() != root {
//!                     ctx.send_u32s(root, 0, &[ctx.pid().0]);
//!                 }
//!                 ctx.sync_global()
//!             }
//!             _ => {
//!                 *count = ctx.recv_all_u32s().len() as u64;
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
pub mod closure;
pub mod codec;
pub mod ctx;
pub mod drma;
pub mod enquiry;
pub mod executor;
pub mod hetero;

pub use adaptive::{
    Action, AdaptiveConfig, AdaptiveError, AdaptiveExecutor, AdaptiveOutcome, AdaptivePlan,
    ClosedLoop, Decision, Observed, Planned,
};
pub use closure::ClosureProgram;
pub use ctx::Ctx;
pub use drma::{GetReply, Region};
pub use enquiry::TreeEnquiry;
pub use executor::{
    predict_program, ExecOutcome, Executor, FaultReport, Recovered, RecoveryEvent, RecoveryPolicy,
};
pub use hetero::{balanced_partition, equal_partition, my_share};

// The program surface is defined in hbsp-core; re-export under the
// library's own names so user code only needs `hbsplib`.
pub use hbsp_core::spmd::{Message, ProcEnv, SpmdContext, StepOutcome, SyncScope};

/// An HBSP program (the library's name for [`hbsp_core::SpmdProgram`]).
pub use hbsp_core::spmd::SpmdProgram as Program;
