//! # hbsp-sim — deterministic discrete-event simulation of HBSP^k machines
//!
//! The paper's experiments ran HBSPlib programs over PVM on a physical
//! heterogeneous cluster of ten SUN/SGI workstations. This crate is that
//! testbed's stand-in: a deterministic discrete-event simulator that
//! executes any [`hbsp_core::SpmdProgram`] over any
//! [`hbsp_core::MachineTree`] and reports *model time* with a
//! microcost structure mirroring a PVM-style message-passing system:
//!
//! * local computation at `units / speed` per processor;
//! * sender-side pack+inject cost `κ_send · r_src · g` per word, serial
//!   in posting order (a processor has one NIC);
//! * per-level link latency for the path through the hierarchy (the
//!   level of the sender/receiver's lowest common ancestor);
//! * optional per-level bandwidth penalty (the paper's future-work
//!   extension of `r` to destination-dependent cost);
//! * receiver-side unpack cost `κ_recv · r_dst · g` per word, processed
//!   in arrival order after the receiver's own compute+send work;
//! * hierarchical barriers: a superstep ending in a level-`i` sync
//!   releases each level-`i` cluster at `max(member finish) + L_{i,j}`.
//!
//! `κ_recv < κ_send` by default: receiving is a single unpack pass while
//! sending is pack *and* inject — the asymmetry PVM exhibits and the
//! reason the paper's Figure 3(a) finds a *slow* root preferable at
//! `p = 2` (see `hbsp-bench`'s E1).
//!
//! Everything is deterministic: same program + machine + config ⇒ the
//! same event order, times, and statistics, bit for bit.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod faults;
pub mod stats;
pub mod step;
pub mod timing;
pub mod trace;

pub use config::NetConfig;
pub use engine::Simulator;
pub use error::SimError;
pub use event::TimeQueue;
pub use faults::{Fault, FaultPlan, SplitMix64};
pub use stats::{LevelTraffic, SimOutcome, StepStats, TrafficByLevel};
pub use step::{Settlement, StepAnalysis, StepEnv};
pub use trace::{ascii_gantt, ProcTimeline, Span, SpanKind, TraceSummary};
