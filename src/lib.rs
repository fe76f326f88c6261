//! # hbsp — Exploiting Hierarchy in Heterogeneous Environments
//!
//! A production-quality Rust implementation of the **HBSP^k** model of
//! Williams & Parsons (IPPS 2001): the k-Heterogeneous Bulk Synchronous
//! Parallel model for hierarchical, heterogeneous cluster environments,
//! together with everything needed to reproduce the paper:
//!
//! * [`hbsp_core`] (`hbsp::core`) — the machine model (trees, `M_{i,j}` addressing,
//!   `g`/`r`/`L`/`c` parameters, heterogeneous h-relations, the
//!   `T_i = w + g·h + L` cost model, workload partitioning, a topology DSL);
//! * [`hbsp_sim`] (`hbsp::sim`) — a deterministic discrete-event message-passing
//!   simulator standing in for the paper's PVM testbed;
//! * [`hbsp_runtime`] (`hbsp::runtime`) — a threaded SPMD superstep runtime with
//!   hierarchical barriers;
//! * [`hbsp_obs`] (`hbsp::obs`) — unified telemetry for both engines: the
//!   `Probe` trait, span/metric schemas, Chrome-trace/JSONL exporters,
//!   cost-model drift reports, and parameter back-calibration;
//! * [`hbsplib`] (`hbsp::lib`) — HBSPlib, a BSPlib-style programming API that runs
//!   the same program on either engine;
//! * [`hbsp_collectives`] (`hbsp::collectives`) — the paper's gather and one-/two-
//!   phase broadcast plus the extended collective suite (scatter,
//!   allgather, alltoall, reduce, allreduce, scan) and BSP baselines;
//! * [`bytemark`] — a BYTEmark-style kernel suite for ranking machines;
//! * [`hbsp_bench`] (`hbsp::bench`) — the experiment harness regenerating every
//!   figure and analysis of the paper;
//! * [`hbsp_apps`] (`hbsp::apps`) — complete heterogeneous applications (sample
//!   sort, matrix–vector multiply, 1-D Jacobi stencil) built on the
//!   collectives;
//! * [`hbsp_sched`] (`hbsp::sched`) — a multi-tenant job scheduler: a DAG of
//!   collectives on a shared machine tree, with carved sub-tree placement
//!   and batched shared-barrier admission.
//!
//! ## Quickstart
//!
//! ```
//! use hbsp::prelude::*;
//!
//! // Describe a heterogeneous cluster (or parse one from the DSL).
//! let machine = TreeBuilder::flat(
//!     1.0,          // g: time per word at fastest-machine speed
//!     200.0,        // L: barrier cost
//!     &[(1.0, 1.0), (2.0, 0.55), (3.0, 0.35)], // (r, speed) per node
//! ).unwrap();
//!
//! // Run the paper's HBSP^1 gather on the simulator; `Executor::threads`
//! // runs the same call on one OS thread per processor.
//! let exec = Executor::simulator(std::sync::Arc::new(machine));
//! let items: Vec<u32> = (0..3000).collect();
//! let out = hbsp_collectives::gather::run(&exec, &items, GatherPlan::fast_root()).unwrap();
//! assert_eq!(out.result, items);
//! // Either engine reports model time; the cost model predicts it.
//! assert!(out.time > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use bytemark;
pub use hbsp_apps as apps;
pub use hbsp_bench as bench;
pub use hbsp_check as check;
pub use hbsp_collectives as collectives;
pub use hbsp_core as core;
pub use hbsp_obs as obs;
pub use hbsp_runtime as runtime;
pub use hbsp_sched as sched;
pub use hbsp_sim as sim;
pub use hbsplib as lib;

/// Convenient glob-import surface: the types most programs need.
pub mod prelude {
    pub use bytemark::{MachineProfile, Suite};
    pub use hbsp_collectives::broadcast::BroadcastPlan;
    pub use hbsp_collectives::gather::GatherPlan;
    pub use hbsp_core::{
        apportion, hrelation, CostModel, CostReport, HRelation, Level, MachineId, MachineTree,
        ModelError, NodeIdx, NodeParams, Partition, ProcId, SuperstepCost, TreeBuilder,
    };
    pub use hbsp_obs::{Probe, Recorder};
    pub use hbsp_sched::{Job, JobId, RunOptions, SchedReport, Scheduler};
    pub use hbsp_sim::{FaultPlan, SimError};
    pub use hbsplib::{
        Executor, Message, ProcEnv, Program, RecoveryPolicy, SpmdContext, StepOutcome, SyncScope,
    };
}
