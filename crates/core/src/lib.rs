//! # hbsp-core — the HBSP^k machine model
//!
//! This crate implements the *k-Heterogeneous Bulk Synchronous Parallel*
//! (HBSP^k) model of Williams & Parsons (IPPS 2001): a hierarchical
//! generalization of Valiant's BSP model for heterogeneous cluster
//! environments.
//!
//! An HBSP^k machine is a tree of height `k`. Leaves are physical
//! processors; internal nodes are clusters whose *coordinator* is, by
//! convention, the fastest machine in the subtree. Each node `M_{i,j}`
//! (the `j`-th machine on level `i`) carries the model parameters of the
//! paper's Table 1:
//!
//! * `g` — time for the *fastest* machine to inject one word into the
//!   network (global, stored on the tree);
//! * `r_{i,j}` — relative communication slowness of `M_{i,j}` (fastest = 1);
//! * `L_{i,j}` — cost of barrier-synchronizing the subtree of `M_{i,j}`;
//! * `c_{i,j}` — fraction of the problem assigned to `M_{i,j}`;
//! * a relative compute speed (used to rank machines and derive `c`).
//!
//! The crate provides:
//!
//! * [`tree`] / [`builder`] — an arena-backed machine tree with the paper's
//!   level/index (`M_{i,j}`) addressing;
//! * [`topology`] — a small textual DSL for describing machines;
//! * [`mod@hrelation`] — heterogeneous h-relations `h = max r_{i,j} · h_{i,j}`;
//! * [`cost`] — the superstep cost model `T_i(λ) = w_i + g·h + L_{i,j}`;
//! * [`workload`] — balanced workload partitioning (the `c_{i,j}` feature);
//! * [`classes`] — the machine-class hierarchy HBSP^0 ⊂ HBSP^1 ⊂ … ⊂ HBSP^k;
//! * [`degrade`] — graceful degradation: rebuild a machine around dead
//!   processors, re-electing coordinators and renormalizing `r`/`c`;
//! * [`reparam`] — reparameterization: rebuild a machine with observed
//!   (back-calibrated) parameters, the belief tree of adaptive execution;
//! * [`carve`] — sub-tree carving: any node as a standalone,
//!   renormalized machine (the unit of spatial multi-tenancy).
//!
//! Execution engines live in the sibling crates `hbsp-sim` (discrete-event
//! simulator) and `hbsp-runtime` (threaded runtime); the programming API in
//! `hbsplib`; the paper's collective algorithms in `hbsp-collectives`.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod carve;
pub mod classes;
pub mod cost;
pub mod degrade;
pub mod error;
pub mod hrelation;
pub mod ids;
pub mod params;
pub mod reparam;
pub mod spmd;
pub mod topology;
pub mod tree;
pub mod workload;

pub use analysis::{heterogeneity, Heterogeneity, Penalty};
pub use builder::TreeBuilder;
pub use carve::Carved;
pub use classes::MachineClass;
pub use cost::{CostModel, CostReport, SuperstepCost};
pub use degrade::{DegradeError, Degraded};
pub use error::ModelError;
pub use hrelation::{hrelation, HRelation, Traffic};
pub use ids::{Level, MachineId, NodeIdx, ProcId};
pub use params::{NodeParams, DEFAULT_G};
pub use reparam::{ObservedParams, ReparamError};
pub use spmd::{
    Inbox, InboxIter, Message, MsgBatch, MsgView, PreflightError, ProcEnv, SpmdContext,
    SpmdProgram, StepOutcome, SyncScope,
};
pub use tree::{MachineTree, Node, NodeKind};
pub use workload::{apportion, Partition};
