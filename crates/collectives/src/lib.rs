//! # hbsp-collectives — collective communication for HBSP^k machines
//!
//! The paper's Section 4 designs two collectives under the HBSP^k model —
//! **gather** and **one-to-all broadcast** — and defers a larger suite to
//! the companion dissertation \[20\]. This crate implements all of them as
//! lowerings to one schedule IR, run by one compiled program on either
//! engine and priced by one formula mirroring the paper's:
//!
//! | module | operation | paper |
//! |---|---|---|
//! | [`gather`] | flat (HBSP^1) and hierarchical (HBSP^k) gather | §4.2, §4.3 |
//! | [`broadcast`] | one-/two-phase flat broadcast, hierarchical broadcast | §4.4 |
//! | [`scatter`] | root distributes `c_j·n` to each processor | \[20\] |
//! | [`allgather`] | total data exchange of per-processor pieces | \[20\] |
//! | [`alltoall`] | personalized all-to-all | \[20\] |
//! | [`reduce`] | flat and hierarchical reduction (+ allreduce) | \[20\] |
//! | [`scan`] | prefix reduction across ranks | \[20\] |
//! | [`schedule`] | the communication-schedule IR every collective lowers to | §4 |
//! | [`mod@predict`] | cost predictions derived from communication schedules | §4 |
//! | [`tune`] | pick the cheapest strategy for a machine by predicted cost | §4.4 |
//!
//! Every collective is a pure *lowering* `plan → CommSchedule`
//! ([`schedule::CommSchedule`]): the same artifact is compiled and run
//! by the generic [`schedule::ScheduleProgram`] on either engine,
//! priced by [`predict::predict`], and compared by [`tune`] — so the
//! implementation and its cost model cannot drift apart. Each kind's
//! module has one runner that does the whole round trip on an
//! [`hbsplib::Executor`] — lower, [`schedule::stage`] the input,
//! [`schedule::execute`], read the result — and names no engine:
//!
//! ```
//! use hbsp_collectives::gather::{self, GatherPlan};
//! use hbsp_core::TreeBuilder;
//! use hbsplib::Executor;
//! use std::sync::Arc;
//!
//! let tree = Arc::new(TreeBuilder::flat(1.0, 100.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
//! let items: Vec<u32> = (0..1000).collect();
//! // `Executor::threads(tree)` runs the same call on OS threads.
//! let run = gather::run(&Executor::simulator(tree), &items, GatherPlan::fast_root()).unwrap();
//! assert_eq!(run.result, items);
//! ```
//!
//! The
//! program is the crate's only [`hbsp_core::SpmdProgram`]; the root
//! package's tests pin it to sequential semantics
//! (`collectives_correctness.rs`), to the paper's closed forms, and to
//! simulated times and message counts frozen from the hand-written
//! programs it replaced (`schedule_equivalence.rs`).
//!
//! The paper's two design rules run through every algorithm:
//!
//! 1. **faster machines do more**: operation roots and cluster
//!    coordinators are the fastest processors (selectable via
//!    [`plan::RootPolicy`] so experiments can compare against `P_s`);
//! 2. **faster machines hold more**: workloads are distributed by the
//!    `c_j` fractions ([`plan::WorkloadPolicy`]).
//!
//! BSP baselines (what a homogeneity-assuming program would do) are the
//! same programs under `RootPolicy::Rank(0)` + `WorkloadPolicy::Equal`.
//!
//! Implementation note from §5.2, load-bearing for the paper's `p = 2`
//! anomaly: *"a processor does not send data to itself"* — every
//! algorithm here skips self-sends.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod allgather;
pub mod alltoall;
pub mod broadcast;
pub mod data;
pub mod drift;
pub mod error;
pub mod gather;
pub mod plan;
pub mod predict;
pub mod reduce;
pub mod scan;
pub mod scatter;
pub mod schedule;
pub mod tune;
pub mod verify;

pub use adaptive::RepeatedCollective;
pub use data::{decode_bundle, encode_bundle, reassemble, shares_for, DecodeError, Piece};
pub use error::CollectiveError;
pub use plan::{PhasePolicy, RankOutOfRange, RootPolicy, Strategy, WorkloadPolicy};
pub use predict::predict;
pub use schedule::{CommSchedule, Role, ScheduleProgram, ScheduleStep, Transfer, UnitId};
pub use tune::{
    best_broadcast, best_plan, best_strategy, rank_broadcast, rank_plans, retune, Candidate,
    CollectiveKind, PlanChoice, Retuned, TuneError,
};
pub use verify::Violation;
