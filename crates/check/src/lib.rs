//! `hbsp-check` — static verification for HBSP^k programs and machines.
//!
//! Four check layers, none of which executes anything:
//!
//! 1. **Schedule verification** ([`verify_schedule`]): a communication
//!    schedule (the IR itself, [`CommSchedule`](hbsp_core::CommSchedule))
//!    is checked against its target
//!    [`MachineTree`](hbsp_core::MachineTree) for rank bounds,
//!    word conservation, barrier-scope containment, self-sends and
//!    duplicate transfers, drain-step placement, and valid work charges.
//! 2. **Dataflow analysis** ([`verify_dataflow`]): a matched-send/receive
//!    pass under BSP delivery semantics (data sent in superstep `i` is
//!    usable from superstep `i + 1`) that proves every transfer sends
//!    data its source holds by [`cover`], the interpreter's own rule —
//!    the static analogue of "no unmatched receive, no deadlocked barrier";
//!    [`verify_hrelation`] checks that each step's h, recomputed from its
//!    transfers, is the h the cost model charges.
//! 3. **Machine linting** ([`lint_machine`]): the paper's Table-1
//!    parameter rules (fastest `r = 1`, `c` fractions partition each
//!    cluster, coordinator fastest in its subtree, positive `L` and `g`,
//!    declared `k` matches tree height) as span-tagged diagnostics.
//! 4. **Job-graph validation** ([`verify_dag`], [`verify_claims`],
//!    [`lint_carved`]): the multi-tenant scheduler's structural rules —
//!    `blocked_by` edges form a DAG, concurrent sub-tree claims are
//!    leaf-disjoint, and every carved sub-tree is itself a valid
//!    Table-1 machine.
//!
//! Every finding is a typed [`Violation`] carrying the step index,
//! offending transfer, and a fix hint in its `Display` rendering.
//! [`Violation::is_fatal`] separates hard errors (the engines would
//! panic, hang, or mis-deliver) from lint-grade advice (self-sends are
//! legal free local moves).
//!
//! This crate deliberately depends only on `hbsp-core`, where the
//! schedule IR lives (`hbsp_core::schedule`): the checks read the same
//! `CommSchedule` the collectives lower to, the interpreter runs and the
//! cost model prices. `hbsp_collectives::verify` runs them all on a
//! lowering and its staged input.

#![forbid(unsafe_code)]

mod dag;
mod machine;
mod schedule;
mod violation;

pub use dag::{lint_carved, verify_claims, verify_dag};
pub use machine::{lint_machine, lint_with_spans, Diagnostic};
pub use schedule::{
    cover, implied_hrelation, verify_dataflow, verify_hrelation, verify_schedule, ProcHoldings,
    ScheduleView,
};
pub use violation::Violation;
