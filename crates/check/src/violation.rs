//! The typed findings every check layer reports.

use hbsp_core::{Level, MachineId, ProcId, UnitId};
use std::fmt;

/// One defect found by a static check.
///
/// Schedule violations carry the zero-based superstep index and the
/// offending transfer's endpoints; machine violations carry the paper's
/// `M_{i,j}` coordinates of the offending node. The `Display` rendering
/// states the defect and a fix hint.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    // ---- schedule structure ------------------------------------------
    /// A schedule with no steps at all.
    EmptySchedule,
    /// The final step has a barrier scope: the interpreter would run off
    /// the end of the schedule looking for a step to absorb into.
    MissingDrain,
    /// A scope-less (drain) step that is not the final step.
    MisplacedDrain {
        /// Step index of the stray drain.
        step: usize,
    },
    /// A transfer endpoint or work charge names a rank the machine does
    /// not have.
    RankOutOfBounds {
        /// Step index.
        step: usize,
        /// The out-of-range rank.
        pid: ProcId,
        /// Number of processors on the target machine.
        nprocs: usize,
    },
    /// A transfer whose source and destination are the same processor.
    /// Legal (a free local move) but almost always a lowering bug.
    SelfSend {
        /// Step index.
        step: usize,
        /// The processor sending to itself.
        pid: ProcId,
    },
    /// Two byte-identical transfers in one step: the payload would be
    /// delivered twice.
    DuplicateTransfer {
        /// Step index.
        step: usize,
        /// Sender.
        src: ProcId,
        /// Receiver.
        dst: ProcId,
    },
    /// A transfer's charged word count disagrees with the total length
    /// of the units it carries.
    WordMismatch {
        /// Step index.
        step: usize,
        /// Sender.
        src: ProcId,
        /// Receiver.
        dst: ProcId,
        /// Words the transfer charges.
        words: u64,
        /// Words actually carried by its units.
        payload: u64,
    },
    /// A transfer crosses a cluster boundary above the step's barrier
    /// scope: its delivery time would be undefined and the engines
    /// reject it at runtime.
    ScopeEscape {
        /// Step index.
        step: usize,
        /// Sender.
        src: ProcId,
        /// Receiver.
        dst: ProcId,
        /// Level of the lowest common ancestor the transfer crosses.
        crossing: Level,
        /// The step's declared barrier level.
        scope: Level,
    },
    /// A barrier scope above the tree height: every processor would form
    /// a zero-cost singleton barrier group, i.e. no synchronization at
    /// all.
    ScopeOutOfRange {
        /// Step index.
        step: usize,
        /// The declared barrier level.
        scope: Level,
        /// The machine's height `k`.
        height: Level,
    },
    /// A transfer posted in the final drain step: there is no following
    /// superstep to deliver it, so the payload is silently dropped.
    TransferInDrain {
        /// Step index.
        step: usize,
        /// Sender.
        src: ProcId,
        /// Receiver.
        dst: ProcId,
    },
    /// A negative or non-finite work charge.
    InvalidWork {
        /// Step index.
        step: usize,
        /// Charged processor.
        pid: ProcId,
        /// The bad charge.
        units: f64,
    },

    // ---- dataflow ----------------------------------------------------
    /// The initial holdings cover a different number of processors than
    /// the machine has.
    InitMismatch {
        /// Processors described by the initial holdings.
        got: usize,
        /// Processors on the machine.
        expected: usize,
    },
    /// A transfer sends data its source does not hold at that superstep
    /// (under BSP semantics data sent in step `i` is usable from step
    /// `i + 1`): at runtime the sender panics or the receiver blocks on
    /// data that never arrives.
    UnmatchedReceive {
        /// Step index.
        step: usize,
        /// Sender that lacks the data.
        src: ProcId,
        /// Receiver expecting it.
        dst: ProcId,
        /// The unit the sender lacks.
        unit: UnitId,
        /// The sender's units are whole all-to-all blocks
        /// (`CommSchedule::whole_blocks`), not ranges of one array.
        whole_block: bool,
    },
    /// A partial-combine transfer from a processor with no accumulator.
    PartialWithoutAccumulator {
        /// Step index.
        step: usize,
        /// The accumulator-less sender.
        pid: ProcId,
    },
    /// A partial-combine transfer in a schedule with no reduction
    /// operator to combine it.
    PartialWithoutOp {
        /// Step index.
        step: usize,
    },

    // ---- cost consistency --------------------------------------------
    /// The h-relation implied by a step's transfers disagrees with what
    /// the cost model charges for that step.
    HRelationMismatch {
        /// Step index.
        step: usize,
        /// h recomputed from the transfers.
        implied: f64,
        /// h charged by `predict()`.
        charged: f64,
    },

    // ---- machine files -----------------------------------------------
    /// `g` must be positive and finite.
    InvalidG {
        /// The bad value.
        g: f64,
    },
    /// Every `r` must be finite and at least 1.
    InvalidR {
        /// Offending machine.
        id: MachineId,
        /// The bad value.
        r: f64,
    },
    /// The fastest processor must be normalized to `r = 1` (Table 1).
    NonUnitFastestR {
        /// The actual minimum `r` over the leaves.
        min_r: f64,
    },
    /// A processor's absolute per-word cost `r·g` must be finite.
    WordCostOverflow {
        /// Offending processor.
        id: MachineId,
        /// Its `r`.
        r: f64,
        /// The machine's `g`.
        g: f64,
    },
    /// Every `L` must be finite and non-negative.
    InvalidL {
        /// Offending machine.
        id: MachineId,
        /// The bad value.
        l: f64,
    },
    /// Every compute speed must lie in `(0, 1]`.
    InvalidSpeed {
        /// Offending machine.
        id: MachineId,
        /// The bad value.
        speed: f64,
    },
    /// A problem fraction outside `[0, 1]`.
    InvalidFraction {
        /// Offending machine.
        id: MachineId,
        /// The bad value.
        c: f64,
    },
    /// Children fractions of a cluster do not partition the cluster's
    /// own fraction (Table 1: `c_{i,j}` sum to 1).
    FractionSum {
        /// The cluster whose children disagree.
        id: MachineId,
        /// Sum of the children's fractions.
        sum: f64,
        /// The cluster's own fraction (1 at the root).
        expected: f64,
    },
    /// A cluster with no children.
    EmptyCluster {
        /// Offending cluster.
        id: MachineId,
    },
    /// A machine with no processors at all.
    EmptyMachine,
    /// A cluster whose coordinator (fastest-speed representative) is not
    /// the communication-fastest machine in its subtree (§4: "fastest
    /// machine at the root" of every cluster).
    CoordinatorNotFastest {
        /// Offending cluster.
        id: MachineId,
        /// The representative's `r`.
        rep_r: f64,
        /// The minimum `r` in the subtree.
        min_r: f64,
    },
    /// The machine file declares `k = N` but the tree has a different
    /// height.
    HeightMismatch {
        /// Declared class.
        declared: Level,
        /// Actual tree height.
        actual: Level,
    },

    // ---- job graphs ---------------------------------------------------
    /// A job that lists itself in its own `blocked_by` set: it can never
    /// become ready.
    SelfDependency {
        /// The self-blocking job.
        job: usize,
    },
    /// A `blocked_by` edge naming a job id the graph does not contain.
    DependencyOutOfRange {
        /// The job carrying the edge.
        job: usize,
        /// The nonexistent prerequisite.
        dep: usize,
        /// Number of jobs in the graph (valid ids are `0..num_jobs`).
        num_jobs: usize,
    },
    /// The dependency graph contains a cycle: none of the listed jobs
    /// can ever become ready, so the scheduler would stall.
    DependencyCycle {
        /// One concrete cycle, in edge order (each job is blocked by the
        /// next; the last is blocked by the first).
        cycle: Vec<usize>,
    },
    /// Two concurrently running jobs claim sub-trees that share a leaf
    /// processor: the leaf would execute two supersteps at once.
    ClaimOverlap {
        /// First claimant.
        job_a: usize,
        /// Second claimant.
        job_b: usize,
        /// A leaf both claims contain.
        leaf: ProcId,
    },
    /// A claim names a node index outside the shared tree's arena.
    ClaimOutOfRange {
        /// The claiming job.
        job: usize,
        /// The raw arena index claimed.
        idx: usize,
        /// Number of nodes in the shared tree.
        num_nodes: usize,
    },
}

impl Violation {
    /// True if the engines would panic, hang, or mis-deliver on this
    /// defect; false for lint-grade findings ([`Violation::SelfSend`]
    /// and [`Violation::DuplicateTransfer`] are legal but suspicious —
    /// engines treat self-sends as free local moves and deliver
    /// duplicates faithfully).
    pub fn is_fatal(&self) -> bool {
        !matches!(
            self,
            Violation::SelfSend { .. } | Violation::DuplicateTransfer { .. }
        )
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Violation::*;
        match self {
            EmptySchedule => write!(f, "schedule has no steps (lower at least a drain step)"),
            MissingDrain => write!(
                f,
                "final step has a barrier scope; append a scope-less drain step so the last \
                 deliveries are absorbed"
            ),
            MisplacedDrain { step } => write!(
                f,
                "step {step} is a drain (no scope) but is not the final step; give it a barrier \
                 scope or move it to the end"
            ),
            RankOutOfBounds { step, pid, nprocs } => write!(
                f,
                "step {step} names {pid} but the machine has only {nprocs} processors (ranks \
                 0..{nprocs}); fix the lowering's rank arithmetic"
            ),
            SelfSend { step, pid } => write!(
                f,
                "step {step} has {pid} sending to itself; a self-send is a free local move — \
                 drop the transfer or keep the data in place"
            ),
            DuplicateTransfer { step, src, dst } => write!(
                f,
                "step {step} posts the same transfer {src} -> {dst} twice; the payload would be \
                 delivered twice"
            ),
            WordMismatch {
                step,
                src,
                dst,
                words,
                payload,
            } => write!(
                f,
                "step {step} transfer {src} -> {dst} charges {words} words but its units carry \
                 {payload}; make the charge equal the carried data"
            ),
            ScopeEscape {
                step,
                src,
                dst,
                crossing,
                scope,
            } => write!(
                f,
                "step {step} transfer {src} -> {dst} crosses a level-{crossing} boundary but the \
                 step only barriers at level {scope}; raise the step's scope to at least \
                 {crossing}"
            ),
            ScopeOutOfRange {
                step,
                scope,
                height,
            } => write!(
                f,
                "step {step} barriers at level {scope} but the machine's height is {height}; a \
                 scope above the height degenerates to no synchronization — use level {height} \
                 (global) at most"
            ),
            TransferInDrain { step, src, dst } => write!(
                f,
                "step {step} is the final drain but posts a transfer {src} -> {dst}; nothing \
                 after the drain can deliver it — move the transfer to an earlier step"
            ),
            InvalidWork { step, pid, units } => write!(
                f,
                "step {step} charges {units} work units on {pid}; work charges must be finite \
                 and non-negative"
            ),
            InitMismatch { got, expected } => write!(
                f,
                "initial holdings describe {got} processors but the machine has {expected}; \
                 provide one holdings entry per rank"
            ),
            UnmatchedReceive {
                step,
                src,
                dst,
                unit: UnitId { offset, len },
                whole_block,
            } => {
                write!(f, "step {step} transfer {src} -> {dst} sends ")?;
                match whole_block {
                    true => write!(f, "block {offset} ({len} words)")?,
                    false => write!(f, "items [{offset}, {})", *offset as u64 + *len as u64)?,
                }
                write!(
                    f,
                    " that {src} does not hold at that superstep; data sent in step i is usable \
                     from step i+1 — source it from a processor that holds it, or add an earlier \
                     hop"
                )
            }
            PartialWithoutAccumulator { step, pid } => write!(
                f,
                "step {step} has {pid} sending a partial result but {pid} has no accumulator; \
                 initialize an accumulator or receive a partial first"
            ),
            PartialWithoutOp { step } => write!(
                f,
                "step {step} sends a partial result but the schedule has no reduction operator; \
                 attach the operator the partials should be combined with"
            ),
            HRelationMismatch {
                step,
                implied,
                charged,
            } => write!(
                f,
                "step {step}: transfers imply an h-relation of {implied} but the cost model \
                 charges {charged}; the schedule's transfers and its cost accounting drifted \
                 apart"
            ),
            InvalidG { g } => write!(
                f,
                "g = {g}; the bandwidth indicator must be positive and finite"
            ),
            InvalidR { id, r } => write!(
                f,
                "{id} has r = {r}; communication slowness must be finite and at least 1"
            ),
            NonUnitFastestR { min_r } => write!(
                f,
                "fastest processor has r = {min_r}; Table 1 normalizes the fastest machine to \
                 r = 1 — rescale every r by 1/{min_r}"
            ),
            WordCostOverflow { id, r, g } => write!(
                f,
                "{id} has r = {r:e} and g = {g:e}; its per-word cost r·g is not finite, which the \
                 model cannot price — lower g or this processor's r"
            ),
            InvalidL { id, l } => write!(
                f,
                "{id} has L = {l}; barrier cost must be finite and non-negative"
            ),
            InvalidSpeed { id, speed } => write!(
                f,
                "{id} has speed = {speed}; compute speeds are relative to the fastest machine \
                 and must lie in (0, 1]"
            ),
            InvalidFraction { id, c } => {
                write!(f, "{id} has c = {c}; problem fractions must lie in [0, 1]")
            }
            FractionSum { id, sum, expected } => write!(
                f,
                "children of {id} have fractions summing to {sum}, expected {expected}; Table 1 \
                 requires the c_{{i,j}} of a cluster's members to partition the cluster's share"
            ),
            EmptyCluster { id } => write!(
                f,
                "{id} is a cluster with no members; remove it or give it children"
            ),
            EmptyMachine => write!(f, "machine has no processors"),
            CoordinatorNotFastest { id, rep_r, min_r } => write!(
                f,
                "coordinator of {id} has r = {rep_r} but its subtree contains a machine with \
                 r = {min_r}; §4 places the fastest machine at the root of every cluster — \
                 make the fastest member the coordinator"
            ),
            HeightMismatch { declared, actual } => write!(
                f,
                "file declares k = {declared} but the tree has height {actual}; fix the k \
                 header or the nesting depth"
            ),
            SelfDependency { job } => write!(
                f,
                "job {job} is blocked by itself and can never become ready; remove the \
                 self-edge"
            ),
            DependencyOutOfRange { job, dep, num_jobs } => write!(
                f,
                "job {job} is blocked by job {dep} but the graph has only {num_jobs} jobs \
                 (ids 0..{num_jobs}); fix the dependency id"
            ),
            DependencyCycle { cycle } => write!(
                f,
                "dependency cycle {cycle:?}: each job waits on the next and the last on the \
                 first, so none can ever become ready — break one edge"
            ),
            ClaimOverlap { job_a, job_b, leaf } => write!(
                f,
                "jobs {job_a} and {job_b} both claim sub-trees containing {leaf}; concurrent \
                 claims must be leaf-disjoint — serialize the jobs or claim sibling sub-trees"
            ),
            ClaimOutOfRange {
                job,
                idx,
                num_nodes,
            } => write!(
                f,
                "job {job} claims node n{idx} but the shared tree has only {num_nodes} nodes; \
                 claims must name nodes of the tree being carved"
            ),
        }
    }
}
