//! The communication-schedule IR every collective lowers to.
//!
//! A [`CommSchedule`] is the §4 structure made explicit: an ordered list
//! of supersteps, each carrying its barrier scope, the per-processor
//! compute charges `w_j`, and the transfers `(src, dst, words, role)` it
//! performs. Each collective is a pure *lowering* `plan → CommSchedule`;
//! from that one artifact the library derives
//!
//! - **execution**: the generic [`ScheduleProgram`] interpreter
//!   materializes real message bytes from the transfer roles and runs
//!   unchanged on both engines (see [`execute`]);
//! - **prediction**: [`crate::predict::predict`] folds the heterogeneous
//!   h-relation of each step (`h = max r_j·h_j`, `T_i = w_i + g·h +
//!   L_{i,j}`) via [`hbsp_core::CostModel::schedule_step`];
//! - **tuning**: [`crate::tune`] lowers every candidate strategy and
//!   picks the cheapest prediction.
//!
//! Because the interpreter charges work and emits messages *from the
//! schedule*, the executed program and the analytic cost cannot drift
//! apart — the historic risk of keeping hand-rolled SPMD loops next to
//! closed-form formulas.

use crate::data::{decode_bundle, encode_bundle, shares_for, DecodeError, Piece};
use crate::error::CollectiveError;
use crate::plan::WorkloadPolicy;
use crate::reduce::ReduceOp;
use crate::tune::{CollectiveKind, PlanChoice};
use hbsp_core::{
    HRelation, MachineTree, NodeIdx, Partition, ProcEnv, ProcId, SpmdContext, SpmdProgram,
    StepOutcome, SyncScope,
};
use hbsp_sim::{SimOutcome, Simulator};
use hbsplib::codec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identity of a contiguous data unit moved by a schedule: `len` items
/// starting at `offset` of the collective's global index space. Gather,
/// broadcast, scatter and allgather use array offsets; alltoall uses
/// block ids (`src·p + dst`). Two units with the same id carry the same
/// data, so receivers deduplicate by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId {
    /// First index of the unit within the global space.
    pub offset: u32,
    /// Number of items.
    pub len: u32,
}

impl UnitId {
    /// A unit spanning `offset..offset + len`.
    pub fn new(offset: u32, len: u32) -> Self {
        UnitId { offset, len }
    }
}

/// What a transfer's payload is, so the interpreter can materialize
/// the message bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// One unit on the wire as `[offset, items…]` ([`Piece::encode`]).
    Piece(UnitId),
    /// One or more units bundled as `[count, (offset, len, items…)…]`
    /// ([`encode_bundle`]) — one message per link, not per origin.
    Bundle(Vec<UnitId>),
    /// The sender's current partial-reduction accumulator, raw `u32`s;
    /// the receiver folds it in with the schedule's [`ReduceOp`].
    Partial,
}

/// One point-to-point transfer within a scheduled superstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Sending processor.
    pub src: ProcId,
    /// Destination processor.
    pub dst: ProcId,
    /// Model words moved (item count; wire headers are the simulator's
    /// business, the model's h-relation counts data).
    pub words: u64,
    /// Payload tag.
    pub role: Role,
}

/// One scheduled superstep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStep {
    /// Closing barrier scope; `None` marks the final drain step, where
    /// processors only read last-step messages and finish (no barrier).
    pub scope: Option<SyncScope>,
    /// Per-processor compute charges in fastest-speed work units.
    pub work: Vec<(ProcId, f64)>,
    /// The step's transfers, in posting order.
    pub transfers: Vec<Transfer>,
}

impl ScheduleStep {
    /// A step with no work and no transfers closing at `scope`.
    pub fn at(scope: SyncScope) -> Self {
        ScheduleStep {
            scope: Some(scope),
            work: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// The final drain step: absorb-only, no barrier.
    pub fn drain() -> Self {
        ScheduleStep {
            scope: None,
            work: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// True if the step costs nothing under the model.
    pub fn is_free(&self) -> bool {
        self.transfers.is_empty() && self.work.is_empty()
    }
}

/// A complete per-superstep communication schedule for one collective on
/// one machine. The last step must be the only one with `scope: None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSchedule {
    /// The supersteps in execution order.
    pub steps: Vec<ScheduleStep>,
}

impl CommSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of supersteps (including the drain step).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Append a step.
    pub fn push(&mut self, step: ScheduleStep) {
        self.steps.push(step);
    }

    /// Total model words crossing the network (all transfers, all steps).
    pub fn total_words(&self) -> u64 {
        self.steps
            .iter()
            .flat_map(|s| &s.transfers)
            .map(|t| t.words)
            .sum()
    }
}

/// The communication pattern of one scheduled step, keyed by the leaf
/// machine ids the cost model prices with. Self-sends are skipped
/// (§5.2: "a processor does not send data to itself").
pub fn step_hrelation(tree: &MachineTree, step: &ScheduleStep) -> HRelation {
    let mut hr = HRelation::new();
    for t in &step.transfers {
        if t.src == t.dst {
            continue;
        }
        hr.send(
            tree.leaf(t.src).machine_id(),
            tree.leaf(t.dst).machine_id(),
            t.words,
        );
    }
    hr
}

/// The representative (coordinator) processor of a subtree.
pub(crate) fn rep_of(tree: &MachineTree, node: NodeIdx) -> ProcId {
    tree.node(tree.node(node).representative())
        .proc_id()
        .expect("representative is a leaf")
}

/// The unit ids owned by `node`'s subtree under `partition`, in leaf
/// order, with their total word count.
pub(crate) fn subtree_units(
    tree: &MachineTree,
    node: NodeIdx,
    partition: &Partition,
) -> (Vec<UnitId>, u64) {
    let mut units = Vec::new();
    let mut words = 0u64;
    for &leaf in &tree.subtree_leaves(node) {
        let pid = tree.node(leaf).proc_id().expect("leaf");
        let share = partition.share(pid);
        units.push(UnitId::new(partition.offset(pid) as u32, share as u32));
        words += share;
    }
    (units, words)
}

/// The unit id of `pid`'s share under `partition`.
pub(crate) fn share_unit(partition: &Partition, pid: ProcId) -> UnitId {
    UnitId::new(partition.offset(pid) as u32, partition.share(pid) as u32)
}

/// Initial placement for collectives that start with every processor
/// holding its own share of `items`.
pub fn share_inits(tree: &MachineTree, items: &[u32], workload: WorkloadPolicy) -> Vec<ProcInit> {
    shares_for(tree, items, workload)
        .into_iter()
        .map(|p| ProcInit {
            units: vec![(UnitId::new(p.offset, p.len() as u32), p.items)],
            acc: None,
        })
        .collect()
}

/// Deterministic initial holdings for `plan` moving `n` words on
/// `tree`, generated from `seed`, plus the [`ReduceOp`] its schedule
/// needs (wrapping sum for reduce/scan). Same seed, same words — on
/// either engine and across re-lowerings — so job graphs and adaptive
/// runs replay bit-identically.
pub fn seeded_inits(
    tree: &MachineTree,
    plan: &PlanChoice,
    n: u64,
    seed: u64,
) -> (Vec<ProcInit>, Option<ReduceOp>) {
    let words = |seed: u64| -> Vec<u32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 32) as u32
            })
            .collect()
    };
    let p = tree.num_procs();
    let mut init = vec![ProcInit::default(); p];
    let mut op = None;
    match plan.kind {
        CollectiveKind::Gather | CollectiveKind::Allgather => {
            init = share_inits(tree, &words(seed), plan.workload);
        }
        CollectiveKind::Broadcast | CollectiveKind::Scatter => {
            let root = plan.root.expect("rooted collective resolves a root");
            init[root.rank()]
                .units
                .push((UnitId::new(0, n as u32), words(seed)));
        }
        CollectiveKind::Alltoall => {
            for (src, pi) in init.iter_mut().enumerate() {
                for dst in (0..p).filter(|&dst| dst != src) {
                    let block = (src * p + dst) as u64;
                    pi.units
                        .push((UnitId::new(block as u32, n as u32), words(seed ^ block)));
                }
            }
        }
        CollectiveKind::Reduce | CollectiveKind::Scan => {
            for (rank, pi) in init.iter_mut().enumerate() {
                pi.acc = Some(words(seed ^ rank as u64));
            }
            op = Some(ReduceOp::Sum);
        }
    }
    (init, op)
}

/// A processor's data before the first superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcInit {
    /// Units held in the piece store.
    pub units: Vec<(UnitId, Vec<u32>)>,
    /// Initial reduction accumulator (reduce/scan).
    pub acc: Option<Vec<u32>>,
}

/// Per-processor interpreter state: the unit store, the reduction
/// accumulator, and the first decode error encountered (if any).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleState {
    store: BTreeMap<UnitId, Vec<u32>>,
    acc: Option<Vec<u32>>,
    error: Option<DecodeError>,
}

impl ScheduleState {
    /// The units currently held, as offset-tagged pieces in id order.
    pub fn pieces(&self) -> Vec<Piece> {
        self.store
            .iter()
            .map(|(id, items)| Piece {
                offset: id.offset,
                items: items.clone(),
            })
            .collect()
    }

    /// The reduction accumulator, if this schedule carries one.
    pub fn accumulator(&self) -> Option<&[u32]> {
        self.acc.as_deref()
    }

    /// The first malformed payload seen by this processor, if any.
    pub fn error(&self) -> Option<DecodeError> {
        self.error
    }

    /// Materialize `uid` from the store: the exact unit if present,
    /// otherwise assembled from stored units covering its range.
    ///
    /// # Panics
    /// Panics if the store does not cover the unit — a lowering bug, not
    /// a data error.
    pub fn unit(&self, uid: UnitId) -> Vec<u32> {
        if let Some(items) = self.store.get(&uid) {
            return items.clone();
        }
        let start = uid.offset as u64;
        let end = start + uid.len as u64;
        let mut out: Vec<Option<u32>> = vec![None; uid.len as usize];
        for (id, items) in &self.store {
            let s = id.offset as u64;
            let e = s + id.len as u64;
            if e <= start || s >= end {
                continue;
            }
            for i in s.max(start)..e.min(end) {
                out[(i - start) as usize] = Some(items[(i - s) as usize]);
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.unwrap_or_else(|| {
                    panic!(
                        "schedule references item {} of unit {uid:?} the processor does not hold",
                        start + i as u64
                    )
                })
            })
            .collect()
    }

    fn absorb(&mut self, op: Option<ReduceOp>, messages: &hbsp_core::MsgBatch) {
        // Partials fold in src order, so a future non-commutative op
        // stays deterministic (today's ops are all commutative).
        let mut partials: Vec<(ProcId, Vec<u32>)> = Vec::new();
        for m in messages {
            match m.tag {
                TAG_PIECE => match Piece::decode(m.payload) {
                    Ok(p) => {
                        self.store
                            .insert(UnitId::new(p.offset, p.len() as u32), p.items);
                    }
                    Err(e) => {
                        self.error.get_or_insert(e);
                    }
                },
                TAG_BUNDLE => match decode_bundle(m.payload) {
                    Ok(pieces) => {
                        for p in pieces {
                            self.store
                                .insert(UnitId::new(p.offset, p.len() as u32), p.items);
                        }
                    }
                    Err(e) => {
                        self.error.get_or_insert(e);
                    }
                },
                TAG_PARTIAL => partials.push((m.src, codec::decode_u32s(m.payload))),
                other => panic!("schedule interpreter received foreign tag {other:#x}"),
            }
        }
        partials.sort_by_key(|&(src, _)| src);
        for (_, v) in partials {
            let op = op.expect("partial-reduction transfer without a ReduceOp");
            match &mut self.acc {
                Some(acc) => op.fold_into(acc, &v),
                None => self.acc = Some(v),
            }
        }
    }
}

const TAG_PIECE: u32 = 0x7A01;
const TAG_BUNDLE: u32 = 0x7A02;
const TAG_PARTIAL: u32 = 0x7A03;

/// The generic schedule interpreter: one [`SpmdProgram`] that executes
/// any [`CommSchedule`] on any engine. Each superstep it absorbs what
/// arrived, applies the step's compute charges, and posts the step's
/// transfers with payloads materialized from the local store — so the
/// executed cost is, by construction, the scheduled cost.
pub struct ScheduleProgram {
    schedule: Arc<CommSchedule>,
    init: Arc<Vec<ProcInit>>,
    op: Option<ReduceOp>,
}

impl ScheduleProgram {
    /// Interpret `schedule` with `init[rank]` as each processor's data;
    /// `op` is required iff the schedule carries [`Role::Partial`]
    /// transfers.
    pub fn new(
        schedule: Arc<CommSchedule>,
        init: Arc<Vec<ProcInit>>,
        op: Option<ReduceOp>,
    ) -> Self {
        assert!(!schedule.steps.is_empty(), "schedule must have a step");
        assert!(
            schedule
                .steps
                .iter()
                .enumerate()
                .all(|(i, s)| s.scope.is_some() || i + 1 == schedule.steps.len()),
            "only the final step may be a drain"
        );
        ScheduleProgram { schedule, init, op }
    }

    /// The schedule being interpreted.
    pub fn schedule(&self) -> &CommSchedule {
        &self.schedule
    }
}

impl SpmdProgram for ScheduleProgram {
    type State = ScheduleState;

    fn init(&self, env: &ProcEnv) -> ScheduleState {
        let init = &self.init[env.pid.rank()];
        ScheduleState {
            store: init.units.iter().cloned().collect(),
            acc: init.acc.clone(),
            error: None,
        }
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut ScheduleState,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        let sched_step = &self.schedule.steps[step];
        if state.error.is_none() {
            state.absorb(self.op, ctx.messages());
        }
        // After a malformed payload the processor goes quiet but keeps
        // the superstep protocol, so every rank still reaches Done
        // together and the error can be reported from its final state.
        if state.error.is_none() {
            for &(pid, units) in &sched_step.work {
                if pid == env.pid {
                    ctx.charge(units);
                }
            }
            for t in &sched_step.transfers {
                if t.src != env.pid {
                    continue;
                }
                let (tag, payload) = match &t.role {
                    Role::Piece(uid) => (
                        TAG_PIECE,
                        Piece {
                            offset: uid.offset,
                            items: state.unit(*uid),
                        }
                        .encode(),
                    ),
                    Role::Bundle(uids) => {
                        let pieces: Vec<Piece> = uids
                            .iter()
                            .map(|&uid| Piece {
                                offset: uid.offset,
                                items: state.unit(uid),
                            })
                            .collect();
                        (TAG_BUNDLE, encode_bundle(&pieces))
                    }
                    Role::Partial => (
                        TAG_PARTIAL,
                        codec::encode_u32s(
                            state.acc.as_deref().expect("partial without accumulator"),
                        ),
                    ),
                };
                ctx.send(t.dst, tag, &payload);
            }
        }
        match sched_step.scope {
            Some(scope) => StepOutcome::Continue(scope),
            None => StepOutcome::Done,
        }
    }

    /// Static pre-flight: run the full `hbsp-check` schedule analysis
    /// (structure, dataflow, h-consistency) and reject on any fatal
    /// violation. Engines call this at submit time, so a schedule that
    /// would panic the interpreter or hang a barrier fails loudly with
    /// a diagnostic instead.
    fn preflight(&self, tree: &MachineTree) -> Result<(), hbsp_core::PreflightError> {
        let violations: Vec<String> =
            crate::verify::verify(tree, &self.schedule, &self.init, self.op.is_some())
                .into_iter()
                .filter(|v| v.is_fatal())
                .map(|v| v.to_string())
                .collect();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(hbsp_core::PreflightError { violations })
        }
    }
}

/// Surface the first decode error recorded in any processor's state.
pub fn check_states(states: &[ScheduleState]) -> Result<(), CollectiveError> {
    for (rank, s) in states.iter().enumerate() {
        if let Some(error) = s.error() {
            return Err(CollectiveError::Decode {
                pid: ProcId(rank as u32),
                error,
            });
        }
    }
    Ok(())
}

/// Run a schedule on a [`Simulator`], surfacing engine and decode errors.
pub fn run_on_simulator(
    sim: &Simulator,
    prog: &ScheduleProgram,
) -> Result<(SimOutcome, Vec<ScheduleState>), CollectiveError> {
    let (outcome, states) = sim.run_with_states(prog)?;
    check_states(&states)?;
    Ok((outcome, states))
}

/// Run a schedule through an [`hbsplib::Executor`] — the same interpreter
/// on either the simulator or the threaded runtime.
pub fn execute(
    exec: &hbsplib::Executor,
    prog: &ScheduleProgram,
) -> Result<(hbsplib::ExecOutcome, Vec<ScheduleState>), CollectiveError> {
    let (outcome, states) = exec.run(prog)?;
    check_states(&states)?;
    Ok((outcome, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn unit(offset: u32, items: &[u32]) -> (UnitId, Vec<u32>) {
        (UnitId::new(offset, items.len() as u32), items.to_vec())
    }

    #[test]
    fn interpreter_moves_a_piece_between_processors() {
        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, 2).unwrap());
        let mut sched = CommSchedule::new();
        let mut step = ScheduleStep::at(SyncScope::global(&tree));
        step.transfers.push(Transfer {
            src: ProcId(0),
            dst: ProcId(1),
            words: 3,
            role: Role::Piece(UnitId::new(0, 3)),
        });
        sched.push(step);
        sched.push(ScheduleStep::drain());
        let init = vec![
            ProcInit {
                units: vec![unit(0, &[7, 8, 9])],
                acc: None,
            },
            ProcInit::default(),
        ];
        let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
        let sim = Simulator::new(Arc::clone(&tree));
        let (outcome, states) = run_on_simulator(&sim, &prog).unwrap();
        assert_eq!(outcome.num_steps(), 2);
        assert_eq!(outcome.messages_delivered, 1);
        assert_eq!(states[1].unit(UnitId::new(0, 3)), vec![7, 8, 9]);
    }

    #[test]
    fn unit_assembles_from_covering_pieces() {
        let mut st = ScheduleState::default();
        st.store.insert(UnitId::new(0, 2), vec![1, 2]);
        st.store.insert(UnitId::new(2, 3), vec![3, 4, 5]);
        assert_eq!(st.unit(UnitId::new(1, 3)), vec![2, 3, 4]);
        assert_eq!(st.unit(UnitId::new(0, 0)), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unit_panics_on_uncovered_range() {
        let mut st = ScheduleState::default();
        st.store.insert(UnitId::new(0, 2), vec![1, 2]);
        st.unit(UnitId::new(0, 4));
    }

    #[test]
    fn malformed_payload_is_recorded_not_panicked() {
        // Drive one interpreter step by hand with a hostile message.
        struct Ctx {
            messages: hbsp_core::MsgBatch,
        }
        impl SpmdContext for Ctx {
            fn pid(&self) -> ProcId {
                ProcId(0)
            }
            fn nprocs(&self) -> usize {
                1
            }
            fn tree(&self) -> &MachineTree {
                unreachable!()
            }
            fn messages(&self) -> &hbsp_core::MsgBatch {
                &self.messages
            }
            fn send_with(&mut self, _: ProcId, _: u32, _: usize, _: &mut dyn FnMut(&mut [u8])) {
                panic!("a poisoned processor must go quiet");
            }
            fn charge(&mut self, _: f64) {
                panic!("a poisoned processor must go quiet");
            }
        }
        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 0.0, 1).unwrap());
        let mut sched = CommSchedule::new();
        let mut step = ScheduleStep::drain();
        step.work.push((ProcId(0), 5.0));
        sched.push(step);
        let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(vec![ProcInit::default()]), None);
        let env = ProcEnv {
            pid: ProcId(0),
            nprocs: 1,
            tree: Arc::clone(&tree),
        };
        let mut state = prog.init(&env);
        let mut ctx = Ctx {
            messages: {
                let mut b = hbsp_core::MsgBatch::new();
                b.push(ProcId(0), ProcId(0), TAG_BUNDLE, &[]);
                b
            },
        };
        let out = prog.step(0, &env, &mut state, &mut ctx);
        assert_eq!(out, StepOutcome::Done);
        assert_eq!(state.error(), Some(DecodeError::MissingCount));
        assert!(check_states(&[state]).is_err());
    }

    #[test]
    fn step_hrelation_skips_self_sends() {
        let tree = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap();
        let mut step = ScheduleStep::at(SyncScope::global(&tree));
        step.transfers.push(Transfer {
            src: ProcId(0),
            dst: ProcId(0),
            words: 100,
            role: Role::Partial,
        });
        step.transfers.push(Transfer {
            src: ProcId(1),
            dst: ProcId(0),
            words: 10,
            role: Role::Partial,
        });
        let hr = step_hrelation(&tree, &step);
        assert_eq!(hr.h_on(&tree), 20.0, "r=2 sender, self-send ignored");
    }
}
