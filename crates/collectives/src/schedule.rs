//! The communication-schedule IR every collective lowers to.
//!
//! A [`CommSchedule`] is the §4 structure made explicit: an ordered list
//! of supersteps, each carrying its barrier scope, the per-processor
//! compute charges `w_j`, and the transfers `(src, dst, words, role)` it
//! performs. Each collective is a pure *lowering* `plan → CommSchedule`;
//! from that one artifact the library derives
//!
//! - **execution**: [`ScheduleProgram`] compiles the schedule once into
//!   an [`ExecPlan`] — per processor and step, its charge and its sized
//!   send table — and runs it unchanged on both engines, writing each
//!   payload from the local store straight into the engine's outbox
//!   (see [`execute`]);
//! - **prediction**: [`crate::predict::predict`] folds the heterogeneous
//!   h-relation of each step (`h = max r_j·h_j`, `T_i = w_i + g·h +
//!   L_{i,j}`) via [`hbsp_core::CostModel::schedule_step`];
//! - **tuning**: [`crate::tune`] lowers every candidate strategy and
//!   picks the cheapest prediction.
//!
//! Because the program charges work and emits messages *from the
//! schedule*, the executed program and the analytic cost cannot drift
//! apart — the historic risk of keeping hand-rolled SPMD loops next to
//! closed-form formulas.

use crate::data::{decode_bundle, shares_for, whole_words, DecodeError, Piece};
use crate::error::CollectiveError;
use crate::plan::WorkloadPolicy;
use crate::reduce::ReduceOp;
use crate::tune::{CollectiveKind, PlanChoice};
use hbsp_core::{
    HRelation, Inbox, MachineTree, NodeIdx, Partition, ProcEnv, ProcId, SpmdContext, SpmdProgram,
    StepOutcome, SyncScope, WireWriter,
};
use hbsplib::{codec, ExecOutcome, Executor};
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

/// What a transfer's payload is, so the program can materialize
/// the message bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// One unit on the wire as `[offset, items…]` ([`Piece::encode`]).
    Piece(UnitId),
    /// One or more units bundled as `[count, (offset, len, items…)…]`
    /// ([`crate::data::encode_bundle`]) — one message per link, not per origin.
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

/// The unit id of the block `src → dst` in a `p`-processor all-to-all:
/// block ids are `src·p + dst`.
pub(crate) fn block_unit(p: usize, src: usize, dst: usize, len: usize) -> UnitId {
    UnitId::new((src * p + dst) as u32, len as u32)
}

/// A collective's input, in the shape its kind starts from.
#[derive(Debug, Clone, PartialEq)]
pub enum Staging<'a> {
    /// Gather, allgather: the array every processor holds its workload
    /// share of (shares are copied out of it, so it is only borrowed).
    Shares(&'a [u32], WorkloadPolicy),
    /// Broadcast, scatter: the whole array at the root.
    AtRoot(ProcId, Vec<u32>),
    /// Reduce, scan: one accumulator per rank.
    Accumulators(Vec<Vec<u32>>),
    /// All-to-all: `blocks[src][dst]` for `dst`; the diagonal never
    /// travels and is not staged.
    Blocks(Vec<Vec<Vec<u32>>>),
}

/// Where a collective's data starts: each processor's holdings before
/// the first superstep, the vectors of `input` moved into place.
pub fn stage(tree: &MachineTree, input: Staging) -> Vec<ProcInit> {
    let p = tree.num_procs();
    match input {
        Staging::Shares(items, workload) => share_inits(tree, items, workload),
        Staging::AtRoot(root, items) => {
            let mut init = vec![ProcInit::default(); p];
            let whole = UnitId::new(0, items.len() as u32);
            init[root.rank()].units.push((whole, items));
            init
        }
        Staging::Accumulators(vectors) => vectors
            .into_iter()
            .map(|v| ProcInit {
                units: Vec::new(),
                acc: Some(v),
            })
            .collect(),
        Staging::Blocks(blocks) => blocks
            .into_iter()
            .enumerate()
            .map(|(src, row)| ProcInit {
                units: (row.into_iter().enumerate())
                    .filter(|&(dst, _)| dst != src)
                    .map(|(dst, b)| (block_unit(p, src, dst, b.len()), b))
                    .collect(),
                acc: None,
            })
            .collect(),
    }
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
    let p = tree.num_procs() as u64;
    let array;
    let input = match plan.kind {
        CollectiveKind::Gather | CollectiveKind::Allgather => {
            array = words(seed);
            Staging::Shares(&array, plan.workload)
        }
        CollectiveKind::Broadcast | CollectiveKind::Scatter => {
            let root = plan.root.expect("rooted collective resolves a root");
            Staging::AtRoot(root, words(seed))
        }
        CollectiveKind::Alltoall => {
            // The diagonal is not staged: no words are drawn for it.
            let block = |src, dst| match src == dst {
                true => Vec::new(),
                false => words(seed ^ (src * p + dst)),
            };
            let row = |src| (0..p).map(|dst| block(src, dst)).collect();
            Staging::Blocks((0..p).map(row).collect())
        }
        CollectiveKind::Reduce | CollectiveKind::Scan => {
            Staging::Accumulators((0..p).map(|rank| words(seed ^ rank)).collect())
        }
    };
    let reduces = matches!(plan.kind, CollectiveKind::Reduce | CollectiveKind::Scan);
    (stage(tree, input), reduces.then_some(ReduceOp::Sum))
}

/// A processor's data before the first superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcInit {
    /// Units held in the piece store.
    pub units: Vec<(UnitId, Vec<u32>)>,
    /// Initial reduction accumulator (reduce/scan).
    pub acc: Option<Vec<u32>>,
}

/// Where a stored unit's items live: in place in the program's shared
/// initial holdings, or in a vector decoded off the wire.
#[derive(Debug, Clone)]
enum Held {
    Init(usize),
    Received(Vec<u32>),
}

/// Per-processor execution state: the unit store, the reduction
/// accumulator, and the first data error encountered (if any).
#[derive(Debug, Clone, Default)]
pub struct ScheduleState {
    /// The program's initial holdings and this processor's row in them:
    /// what [`Held::Init`] indexes.
    init: Arc<Vec<ProcInit>>,
    rank: usize,
    store: BTreeMap<UnitId, Held>,
    acc: Option<Vec<u32>>,
    error: Option<DecodeError>,
}

/// Same units with the same items, same accumulator, same error —
/// wherever the items live.
impl PartialEq for ScheduleState {
    fn eq(&self, other: &Self) -> bool {
        self.acc == other.acc && self.error == other.error && self.units().eq(other.units())
    }
}

impl ScheduleState {
    fn items<'a>(&'a self, held: &'a Held) -> &'a [u32] {
        match held {
            Held::Init(i) => &self.init[self.rank].units[*i].1,
            Held::Received(items) => items,
        }
    }

    fn units(&self) -> impl Iterator<Item = (UnitId, &[u32])> {
        self.store.iter().map(|(&id, held)| (id, self.items(held)))
    }

    /// The units currently held, as offset-tagged pieces in id order.
    pub fn pieces(&self) -> Vec<Piece> {
        self.units()
            .map(|(id, items)| Piece {
                offset: id.offset,
                items: items.to_vec(),
            })
            .collect()
    }

    /// The reduction accumulator, if this schedule carries one.
    pub fn accumulator(&self) -> Option<&[u32]> {
        self.acc.as_deref()
    }

    /// The first data error this processor met, if any.
    pub fn error(&self) -> Option<DecodeError> {
        self.error
    }

    /// Hand `uid`'s items to `f` as borrowed slices in item order: the
    /// exact unit if stored, otherwise the segments of stored units
    /// covering its range. `Err` names the first item nobody covers
    /// (segments before it have already been handed over).
    fn segments<'a>(&'a self, uid: UnitId, mut f: impl FnMut(&'a [u32])) -> Result<(), u64> {
        if let Some(held) = self.store.get(&uid) {
            f(self.items(held));
            return Ok(());
        }
        let end = uid.offset as u64 + uid.len as u64;
        let mut next = uid.offset as u64;
        // Ascending offsets: once a unit starts past `next`, so does
        // every later one.
        for (id, items) in self.units() {
            let s = id.offset as u64;
            if next == end || s > next {
                break;
            }
            let e = (s + id.len as u64).min(end);
            if e > next {
                f(&items[(next - s) as usize..(e - s) as usize]);
                next = e;
            }
        }
        if next == end {
            Ok(())
        } else {
            Err(next)
        }
    }

    /// Materialize `uid` from the store: the exact unit if present,
    /// otherwise assembled from stored units covering its range.
    /// [`DecodeError::MissingUnit`] if the store does not cover it — the
    /// collective never delivered that data here (a fault upstream).
    pub fn try_unit(&self, uid: UnitId) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(uid.len as usize);
        match self.segments(uid, |s| out.extend_from_slice(s)) {
            Ok(()) => Ok(out),
            Err(_) => Err(DecodeError::MissingUnit),
        }
    }

    /// [`ScheduleState::try_unit`] for callers that know the data is
    /// there.
    ///
    /// # Panics
    /// Panics if the store does not cover the unit.
    pub fn unit(&self, uid: UnitId) -> Vec<u32> {
        self.try_unit(uid).unwrap_or_else(|_| {
            panic!("schedule references unit {uid:?}, which the processor does not hold")
        })
    }

    fn absorb(&mut self, op: Option<ReduceOp>, due: usize, messages: Inbox<'_>) {
        // Partials fold in src order, so a future non-commutative op
        // stays deterministic (today's ops are all commutative).
        let mut partials: Vec<(ProcId, &[u8])> = Vec::new();
        for m in messages {
            let decoded = match m.tag {
                TAG_PIECE => Piece::decode(m.payload).map(|p| self.insert(p)),
                TAG_BUNDLE => decode_bundle(m.payload)
                    .map(|pieces| pieces.into_iter().for_each(|p| self.insert(p))),
                TAG_PARTIAL => {
                    partials.push((m.src, m.payload));
                    Ok(())
                }
                other => Err(DecodeError::ForeignTag(other)),
            };
            self.error = self.error.or(decoded.err());
        }
        // No decoder ever sees a message that is not there.
        if messages.len() != due {
            self.error = self.error.or(Some(DecodeError::MissingUnit));
        }
        partials.sort_by_key(|&(src, _)| src);
        for (_, payload) in partials {
            let folded = match op {
                Some(op) => self.fold(op, payload),
                None => Err(DecodeError::NoReduceOp),
            };
            self.error = self.error.or(folded.err());
        }
    }

    fn insert(&mut self, p: Piece) {
        self.store.insert(
            UnitId::new(p.offset, p.len() as u32),
            Held::Received(p.items),
        );
    }

    /// Fold a partial vector into the accumulator straight off the wire.
    fn fold(&mut self, op: ReduceOp, payload: &[u8]) -> Result<(), DecodeError> {
        let payload = whole_words(payload)?;
        let Some(acc) = &mut self.acc else {
            self.acc = Some(codec::decode_u32s(payload));
            return Ok(());
        };
        if payload.len() != 4 * acc.len() {
            return Err(DecodeError::PartialLength);
        }
        for (x, c) in acc.iter_mut().zip(payload.chunks_exact(4)) {
            *x = op.apply(*x, u32::from_le_bytes(c.try_into().expect("four bytes")));
        }
        Ok(())
    }

    /// Append `send`'s payload, `send.wire_len` bytes, through `w`;
    /// every unit is known to be held.
    fn write(&self, send: &SendEntry, w: &mut WireWriter<'_>) {
        let items = |w: &mut WireWriter<'_>, uid| {
            self.segments(uid, |s| w.u32s(s))
                .expect("checked before posting")
        };
        match send.tag {
            TAG_PARTIAL => w.u32s(self.acc.as_deref().expect("partial without accumulator")),
            TAG_PIECE => {
                w.word(send.units[0].offset);
                items(w, send.units[0]);
            }
            _ => {
                w.word(send.units.len() as u32);
                for &uid in &send.units {
                    w.word(uid.offset);
                    w.word(uid.len);
                    items(w, uid);
                }
            }
        }
    }
}

const TAG_PIECE: u32 = 0x7A01;
const TAG_BUNDLE: u32 = 0x7A02;
const TAG_PARTIAL: u32 = 0x7A03;

/// One posting in a processor's send table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendEntry {
    /// Destination processor.
    pub dst: ProcId,
    /// Wire tag: which of the three payload layouts follows.
    pub tag: u32,
    /// Payload bytes: `4·(1+len)` for a piece, `4·(1+Σ(2+len))` for a
    /// bundle, `4·words` for a partial.
    pub wire_len: usize,
    /// The units the payload carries, in wire order (none for a partial).
    pub units: Vec<UnitId>,
}

/// What one processor does in one superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStep {
    /// The step's compute charges for this processor, summed.
    pub charge: f64,
    /// Its sends, in the schedule's posting order.
    pub sends: Vec<SendEntry>,
    /// The messages it absorbs first: those posted to it one step earlier.
    pub due: usize,
}

/// A [`CommSchedule`] compiled for execution: `steps[step][rank]` is
/// exactly what that processor charges, posts and expects to receive
/// in that superstep, sized in advance — so a superstep body reads its
/// own row instead of scanning every transfer of every processor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// Per superstep, the per-processor tables indexed by rank.
    pub steps: Vec<Vec<ProcStep>>,
}

impl ExecPlan {
    /// Compile `schedule` for `nprocs` processors. O(transfers); entries
    /// naming ranks the machine does not have are dropped (no processor
    /// would ever have executed them).
    pub fn compile(schedule: &CommSchedule, nprocs: usize) -> ExecPlan {
        let mut steps = vec![vec![ProcStep::default(); nprocs]; schedule.steps.len()];
        for (s, step) in schedule.steps.iter().enumerate() {
            for &(pid, units) in step.work.iter().filter(|w| w.0.rank() < nprocs) {
                steps[s][pid.rank()].charge += units;
            }
            for t in step.transfers.iter().filter(|t| t.src.rank() < nprocs) {
                let (tag, words, units) = match &t.role {
                    Role::Piece(uid) => (TAG_PIECE, 1 + uid.len as usize, vec![*uid]),
                    Role::Bundle(uids) => {
                        let items: usize = uids.iter().map(|u| 2 + u.len as usize).sum();
                        (TAG_BUNDLE, 1 + items, uids.clone())
                    }
                    Role::Partial => (TAG_PARTIAL, t.words as usize, Vec::new()),
                };
                steps[s][t.src.rank()].sends.push(SendEntry {
                    dst: t.dst,
                    tag,
                    wire_len: 4 * words,
                    units,
                });
                // Posted now, absorbed by its destination one step on.
                if let Some(row) = steps.get_mut(s + 1).and_then(|r| r.get_mut(t.dst.rank())) {
                    row.due += 1;
                }
            }
        }
        ExecPlan { steps }
    }
}

/// The one executable form of a collective: a [`CommSchedule`] compiled
/// to an [`ExecPlan`], run unchanged on any engine. Each superstep a
/// processor absorbs what arrived, applies its compute charge, and
/// posts its send table with payloads written straight from the local
/// store into the engine's outbox — so the executed cost is, by
/// construction, the scheduled cost.
pub struct ScheduleProgram {
    schedule: Arc<CommSchedule>,
    plan: ExecPlan,
    init: Arc<Vec<ProcInit>>,
    op: Option<ReduceOp>,
}

impl ScheduleProgram {
    /// Compile `schedule` with `init[rank]` as each processor's data;
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
        let plan = ExecPlan::compile(&schedule, init.len());
        ScheduleProgram {
            schedule,
            plan,
            init,
            op,
        }
    }

    /// The schedule this program was compiled from.
    pub fn schedule(&self) -> &CommSchedule {
        &self.schedule
    }

    /// The compiled per-processor tables the program executes.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }
}

impl SpmdProgram for ScheduleProgram {
    type State = ScheduleState;

    fn init(&self, env: &ProcEnv) -> ScheduleState {
        let rank = env.pid.rank();
        let init = &self.init[rank];
        ScheduleState {
            init: Arc::clone(&self.init),
            rank,
            store: (0..init.units.len())
                .map(|i| (init.units[i].0, Held::Init(i)))
                .collect(),
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
        let mine = &self.plan.steps[step][env.pid.rank()];
        if state.error.is_none() {
            state.absorb(self.op, mine.due, ctx.messages());
        }
        // A send whose data never arrived (a truncated message upstream)
        // is a data error like a malformed payload, and so is a message
        // that never did (`absorb` counts them).
        if state.error.is_none()
            && !(mine.sends.iter().flat_map(|s| &s.units))
                .all(|&u| state.segments(u, |_| ()).is_ok())
        {
            state.error = Some(DecodeError::MissingUnit);
        }
        // After a data error the processor goes quiet but keeps the
        // superstep protocol, so every rank still reaches Done together
        // and the error can be reported from its final state.
        if state.error.is_none() {
            if mine.charge != 0.0 {
                ctx.charge(mine.charge);
            }
            for send in &mine.sends {
                ctx.send_with(send.dst, send.tag, send.wire_len, &mut |w| {
                    state.write(send, w)
                });
            }
        }
        match self.schedule.steps[step].scope {
            Some(scope) => StepOutcome::Continue(scope),
            None => StepOutcome::Done,
        }
    }

    /// Static pre-flight: run the full `hbsp-check` schedule analysis
    /// (structure, dataflow, h-consistency) and reject on any fatal
    /// violation. Engines call this at submit time, so a schedule that
    /// would starve a send or hang a barrier fails loudly with a
    /// diagnostic instead.
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

/// Run a schedule through an [`Executor`] — the same program on
/// whichever engine it was built for — surfacing engine and decode
/// errors.
pub fn execute(
    exec: &Executor,
    prog: &ScheduleProgram,
) -> Result<(ExecOutcome, Vec<ScheduleState>), CollectiveError> {
    let (outcome, states) = exec.run(prog)?;
    check_states(&states)?;
    Ok((outcome, states))
}

/// What every per-kind runner does between lowering and reading its
/// result: stage `input` on the executor's machine, compile, execute.
pub(crate) fn run_staged(
    exec: &Executor,
    schedule: CommSchedule,
    input: Staging,
    op: Option<ReduceOp>,
) -> Result<(ExecOutcome, Vec<ScheduleState>), CollectiveError> {
    let init = stage(exec.tree(), input);
    execute(
        exec,
        &ScheduleProgram::new(Arc::new(schedule), Arc::new(init), op),
    )
}

/// Rank `pid`'s result as a runner reads it back: its copy of `uid`,
/// or with `None` (the kinds that reduce) its accumulator. A fault that
/// kept the result from arriving there is the typed error.
pub(crate) fn result_at(
    states: &[ScheduleState],
    pid: ProcId,
    uid: Option<UnitId>,
) -> Result<Vec<u32>, CollectiveError> {
    let state = &states[pid.rank()];
    let found = match uid {
        Some(uid) => state.try_unit(uid),
        None => (state.accumulator().map(<[u32]>::to_vec)).ok_or(DecodeError::MissingUnit),
    };
    found.map_err(|error| CollectiveError::Decode { pid, error })
}

/// `items` as the highest rank ends up holding them, after comparing
/// every rank's copy with them: the first rank whose copy is incomplete
/// or differs never received the array, which is the typed error.
pub(crate) fn held_by_all(
    states: &[ScheduleState],
    items: &[u32],
) -> Result<Vec<u32>, CollectiveError> {
    let mut copy = Vec::new();
    for rank in 0..states.len() {
        let pid = ProcId(rank as u32);
        copy = result_at(states, pid, Some(UnitId::new(0, items.len() as u32)))?;
        if copy != items {
            let error = DecodeError::MissingUnit;
            return Err(CollectiveError::Decode { pid, error });
        }
    }
    Ok(copy)
}

/// The simulator on a copy of `tree`: what the per-kind modules' tests
/// run on.
#[cfg(test)]
pub(crate) fn sim(tree: &MachineTree) -> Executor {
    Executor::simulator(Arc::new(tree.clone()))
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
        let (outcome, states) = execute(&Executor::simulator(tree), &prog).unwrap();
        assert_eq!(outcome.sim.num_steps(), 2);
        assert_eq!(outcome.sim.messages_delivered, 1);
        assert_eq!(states[1].unit(UnitId::new(0, 3)), vec![7, 8, 9]);
    }

    #[test]
    fn unit_assembles_from_covering_pieces() {
        let mut st = ScheduleState::default();
        st.insert(Piece {
            offset: 0,
            items: vec![1, 2],
        });
        st.insert(Piece {
            offset: 2,
            items: vec![3, 4, 5],
        });
        assert_eq!(st.unit(UnitId::new(1, 3)), vec![2, 3, 4]);
        assert_eq!(st.unit(UnitId::new(0, 5)), vec![1, 2, 3, 4, 5]);
        assert_eq!(st.unit(UnitId::new(0, 0)), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unit_panics_on_uncovered_range() {
        let mut st = ScheduleState::default();
        st.insert(Piece {
            offset: 0,
            items: vec![1, 2],
        });
        assert_eq!(
            st.try_unit(UnitId::new(0, 4)),
            Err(DecodeError::MissingUnit)
        );
        st.unit(UnitId::new(0, 4));
    }

    #[test]
    fn held_by_all_names_the_rank_whose_copy_differs_or_is_short() {
        let holding = |items: &[u32]| {
            let mut st = ScheduleState::default();
            st.insert(Piece {
                offset: 0,
                items: items.to_vec(),
            });
            st
        };
        let items = [4, 5, 6];
        let all = |middle: &[u32]| held_by_all(&[&items, middle, &items].map(holding), &items);
        assert_eq!(all(&items), Ok(items.to_vec()));
        let (pid, error) = (ProcId(1), DecodeError::MissingUnit);
        let named = Err(CollectiveError::Decode { pid, error });
        assert_eq!((all(&[4, 9, 6]), all(&[4, 5])), (named.clone(), named));
    }

    #[test]
    fn malformed_payload_is_recorded_not_panicked() {
        // Drive one interpreter step by hand with a hostile message.
        struct Ctx {
            messages: hbsp_core::MsgBatch,
            rows: Vec<(u32, u32)>,
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
            fn messages(&self) -> Inbox<'_> {
                Inbox::shared(&self.messages, &self.rows)
            }
            fn send_with(
                &mut self,
                _: ProcId,
                _: u32,
                _: usize,
                _: &mut dyn FnMut(&mut WireWriter<'_>),
            ) {
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
            rows: vec![(0, 0)],
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
