//! The communication-schedule IR every collective lowers to, and the
//! program that runs it.
//!
//! A [`CommSchedule`] (defined in [`hbsp_core::schedule`], re-exported
//! here) is the §4 structure made explicit: an ordered list of
//! supersteps, each carrying its barrier scope, the per-processor
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

use crate::data::{
    partition_for, piece_parts, shares_for, walk_bundle, whole_words, DecodeError, Piece,
};
use crate::drift::predicted_steps;
use crate::error::CollectiveError;
use crate::plan::WorkloadPolicy;
use crate::reduce::ReduceOp;
use crate::tune::{CollectiveKind, PlanChoice};
use crate::verify::holdings;
use hbsp_check::{verify_dataflow, verify_hrelation, verify_schedule};
pub use hbsp_core::schedule::{
    step_hrelation, CommSchedule, Role, ScheduleStep, Transfer, UnitId, Units,
};
use hbsp_core::{
    CostModel, Inbox, MachineTree, NodeIdx, Partition, ProcEnv, ProcId, SharedPayload, SpmdContext,
    SpmdProgram, StepOutcome, SuperstepCost, SyncScope, WireWriter,
};
use hbsplib::{codec, ExecOutcome, Executor};
use std::cell::OnceCell;
use std::iter::zip;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The representative (coordinator) processor of a subtree.
#[expect(
    clippy::expect_used,
    reason = "a representative is a leaf of its subtree (`every_node_is_represented_by_a_leaf_of_it`)"
)]
pub(crate) fn rep_of(tree: &MachineTree, node: NodeIdx) -> ProcId {
    tree.node(tree.node(node).representative())
        .proc_id()
        .expect("representative is a leaf")
}

/// The unit ids owned by `node`'s subtree under `partition`, in leaf
/// order.
pub(crate) fn subtree_units(
    tree: &MachineTree,
    node: NodeIdx,
    partition: &Partition,
) -> Vec<UnitId> {
    let leaves = tree.subtree_leaves(node);
    let pids = leaves.iter().filter_map(|&leaf| tree.node(leaf).proc_id());
    pids.map(|pid| share_unit(partition, pid)).collect()
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
    // An LCG stream: `len` more words of the stream at `state`.
    let draw = |state: &mut u64, len: u64| -> Vec<u32> {
        let step = |_| {
            *state = (state.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
            (*state >> 32) as u32
        };
        (0..len).map(step).collect()
    };
    let words = |seed: u64| draw(&mut (seed | 1), n);
    let p = tree.num_procs() as u64;
    let input = match plan.kind {
        CollectiveKind::Gather | CollectiveKind::Allgather => {
            // The one stream, continued into each rank's share in rank
            // order: the array's words, never the array.
            let (partition, mut state) = (partition_for(tree, n, plan.workload), seed | 1);
            let mut init = vec![ProcInit::default(); p as usize];
            for (pid, init) in (0..).map(ProcId).zip(&mut init) {
                let words = draw(&mut state, partition.share(pid));
                init.units.push((share_unit(&partition, pid), words));
            }
            return (init, None);
        }
        CollectiveKind::Broadcast | CollectiveKind::Scatter => {
            #[expect(
                clippy::expect_used,
                reason = "the tuner gives every rooted plan its root (`rooted_plans_resolve_the_fastest_root`)"
            )]
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

/// Every unit each processor may hold, rank after rank, each rank's in
/// id order: its initial units and a slot per unit the plan sends it.
#[derive(Debug)]
struct Layout {
    /// The units' ids.
    ids: Vec<UnitId>,
    /// Per unit, `Some(Init(k))` or, for a slot, `None`: `held` at start.
    initial: Vec<Option<Home>>,
    /// Rank `r`'s units are `at[r]..at[r + 1]`.
    at: Vec<usize>,
}

/// Where a held unit's items live: in place in the program's shared
/// initial holdings, or in the wire — from that byte on of the payload
/// its sender posted, which the handle keeps.
#[derive(Debug, Clone)]
enum Home {
    Init(usize),
    Wire(SharedPayload, usize),
}

/// A held unit's items, or a run of them: in memory, or as the
/// little-endian words their sender wrote.
#[derive(Clone, Copy)]
enum Items<'a> {
    Words(&'a [u32]),
    Wire(&'a [u8]),
}

impl<'a> Items<'a> {
    /// The items, decoded.
    fn words(self) -> impl Iterator<Item = u32> + 'a {
        let (words, bytes): (&[u32], &[u8]) = match self {
            Items::Words(words) => (words, &[]),
            Items::Wire(bytes) => (&[], bytes),
        };
        words.iter().copied().chain(codec::read_u32s(bytes))
    }

    fn write(self, w: &mut WireWriter<'_>) {
        match self {
            Items::Words(words) => w.u32s(words),
            Items::Wire(bytes) => w.bytes(bytes),
        }
    }
}

impl PartialEq for Items<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.words().eq(other.words())
    }
}

impl Layout {
    /// The layout of `ranks` processors, rank `r` starting with the
    /// units `init(r)`. An initial unit also planned to arrive keeps its
    /// initial home: the same id carries the same data.
    fn new<'a>(
        ranks: usize,
        init: impl Fn(usize) -> &'a [(UnitId, Vec<u32>)],
        slots: &[(usize, UnitId)],
    ) -> Layout {
        let units = slots.len() + (0..ranks).map(|r| init(r).len()).sum::<usize>();
        let (mut ids, mut initial) = (Vec::with_capacity(units), Vec::with_capacity(units));
        let (mut at, mut slots) = (Vec::with_capacity(ranks + 1), slots.iter().peekable());
        for rank in 0..ranks {
            let start = ids.len();
            at.push(start);
            while let Some(&(_, id)) = slots.next_if(|s| s.0 == rank) {
                ids.push(id);
                initial.push(None);
            }
            for (k, &(id, _)) in init(rank).iter().enumerate() {
                match ids[start..].binary_search(&id) {
                    Ok(i) => drop(initial[start + i].get_or_insert(Home::Init(k))),
                    Err(i) => {
                        ids.insert(start + i, id);
                        initial.insert(start + i, Some(Home::Init(k)));
                    }
                }
            }
        }
        at.push(ids.len());
        Layout { ids, initial, at }
    }
}

/// Per-processor execution state: its units, the reduction accumulator,
/// and the first data error encountered (if any).
#[derive(Debug, Clone)]
pub struct ScheduleState {
    /// The program's initial holdings and this processor's row in them:
    /// where [`Home::Init`] units and the initial accumulator are read
    /// in place.
    init: Arc<Vec<ProcInit>>,
    rank: usize,
    layout: Option<Arc<Layout>>,
    /// This processor's units in the layout.
    mine: Range<usize>,
    /// Its units are whole blocks ([`CommSchedule::whole_blocks`]).
    whole_blocks: bool,
    /// Per unit of the layout, where its items live if it is held now;
    /// empty, and read from the layout, where no unit can arrive.
    held: Vec<Option<Home>>,
    /// The accumulator once a fold wrote it; until then it is `init`'s.
    acc: Option<Vec<u32>>,
    error: Option<DecodeError>,
}

/// Same units with the same items, same accumulator, same error —
/// wherever the items live.
impl PartialEq for ScheduleState {
    fn eq(&self, other: &Self) -> bool {
        self.accumulator() == other.accumulator()
            && self.error == other.error
            && self.units().eq(other.units())
    }
}

impl ScheduleState {
    fn ids(&self) -> &[UnitId] {
        (self.layout.as_ref()).map_or(&[], |l| &l.ids[self.mine.clone()])
    }

    /// Where the `i`-th unit's items live, if it is held.
    fn home(&self, i: usize) -> Option<&Home> {
        let initial = || self.layout.as_ref()?.initial[self.mine.start + i].as_ref();
        self.held.get(i).map_or_else(initial, Option::as_ref)
    }

    /// Items `r` of the `i`-th unit.
    fn items(&self, i: usize, r: Range<usize>) -> Items<'_> {
        match self.home(i) {
            Some(Home::Init(k)) => Items::Words(&self.init[self.rank].units[*k].1[r]),
            Some(Home::Wire(payload, at)) => {
                Items::Wire(&payload.bytes()[at + 4 * r.start..][..4 * r.len()])
            }
            None => Items::Words(&[]),
        }
    }

    fn units(&self) -> impl Iterator<Item = (UnitId, Items<'_>)> {
        let ids = self.ids().iter().enumerate();
        let held = ids.filter(|&(i, _)| self.home(i).is_some());
        held.map(|(i, &id)| (id, self.items(i, 0..id.len as usize)))
    }

    /// The units currently held, as offset-tagged pieces in id order.
    pub fn pieces(&self) -> Vec<Piece> {
        self.units()
            .map(|(id, items)| Piece {
                offset: id.offset,
                items: items.words().collect(),
            })
            .collect()
    }

    /// The reduction accumulator, if this schedule carries one.
    pub fn accumulator(&self) -> Option<&[u32]> {
        let init = || self.init.get(self.rank)?.acc.as_deref();
        self.acc.as_deref().or_else(init)
    }

    /// The first data error this processor met, if any.
    pub fn error(&self) -> Option<DecodeError> {
        self.error
    }

    /// Hand `uid`'s items to `f` as borrowed runs in item order, as
    /// [`hbsp_check::cover`] finds them among the held units. Returns
    /// whether `uid` is covered.
    fn cover<'a>(&'a self, uid: UnitId, mut f: impl FnMut(Items<'a>)) -> bool {
        let held = |i: usize| self.home(i).is_some();
        let items = |i, r| f(self.items(i, r));
        hbsp_check::cover(self.ids(), held, !self.whole_blocks, uid, items)
    }

    /// Materialize `uid` from the held units, by [`hbsp_check::cover`].
    /// [`DecodeError::MissingUnit`] if they do not cover it — the
    /// collective never delivered that data here (a fault upstream).
    pub fn try_unit(&self, uid: UnitId) -> Result<Vec<u32>, DecodeError> {
        let mut out = Vec::with_capacity(uid.len as usize);
        match self.cover(uid, |s| out.extend(s.words())) {
            true => Ok(out),
            false => Err(DecodeError::MissingUnit),
        }
    }

    /// [`ScheduleState::try_unit`] for callers that know the data is
    /// there.
    ///
    /// # Panics
    /// Panics if the held units do not cover it.
    pub fn unit(&self, uid: UnitId) -> Vec<u32> {
        self.try_unit(uid).unwrap_or_else(|_| {
            panic!("schedule references unit {uid:?}, which the processor does not hold")
        })
    }

    fn absorb(&mut self, op: Option<ReduceOp>, due: usize, messages: Inbox<'_>) {
        // Partials fold in src order, so a future non-commutative op
        // stays deterministic (today's ops are all commutative).
        let mut partials: Vec<(ProcId, &[u8])> = Vec::new();
        for (i, m) in messages.iter().enumerate() {
            let mut store = |o, items| self.store(o, items, || messages.share(i));
            let decoded = match m.tag {
                TAG_PIECE => piece_parts(m.payload).and_then(|(o, items)| store(o, items)),
                TAG_BUNDLE => walk_bundle(m.payload, store),
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

    /// Hold a received unit where it lies, bytes `items` of `payload`,
    /// once: a unit already held carries the same data.
    fn store(
        &mut self,
        offset: u32,
        items: Range<usize>,
        payload: impl FnOnce() -> SharedPayload,
    ) -> Result<(), DecodeError> {
        let len = u32::try_from(items.len() / 4).map_err(|_| DecodeError::UnplannedUnit)?;
        let i = (self.ids().binary_search(&UnitId::new(offset, len)))
            .map_err(|_| DecodeError::UnplannedUnit)?;
        if self.held.get(i).is_some_and(Option::is_none) {
            self.held[i] = Some(Home::Wire(payload(), items.start));
        }
        Ok(())
    }

    /// Fold a partial vector into the accumulator straight off the wire.
    /// The first fold copies `init` into this rank's own vector, then
    /// folds in place: faster than one pass writing `init ⊕ partial` to
    /// fresh memory (performance.md §19).
    fn fold(&mut self, op: ReduceOp, payload: &[u8]) -> Result<(), DecodeError> {
        let partial = codec::read_u32s(whole_words(payload)?);
        let init = (self.init.get(self.rank)).and_then(|i| i.acc.as_deref());
        let acc = match (&mut self.acc, init) {
            (Some(acc), _) if acc.len() == partial.len() => acc,
            (acc @ None, Some(init)) if init.len() == partial.len() => acc.insert(init.to_vec()),
            (acc @ None, None) => {
                *acc = Some(partial.collect());
                return Ok(());
            }
            _ => return Err(DecodeError::PartialLength),
        };
        zip(acc, partial).for_each(|(x, y)| *x = op.apply(*x, y));
        Ok(())
    }

    /// Append `send`'s payload, `send.wire_len` bytes, through `w`;
    /// every unit is known to be held. A unit or an accumulator that
    /// were not would write short, which the engine refuses as this
    /// rank's broken fill (`FillLength`), never as a short message.
    fn write(&self, send: &SendEntry, w: &mut WireWriter<'_>) {
        let items = |w: &mut WireWriter<'_>, uid| {
            let _checked_before_posting = self.cover(uid, |s| s.write(w));
        };
        match send.tag {
            TAG_PARTIAL => w.u32s(self.accumulator().unwrap_or_default()),
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

/// One posting in a processor's send table: one payload, written once,
/// to each of its destinations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendEntry {
    /// Destination processors, in the schedule's posting order.
    pub dsts: Vec<ProcId>,
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
    /// Its sends, in the schedule's posting order: consecutive transfers
    /// of one payload are one entry with several destinations.
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
    /// Each distinct `(rank, unit)` the plan sends, sorted: one arena slot.
    pub(crate) slots: Vec<(usize, UnitId)>,
}

impl ExecPlan {
    /// Compile `schedule` for `nprocs` processors. O(transfers · log
    /// units); entries naming ranks the machine does not have are
    /// dropped (no processor would ever have executed them).
    ///
    /// A transfer whose payload is its sender's previous send of the
    /// step — same tag, units and wire length — joins that entry as one
    /// more destination, so the payload is written once (a partial too:
    /// the accumulator does not change while its processor posts). Only
    /// consecutive sends merge, so the posted rows keep the schedule's
    /// order.
    pub fn compile(schedule: &CommSchedule, nprocs: usize) -> ExecPlan {
        let mut steps = vec![vec![ProcStep::default(); nprocs]; schedule.steps.len()];
        let ranked = |t: &&Transfer| t.src.rank() < nprocs;
        let transfers = schedule.steps.iter().flat_map(|s| &s.transfers);
        let slotted = transfers.filter(|t| ranked(t) && t.dst.rank() < nprocs);
        let mut slots = Vec::with_capacity(slotted.map(|t| t.role.units().len()).sum());
        for (s, step) in schedule.steps.iter().enumerate() {
            for &(pid, units) in step.work.iter().filter(|w| w.0.rank() < nprocs) {
                steps[s][pid.rank()].charge += units;
            }
            for (j, t) in step.transfers.iter().enumerate().filter(|(_, t)| ranked(t)) {
                let (tag, wire_len) = wire(t);
                let units = t.role.units();
                if t.dst.rank() < nprocs {
                    slots.extend(units.iter().map(|&u| (t.dst.rank(), u)));
                }
                let sends = &mut steps[s][t.src.rank()].sends;
                match sends.last_mut() {
                    Some(last)
                        if (last.tag, last.wire_len, &last.units[..]) == (tag, wire_len, units) =>
                    {
                        last.dsts.push(t.dst)
                    }
                    // A new entry, with room for each destination its
                    // sender's next transfers give the same payload.
                    _ => {
                        let same = |u: &&Transfer| (wire(u), u.role.units()) == (wire(t), units);
                        let mine = step.transfers[j..].iter().filter(|u| u.src == t.src);
                        let mut dsts = Vec::with_capacity(mine.take_while(same).count());
                        dsts.push(t.dst);
                        sends.push(SendEntry {
                            dsts,
                            tag,
                            wire_len,
                            units: units.to_vec(),
                        });
                    }
                }
                // Posted now, absorbed by its destination one step on.
                if let Some(row) = steps.get_mut(s + 1).and_then(|r| r.get_mut(t.dst.rank())) {
                    row.due += 1;
                }
            }
        }
        slots.sort_unstable();
        slots.dedup();
        ExecPlan { steps, slots }
    }
}

/// A transfer's wire tag and payload length in bytes.
fn wire(t: &Transfer) -> (u32, usize) {
    let (tag, words) = match &t.role {
        Role::Piece(uid) => (TAG_PIECE, 1 + uid.len as usize),
        Role::Bundle(uids) => (
            TAG_BUNDLE,
            1 + (uids.iter()).map(|u| 2 + u.len as usize).sum::<usize>(),
        ),
        Role::Partial => (TAG_PARTIAL, t.words as usize),
    };
    (tag, 4 * words)
}

/// A schedule compiled once, rows and unit layout, for the machine a
/// [`ScheduleProgram`] runs it on, alone or beside a batch's others.
#[derive(Debug)]
pub struct Placed {
    schedule: Arc<CommSchedule>,
    plan: ExecPlan,
    layout: Arc<Layout>,
    /// The machine ranks a placement runs on (a lone program: none).
    leaves: Vec<ProcId>,
    /// Its steps priced on the tree it was placed on, drain included.
    steps: Vec<SuperstepCost>,
    /// Its fatal findings, verified at the first batch pre-flight.
    verdict: OnceLock<Vec<String>>,
}

impl Placed {
    /// `schedule`, in the local ranks of the processors `leaves` of a
    /// level-`level` cluster of `tree`, moved to `tree`'s ranks — body
    /// steps scoped at `level`, the drain keeping only its charges, rank
    /// `leaves[r]` starting with the units of `init[r]` (as every input
    /// staged for the placement does) — then compiled and priced.
    ///
    /// A schedule naming a rank past `leaves`, a leaf past `tree`'s
    /// ranks or an `init` shorter than `leaves` is the typed
    /// [`CollectiveError::Shape`].
    pub fn new(
        tree: &MachineTree,
        schedule: &CommSchedule,
        leaves: &[ProcId],
        level: u32,
        init: &[ProcInit],
    ) -> Result<Placed, CollectiveError> {
        let (p, body) = (tree.num_procs(), schedule.num_steps().saturating_sub(1));
        let shape = |what, want, got| CollectiveError::Shape { what, want, got };
        let top = leaves.iter().map(|q| q.rank() + 1).max().unwrap_or(0);
        if top > p {
            return Err(shape("machine ranks named by the leaves", p, top));
        } else if init.len() < leaves.len() {
            return Err(shape("initial holdings", leaves.len(), init.len()));
        }
        let at = |pid: ProcId| match leaves.get(pid.rank()) {
            Some(&at) => Ok(at),
            None => Err(shape(
                "ranks named by the schedule",
                leaves.len(),
                pid.rank() + 1,
            )),
        };
        let local = |r| leaves.iter().position(|pid| pid.rank() == r);
        let mut placed = CommSchedule::new();
        placed.whole_blocks = (0..p)
            .map(|r| local(r).is_some_and(|l| schedule.holds_blocks(l)))
            .collect();
        for (s, step) in schedule.steps.iter().enumerate() {
            let mut to = ScheduleStep::drain();
            to.scope = (s < body).then_some(SyncScope::Level(level));
            let work = step.work.iter().map(|&(pid, w)| Ok((at(pid)?, w)));
            to.work = work.collect::<Result<_, CollectiveError>>()?;
            for t in step.transfers.iter().filter(|_| s < body) {
                let mut t = t.clone();
                (t.src, t.dst) = (at(t.src)?, at(t.dst)?);
                to.transfers.push(t);
            }
            placed.push(to);
        }
        let units = |r| local(r).map_or(&[][..], |l| &init[l].units[..]);
        let mut placed = Placed::compile(Arc::new(placed), p, units);
        (placed.leaves, placed.steps) = (leaves.to_vec(), predicted_steps(tree, &placed.schedule));
        Ok(placed)
    }

    /// Compile `schedule` for `ranks` processors, rank `r` starting with
    /// the units `init(r)`.
    fn compile<'a>(
        schedule: Arc<CommSchedule>,
        ranks: usize,
        init: impl Fn(usize) -> &'a [(UnitId, Vec<u32>)],
    ) -> Placed {
        let plan = ExecPlan::compile(&schedule, ranks);
        let layout = Arc::new(Layout::new(ranks, init, &plan.slots));
        let (leaves, steps, verdict) = (Vec::new(), Vec::new(), OnceLock::new());
        Placed {
            schedule,
            plan,
            layout,
            leaves,
            steps,
            verdict,
        }
    }

    /// Its step at step `step` of a program whose drain is step `last`:
    /// its body, then nothing until its drain runs there.
    fn acting(&self, step: usize, last: usize) -> Option<usize> {
        let body = self.schedule.num_steps().saturating_sub(1);
        (step < body)
            .then_some(step)
            .or((step == last).then_some(body))
    }
}

/// The one executable form of a collective: a [`CommSchedule`] compiled
/// to an [`ExecPlan`], run unchanged on any engine. Each superstep a
/// processor absorbs what arrived, applies its compute charge, and
/// posts its send table with payloads written straight from the local
/// store into the engine's outbox — so the executed cost is, by
/// construction, the scheduled cost.
pub struct ScheduleProgram {
    /// Its placements, and per rank the one it runs (`u32::MAX`: none).
    members: Vec<Arc<Placed>>,
    owner: Vec<u32>,
    /// Per step, its barrier scope (`None`: a drain).
    scopes: Vec<Option<SyncScope>>,
    init: Arc<Vec<ProcInit>>,
    op: Option<ReduceOp>,
}

impl ScheduleProgram {
    /// Compile `schedule` with `init[rank]` as each processor's data;
    /// `op` is required iff the schedule carries [`Role::Partial`]
    /// transfers. A schedule that does not end in its one drain step is
    /// refused when the program runs: by the pre-flight's
    /// `EmptySchedule`, `MissingDrain` or `MisplacedDrain`, or unchecked
    /// by the step that finds it. A rank without an entry in `init`
    /// starts empty, and is [`DecodeError::NoInput`] if the schedule
    /// names it.
    pub fn new(
        schedule: Arc<CommSchedule>,
        init: Arc<Vec<ProcInit>>,
        op: Option<ReduceOp>,
    ) -> Self {
        let units = |r: usize| &init[r].units[..];
        let lone = Arc::new(Placed::compile(schedule, init.len(), units));
        ScheduleProgram::of(vec![lone], vec![0; init.len()], init, op)
    }

    /// A batch: members side by side on an `nprocs`-processor machine,
    /// each on its ranks with its input moved there, under one barrier
    /// per step, `Level(the highest level of a member whose body still
    /// runs)`, and one drain, where every member's drain charges fall.
    ///
    /// The shared barrier is correct: a member placed at level `ℓ` runs
    /// on a level-`ℓ` cluster, so each of its transfers crosses at a
    /// level `≤ ℓ`, within every batch step it takes part in, and the
    /// engines' scope check accepts the batch wherever it accepted the
    /// members. Unit ids may collide across members, but stores are per
    /// processor and members' ranks are disjoint (the pre-flight checks
    /// it), so no processor sees two members' units.
    pub fn side_by_side(
        nprocs: usize,
        members: impl ExactSizeIterator<Item = (Arc<Placed>, Vec<ProcInit>)>,
        op: Option<ReduceOp>,
    ) -> Self {
        let (mut init, mut owner) = (vec![ProcInit::default(); nprocs], vec![u32::MAX; nprocs]);
        let mut placed = Vec::with_capacity(members.len());
        for (m, (member, input)) in members.enumerate() {
            for (pid, input) in zip(&member.leaves, input) {
                (init[pid.rank()], owner[pid.rank()]) = (input, m as u32);
            }
            placed.push(member);
        }
        ScheduleProgram::of(placed, owner, Arc::new(init), op)
    }

    /// Each step closes at its members' highest scope: a drain where no
    /// member's body runs.
    fn of(
        members: Vec<Arc<Placed>>,
        owner: Vec<u32>,
        init: Arc<Vec<ProcInit>>,
        op: Option<ReduceOp>,
    ) -> Self {
        let steps = members.iter().map(|m| m.schedule.num_steps()).max();
        let scope = |s: usize| {
            members
                .iter()
                .filter_map(|m| m.schedule.steps.get(s)?.scope)
                .max_by_key(|c| c.level())
        };
        let scopes = (0..steps.unwrap_or(0)).map(scope).collect();
        ScheduleProgram {
            members,
            owner,
            scopes,
            init,
            op,
        }
    }

    /// The schedule this program was compiled from (a batch's first
    /// member's, in the machine's ranks).
    pub fn schedule(&self) -> &CommSchedule {
        &self.members[0].schedule
    }

    /// The compiled per-processor tables the program executes (a
    /// batch's first member's).
    pub fn plan(&self) -> &ExecPlan {
        &self.members[0].plan
    }

    /// A batch's predicted cost per step, drain included, on `tree`:
    /// the largest `w` and `h` its members were priced at when placed —
    /// a max is exact: these are their steps' merged — and its barrier.
    pub fn predicted(&self, tree: &MachineTree) -> Vec<SuperstepCost> {
        let (cm, last) = (CostModel::new(tree), self.scopes.len() - 1);
        let cost = |s: usize, scope: &Option<SyncScope>| {
            let acting = (self.members.iter()).filter_map(|m| m.steps.get(m.acting(s, last)?));
            let max = |f: fn(&SuperstepCost) -> f64| acting.clone().map(f).max_by(f64::total_cmp);
            let (w, h) = (max(|c| c.w).unwrap_or(0.0), max(|c| c.h).unwrap_or(0.0));
            let level = scope.map_or(tree.height(), |c| c.level());
            cm.from_aggregates(level, w, h, scope.map_or(0.0, |_| cm.level_sync(level)))
        };
        self.scopes
            .iter()
            .enumerate()
            .map(|(s, scope)| cost(s, scope))
            .collect()
    }

    /// The placement running `rank`, if any.
    fn member(&self, rank: usize) -> Option<&Placed> {
        self.members
            .get(*self.owner.get(rank)? as usize)
            .map(|m| &**m)
    }

    /// `rank`'s row at step `step` of `last + 1`, where its member acts,
    /// and the messages due to it.
    fn row(&self, step: usize, last: usize, rank: usize) -> (Option<&ProcStep>, usize) {
        let member = self.member(rank);
        let row = |s: usize| member?.plan.steps.get(s)?.get(rank);
        let acting = member.and_then(|m| row(m.acting(step, last)?));
        (acting, row(step).map_or(0, |r| r.due))
    }
}

impl SpmdProgram for ScheduleProgram {
    type State = ScheduleState;

    fn init(&self, env: &ProcEnv) -> ScheduleState {
        let (rank, pid, member) = (env.pid.rank(), env.pid, self.member(env.pid.rank()));
        let lay = member.map(|m| &m.layout);
        let mine = lay.and_then(|l| Some(*l.at.get(rank)?..*l.at.get(rank + 1)?));
        let mine = mine.unwrap_or(0..0);
        let names = |s: &ScheduleStep| {
            s.work.iter().any(|w| w.0 == pid)
                || s.transfers.iter().any(|t| t.src == pid || t.dst == pid)
        };
        let unfed = rank >= self.init.len() && self.schedule().steps.iter().any(names);
        ScheduleState {
            init: Arc::clone(&self.init),
            rank,
            held: (lay.map(|l| &l.initial[mine.clone()]))
                .filter(|homes| homes.iter().any(Option::is_none))
                .map_or(Vec::new(), <[_]>::to_vec),
            layout: lay.cloned(),
            mine,
            whole_blocks: member.is_some_and(|m| m.schedule.holds_blocks(rank)),
            acc: None,
            error: unfed.then_some(DecodeError::NoInput),
        }
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut ScheduleState,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        let Some(&scope) = self.scopes.get(step) else {
            return StepOutcome::Abort("the schedule ends without a drain step");
        };
        let (mine, due) = self.row(step, self.scopes.len() - 1, env.pid.rank());
        let (charge, sends) = mine.map_or((0.0, &[][..]), |m| (m.charge, &m.sends[..]));
        if state.error.is_none() {
            state.absorb(self.op, due, ctx.messages());
        }
        // A send whose data never arrived (a truncated message upstream)
        // is a data error like a malformed payload, and so is a message
        // that never did (`absorb` counts them).
        if state.error.is_none()
            && !(sends.iter().flat_map(|s| &s.units)).all(|&u| state.cover(u, |_| ()))
        {
            state.error = Some(DecodeError::MissingUnit);
        }
        // After a data error the processor goes quiet but keeps the
        // superstep protocol, so every rank still reaches Done together
        // and the error can be reported from its final state.
        if state.error.is_none() {
            if charge != 0.0 {
                ctx.charge(charge);
            }
            for send in sends {
                ctx.send_with(&send.dsts, send.tag, send.wire_len, &mut |w| {
                    state.write(send, w)
                });
            }
        }
        match scope {
            Some(scope) => StepOutcome::Continue(scope),
            None if step + 1 == self.scopes.len() => StepOutcome::Done,
            None => StepOutcome::Abort("a drain step before the schedule's last"),
        }
    }

    /// Static pre-flight: run the full `hbsp-check` schedule analysis
    /// (structure, dataflow, h-consistency) and reject on any fatal
    /// violation. Engines call this at submit time, so a schedule that
    /// would starve a send or hang a barrier fails loudly with a
    /// diagnostic instead. A batch refuses what its members merged would:
    /// each member's findings (once per placement), and a shared rank.
    fn preflight(&self, tree: &MachineTree) -> Result<(), hbsp_core::PreflightError> {
        let held = OnceCell::new();
        let fatal = |schedule: &CommSchedule| {
            let held = held.get_or_init(|| holdings(&self.init));
            let mut found = verify_schedule(tree, schedule);
            found.extend(verify_dataflow(tree, schedule, held, self.op.is_some()));
            found.extend(verify_hrelation(tree, schedule));
            let fatal = found.into_iter().filter(|v| v.is_fatal());
            fatal.map(|v| v.to_string()).collect::<Vec<String>>()
        };
        // A lone program is verified on whichever machine runs it.
        let verdict = |m: &Arc<Placed>| match m.leaves.is_empty() {
            true => fatal(&m.schedule),
            false => m.verdict.get_or_init(|| fatal(&m.schedule)).clone(),
        };
        let mut violations: Vec<String> = self.members.iter().flat_map(verdict).collect();
        let owns = |(m, p): (usize, &Arc<Placed>)| {
            p.leaves.iter().all(|l| self.owner[l.rank()] as usize == m)
        };
        if !self.members.iter().enumerate().all(owns) {
            violations.push("two members of the batch share a rank".to_string());
        }
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
    use hbsp_core::{SyncScope, TreeBuilder};

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

    /// Placements side by side on disjoint ranks run and price as one
    /// program; two on a shared rank are refused by the pre-flight.
    #[test]
    fn a_batch_runs_disjoint_placements_and_refuses_a_shared_rank() {
        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, 4).unwrap());
        let mut sched = CommSchedule::new();
        let mut step = ScheduleStep::at(SyncScope::Level(1));
        step.transfers.push(Transfer {
            src: ProcId(0),
            dst: ProcId(1),
            words: 2,
            role: Role::Piece(UnitId::new(0, 2)),
        });
        sched.push(step);
        sched.push(ScheduleStep::drain());
        let init = vec![
            ProcInit {
                units: vec![unit(0, &[5, 6])],
                acc: None,
            },
            ProcInit::default(),
        ];
        let placed =
            |l: [u32; 2]| Arc::new(Placed::new(&tree, &sched, &l.map(ProcId), 1, &init).unwrap());
        let batch = |a: [u32; 2], b: [u32; 2]| {
            let members = [(placed(a), init.clone()), (placed(b), init.clone())];
            ScheduleProgram::side_by_side(4, members.into_iter(), None)
        };
        let prog = batch([0, 1], [3, 2]);
        assert_eq!(prog.predicted(&tree), predicted_steps(&tree, &sched));
        let (_, states) = execute(&Executor::simulator(Arc::clone(&tree)), &prog).unwrap();
        let got = |rank: usize| states[rank].try_unit(UnitId::new(0, 2));
        assert_eq!((got(1), got(2)), (Ok(vec![5, 6]), Ok(vec![5, 6])));
        let shared = batch([0, 1], [1, 2]).preflight(&tree).unwrap_err();
        assert_eq!(shared.violations, ["two members of the batch share a rank"]);
    }

    /// `rep_of`'s invariant: every node of every committed machine is
    /// represented by a processor among its own leaves.
    #[test]
    fn every_node_is_represented_by_a_leaf_of_it() {
        let machines = [
            include_str!("../../../machines/campus.hbsp"),
            include_str!("../../../machines/grid3.hbsp"),
        ];
        for text in machines {
            let tree = hbsp_core::topology::parse(text).unwrap();
            for node in tree.nodes() {
                let rep = rep_of(&tree, node.idx());
                let leaves = tree.subtree_leaves(node.idx());
                assert!(
                    leaves.contains(&tree.leaves()[rep.rank()]),
                    "{}",
                    node.name()
                );
            }
        }
    }

    /// A partial from a processor that holds no accumulator writes
    /// short, which both engines refuse as that rank's broken fill: a
    /// typed error, not a panic in the interpreter.
    #[test]
    fn a_partial_without_an_accumulator_is_that_ranks_typed_error() {
        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, 2).unwrap());
        let mut sched = CommSchedule::new();
        let mut step = ScheduleStep::at(SyncScope::global(&tree));
        step.transfers.push(Transfer {
            src: ProcId(1),
            dst: ProcId(0),
            words: 3,
            role: Role::Partial,
        });
        sched.push(step);
        sched.push(ScheduleStep::drain());
        let init = Arc::new(vec![ProcInit::default(); 2]);
        let prog = ScheduleProgram::new(Arc::new(sched), init, Some(ReduceOp::Sum));
        for engine in [Executor::simulator, Executor::threads] {
            let exec = engine(Arc::clone(&tree)).check(false);
            assert_eq!(
                execute(&exec, &prog).map(|_| ()),
                Err(CollectiveError::Sim(hbsp_sim::SimError::ProgramPanicked {
                    pid: ProcId(1),
                    step: 0
                })),
                "{}",
                exec.engine_name()
            );
        }
    }

    /// The state of a lone processor that starts with `units`, on a
    /// rank of ranges or of whole blocks.
    fn holding(units: &[(UnitId, Vec<u32>)], whole_blocks: bool) -> ScheduleState {
        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 0.0, 1).unwrap());
        let mut sched = CommSchedule::new();
        sched.push(ScheduleStep::drain());
        sched.whole_blocks = vec![whole_blocks];
        let units = units.to_vec();
        let init = vec![ProcInit { units, acc: None }];
        let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
        let (pid, nprocs) = (ProcId(0), 1);
        prog.init(&ProcEnv { pid, nprocs, tree })
    }

    #[test]
    fn unit_assembles_from_covering_pieces() {
        let units = [unit(2, &[3, 4, 5]), unit(0, &[1, 2])];
        let st = holding(&units, false);
        assert_eq!(st.unit(UnitId::new(1, 3)), vec![2, 3, 4]);
        assert_eq!(st.unit(UnitId::new(0, 5)), vec![1, 2, 3, 4, 5]);
        assert_eq!(st.unit(UnitId::new(0, 0)), Vec::<u32>::new());
        let blocks = holding(&units, true);
        assert_eq!(blocks.unit(UnitId::new(2, 3)), vec![3, 4, 5], "exact id");
        let (pieced, missing) = (UnitId::new(1, 3), Err(DecodeError::MissingUnit));
        assert_eq!(blocks.try_unit(pieced), missing, "blocks are not ranges");
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn unit_panics_on_uncovered_range() {
        let st = holding(&[unit(0, &[1, 2])], false);
        assert_eq!(
            st.try_unit(UnitId::new(0, 4)),
            Err(DecodeError::MissingUnit)
        );
        st.unit(UnitId::new(0, 4));
    }

    #[test]
    fn held_by_all_names_the_rank_whose_copy_differs_or_is_short() {
        let holding = |items: &[u32]| holding(&[unit(0, items)], false);
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
                _: &[ProcId],
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
