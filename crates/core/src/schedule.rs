//! The communication-schedule IR every collective lowers to.
//!
//! A [`CommSchedule`] is the §4 structure made explicit: an ordered list
//! of supersteps, each carrying its barrier scope, the per-processor
//! compute charges `w_j`, and the transfers `(src, dst, words, role)` it
//! performs. It lives beside the cost model that prices it
//! ([`crate::CostModel::schedule_step`] over [`step_hrelation`]), so the
//! collectives that lower to it, the interpreter that runs it and the
//! checker that verifies it (`hbsp-check`) all read the same types.

use crate::{HRelation, MachineTree, ProcId, SyncScope};

/// Identity of a contiguous data unit moved by a schedule: `len` items
/// starting at `offset` of the collective's global index space. Gather,
/// broadcast, scatter and allgather use array offsets; alltoall uses
/// block ids (`src·p + dst`), whole blocks ([`CommSchedule::whole_blocks`]).
/// Two units with the same id carry the same data: receivers dedupe by id.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Role {
    /// One unit on the wire as `[offset, items…]`
    /// (`hbsp_collectives::data::Piece::encode`).
    Piece(UnitId),
    /// One or more units bundled as `[count, (offset, len, items…)…]`
    /// (`hbsp_collectives::data::encode_bundle`) — one message per link,
    /// not per origin.
    Bundle(Vec<UnitId>),
    /// The sender's current partial-reduction accumulator, raw `u32`s;
    /// the receiver folds it in with the schedule's reduction operator.
    Partial,
}

impl Role {
    /// The units the payload carries, in wire order (none for a partial).
    pub fn units(&self) -> &[UnitId] {
        match self {
            Role::Piece(uid) => std::slice::from_ref(uid),
            Role::Bundle(uids) => uids,
            Role::Partial => &[],
        }
    }
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

impl Transfer {
    /// `units` bundled from `src` to `dst`, charged the words they carry.
    pub fn bundle(src: ProcId, dst: ProcId, units: Vec<UnitId>) -> Self {
        let words = units.iter().map(|u| u.len as u64).sum();
        let role = Role::Bundle(units);
        Transfer {
            src,
            dst,
            words,
            role,
        }
    }
}

/// One scheduled superstep; the default is the final drain step.
#[derive(Debug, Clone, Default, PartialEq)]
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
        let scope = Some(scope);
        ScheduleStep {
            scope,
            ..Self::default()
        }
    }

    /// The final drain step: absorb-only, no barrier.
    pub fn drain() -> Self {
        Self::default()
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
    /// Per rank, true where its units are whole all-to-all blocks, matched
    /// by exact id only; ranks past the end hold ranges of one array.
    pub whole_blocks: Vec<bool>,
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

    /// True if `rank`'s units are whole blocks ([`CommSchedule::whole_blocks`]).
    pub fn holds_blocks(&self, rank: usize) -> bool {
        self.whole_blocks.get(rank) == Some(&true)
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
