//! The SPMD program abstraction shared by every execution engine.
//!
//! HBSP^k programs are *stepped* SPMD programs: every processor advances
//! through the same sequence of supersteps; within a superstep it
//! computes locally, sends messages, and reads the messages delivered at
//! the end of the *previous* superstep; each superstep ends with a
//! barrier at a chosen level of the machine (the paper's super^i-step).
//!
//! The two engines — `hbsp-sim`'s deterministic discrete-event simulator
//! and `hbsp-runtime`'s threaded runtime — both execute this trait, so
//! any program (including every collective in `hbsp-collectives`) runs
//! unchanged on either and can be cross-checked.

use crate::ids::{Level, ProcId};
use crate::tree::MachineTree;
use std::sync::Arc;

/// A message between two processors. The payload is raw bytes; the cost
/// model charges by 32-bit *words* ([`Message::words`]), matching the
/// paper's experiments on buffers of integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending processor.
    pub src: ProcId,
    /// Destination processor.
    pub dst: ProcId,
    /// Program-defined tag for demultiplexing.
    pub tag: u32,
    /// Raw payload.
    pub payload: Vec<u8>,
}

impl Message {
    /// Construct a message.
    pub fn new(src: ProcId, dst: ProcId, tag: u32, payload: Vec<u8>) -> Self {
        Message {
            src,
            dst,
            tag,
            payload,
        }
    }

    /// Number of 32-bit words charged by the cost model (at least 1 for
    /// a non-empty payload; 0 only for empty control messages).
    pub fn words(&self) -> u64 {
        (self.payload.len() as u64).div_ceil(4)
    }
}

/// Per-message routing row of a [`MsgBatch`]: everything about one
/// message except its payload bytes, which live at `[off, off + len)`
/// in the batch's shared byte arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MsgMeta {
    src: ProcId,
    dst: ProcId,
    tag: u32,
    off: u32,
    len: u32,
}

/// A borrowed view of one message inside a [`MsgBatch`].
///
/// This is what programs see when they iterate received messages: the
/// same `src`/`dst`/`tag`/`payload` shape as an owned [`Message`], but
/// with the payload borrowing the batch's arena instead of owning a
/// heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgView<'a> {
    /// Sending processor.
    pub src: ProcId,
    /// Destination processor.
    pub dst: ProcId,
    /// Program-defined tag for demultiplexing.
    pub tag: u32,
    /// Raw payload bytes, borrowed from the batch arena.
    pub payload: &'a [u8],
}

impl MsgView<'_> {
    /// Number of 32-bit words charged by the cost model (see
    /// [`Message::words`]).
    pub fn words(&self) -> u64 {
        (self.payload.len() as u64).div_ceil(4)
    }

    /// Copy into an owned [`Message`].
    pub fn to_message(&self) -> Message {
        Message::new(self.src, self.dst, self.tag, self.payload.to_vec())
    }
}

/// An appending writer over a message arena: what
/// [`SpmdContext::send_with`]'s `fill` writes a payload through. Each
/// method appends its values as little-endian bytes after those
/// written before — one pass per word, nothing zero-filled first.
#[derive(Debug)]
pub struct WireWriter<'a>(&'a mut Vec<u8>);

impl<'a> WireWriter<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        WireWriter(buf)
    }

    /// Append one 32-bit word.
    pub fn word(&mut self, w: u32) {
        self.0.extend(w.to_le_bytes());
    }

    /// Append `values` as 32-bit words.
    pub fn u32s(&mut self, values: &[u32]) {
        self.0.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Append `values` as 64-bit floats.
    pub fn f64s(&mut self, values: &[f64]) {
        self.0.extend(values.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// A `fill` that appended other than the payload length its sender
/// promised ([`MsgBatch::push_with`], [`SpmdContext::send_with`]). The
/// cost model charges the promised length, so the message is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillLength {
    /// The `len` the sender promised.
    pub promised: usize,
    /// The bytes `fill` appended.
    pub wrote: usize,
}

impl std::fmt::Display for FillLength {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "send_with promised {} payload bytes but fill wrote {}",
            self.promised, self.wrote
        )
    }
}

impl std::error::Error for FillLength {}

/// A flat struct-of-arrays batch of messages: one shared byte arena for
/// every payload plus an offset table of `MsgMeta` rows.
///
/// This is the engines' per-superstep message representation. Posting a
/// message appends bytes to the arena and one row to the table — no
/// per-message heap allocation — and receivers read a step's batches in
/// place through an [`Inbox`] of rows, so delivery moves no payload
/// byte. Batches are reused across supersteps via [`MsgBatch::clear`],
/// which keeps both allocations, so a steady-state superstep allocates
/// nothing on the message path.
#[derive(Debug, Clone, Default)]
pub struct MsgBatch {
    bytes: Vec<u8>,
    meta: Vec<MsgMeta>,
}

impl MsgBatch {
    /// Empty batch.
    pub fn new() -> Self {
        MsgBatch::default()
    }

    /// Empty batch with room for `msgs` messages carrying `bytes`
    /// payload bytes in total.
    pub fn with_capacity(msgs: usize, bytes: usize) -> Self {
        MsgBatch {
            bytes: Vec::with_capacity(bytes),
            meta: Vec::with_capacity(msgs),
        }
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True if the batch holds no messages.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Bytes currently used in the payload arena (holes left by
    /// [`MsgBatch::retain`] / [`MsgBatch::truncate_payload`] included).
    pub fn arena_len(&self) -> usize {
        self.bytes.len()
    }

    fn reserve_payload(&mut self, len: usize) -> u32 {
        let off = self.bytes.len();
        assert!(
            off + len <= u32::MAX as usize,
            "message batch arena exceeds u32 offsets"
        );
        off as u32
    }

    /// Append a message, copying `payload` into the arena.
    pub fn push(&mut self, src: ProcId, dst: ProcId, tag: u32, payload: &[u8]) {
        let off = self.reserve_payload(payload.len());
        self.bytes.extend_from_slice(payload);
        self.meta.push(MsgMeta {
            src,
            dst,
            tag,
            off,
            len: payload.len() as u32,
        });
    }

    /// Append a message whose `len` payload bytes `fill` appends
    /// through a [`WireWriter`] over the arena — each byte written once,
    /// with no zero-fill and no temporary buffer.
    ///
    /// A `fill` that appends other than exactly `len` bytes posts
    /// nothing: the arena is cut back, the batch holds what it held
    /// before, and the mismatch comes back as a [`FillLength`].
    pub fn push_with(
        &mut self,
        src: ProcId,
        dst: ProcId,
        tag: u32,
        len: usize,
        fill: &mut dyn FnMut(&mut WireWriter<'_>),
    ) -> Result<(), FillLength> {
        let off = self.reserve_payload(len);
        self.bytes.reserve(len);
        fill(&mut WireWriter(&mut self.bytes));
        let wrote = self.bytes.len() - off as usize;
        if wrote != len {
            self.bytes.truncate(off as usize);
            return Err(FillLength {
                promised: len,
                wrote,
            });
        }
        self.meta.push(MsgMeta {
            src,
            dst,
            tag,
            off,
            len: len as u32,
        });
        Ok(())
    }

    /// Append a copy of an owned [`Message`].
    pub fn push_msg(&mut self, m: &Message) {
        self.push(m.src, m.dst, m.tag, &m.payload);
    }

    /// View of message `i` (insertion order).
    pub fn get(&self, i: usize) -> MsgView<'_> {
        let m = &self.meta[i];
        MsgView {
            src: m.src,
            dst: m.dst,
            tag: m.tag,
            payload: &self.bytes[m.off as usize..(m.off + m.len) as usize],
        }
    }

    /// Iterate the messages in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MsgView<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Drop every message but keep both allocations for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.meta.clear();
    }

    /// Move every message of `other` onto the end of `self` (two bulk
    /// appends, no per-message loop), leaving `other` empty with its
    /// capacity intact.
    pub fn append(&mut self, other: &mut MsgBatch) {
        if self.is_empty() && self.bytes.is_empty() {
            std::mem::swap(self, other);
            other.clear();
            return;
        }
        let shift = self.reserve_payload(other.bytes.len());
        self.bytes.extend_from_slice(&other.bytes);
        self.meta.extend(other.meta.iter().map(|m| MsgMeta {
            off: m.off + shift,
            ..*m
        }));
        other.clear();
    }

    /// An empty batch with room for `times` as many messages and payload
    /// bytes as `self` has room for: one allocation per table, however
    /// many doublings `self` took to grow.
    pub fn empty_like(&self, times: usize) -> MsgBatch {
        MsgBatch::with_capacity(times * self.meta.capacity(), times * self.bytes.capacity())
    }

    /// Payload bytes the arena holds without reallocating.
    pub fn arena_capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Keep only the messages `f` accepts, preserving order. Payload
    /// bytes of dropped messages stay in the arena as holes until the
    /// next [`MsgBatch::clear`] — removal is an offset-table edit, not
    /// a compaction.
    pub fn retain(&mut self, mut f: impl FnMut(MsgView<'_>) -> bool) {
        let bytes = &self.bytes;
        self.meta.retain(|m| {
            f(MsgView {
                src: m.src,
                dst: m.dst,
                tag: m.tag,
                payload: &bytes[m.off as usize..(m.off + m.len) as usize],
            })
        });
    }

    /// Cut message `i`'s payload to at most `max_bytes` (fault
    /// injection's truncation). An offset-table edit: the spare bytes
    /// become an arena hole. A bound past `u32::MAX` is past any
    /// payload a batch can hold, so it clamps instead of wrapping.
    pub fn truncate_payload(&mut self, i: usize, max_bytes: usize) {
        let m = &mut self.meta[i];
        m.len = m.len.min(u32::try_from(max_bytes).unwrap_or(u32::MAX));
    }

    /// Copies of every message, in order (test/diagnostic convenience).
    pub fn to_messages(&self) -> Vec<Message> {
        self.iter().map(|v| v.to_message()).collect()
    }
}

impl<'a> IntoIterator for &'a MsgBatch {
    type Item = MsgView<'a>;
    type IntoIter = MsgBatchIter<'a>;
    fn into_iter(self) -> MsgBatchIter<'a> {
        MsgBatchIter { batch: self, i: 0 }
    }
}

/// Iterator over a [`MsgBatch`]'s messages.
pub struct MsgBatchIter<'a> {
    batch: &'a MsgBatch,
    i: usize,
}

impl<'a> Iterator for MsgBatchIter<'a> {
    type Item = MsgView<'a>;
    fn next(&mut self) -> Option<MsgView<'a>> {
        if self.i < self.batch.len() {
            self.i += 1;
            Some(self.batch.get(self.i - 1))
        } else {
            None
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.batch.len() - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for MsgBatchIter<'_> {}

/// Logical equality: same messages in the same order (arena holes and
/// capacities are representation details).
impl PartialEq for MsgBatch {
    fn eq(&self, other: &MsgBatch) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for MsgBatch {}

impl FromIterator<Message> for MsgBatch {
    fn from_iter<T: IntoIterator<Item = Message>>(iter: T) -> MsgBatch {
        let mut b = MsgBatch::new();
        for m in iter {
            b.push_msg(&m);
        }
        b
    }
}

/// One processor's delivered messages, read in place: a list of `(src
/// rank, index)` rows into the batches the senders posted, in delivery
/// order. Nothing is copied to deliver a message — each item is a
/// [`MsgView`] borrowing the sender's arena — so a posted byte is
/// written once, by its sender, and read where it lies.
///
/// Engines build one per superstep body (see
/// [`SpmdContext::messages`]); it is `Copy`, and iterating it by value
/// or by reference reads the same rows.
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a> {
    rows: &'a [(u32, u32)],
    posted: Posted<'a>,
}

/// Where an [`Inbox`]'s rows point.
#[derive(Debug, Clone, Copy)]
enum Posted<'a> {
    /// One batch holds every sender's posts; a row's index is into it.
    Shared(&'a MsgBatch),
    /// `[src]` is sender `src`'s own batch; a row's index is into that.
    PerSender(&'a [&'a MsgBatch]),
}

impl<'a> Inbox<'a> {
    /// Rows into one batch every sender posted into: row `(src, k)` is
    /// `batch.get(k)`, which `src` posted.
    pub fn shared(batch: &'a MsgBatch, rows: &'a [(u32, u32)]) -> Inbox<'a> {
        Inbox {
            rows,
            posted: Posted::Shared(batch),
        }
    }

    /// Rows into per-sender batches: row `(src, k)` is
    /// `outboxes[src].get(k)`.
    pub fn per_sender(outboxes: &'a [&'a MsgBatch], rows: &'a [(u32, u32)]) -> Inbox<'a> {
        Inbox {
            rows,
            posted: Posted::PerSender(outboxes),
        }
    }

    /// Number of delivered messages.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// View of message `i` (delivery order), borrowing its sender's
    /// arena.
    pub fn get(&self, i: usize) -> MsgView<'a> {
        let (src, k) = self.rows[i];
        match self.posted {
            Posted::Shared(batch) => batch.get(k as usize),
            Posted::PerSender(outboxes) => outboxes[src as usize].get(k as usize),
        }
    }

    /// Iterate the messages in delivery order.
    pub fn iter(&self) -> InboxIter<'a> {
        InboxIter { inbox: *self, i: 0 }
    }

    /// Copies of every message, in order (test/diagnostic convenience).
    pub fn to_messages(&self) -> Vec<Message> {
        self.iter().map(|v| v.to_message()).collect()
    }
}

impl<'a> IntoIterator for Inbox<'a> {
    type Item = MsgView<'a>;
    type IntoIter = InboxIter<'a>;
    fn into_iter(self) -> InboxIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Inbox<'a> {
    type Item = MsgView<'a>;
    type IntoIter = InboxIter<'a>;
    fn into_iter(self) -> InboxIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]'s messages.
pub struct InboxIter<'a> {
    inbox: Inbox<'a>,
    i: usize,
}

impl<'a> Iterator for InboxIter<'a> {
    type Item = MsgView<'a>;
    fn next(&mut self) -> Option<MsgView<'a>> {
        if self.i < self.inbox.len() {
            self.i += 1;
            Some(self.inbox.get(self.i - 1))
        } else {
            None
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inbox.len() - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for InboxIter<'_> {}

/// Where a superstep's closing barrier synchronizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncScope {
    /// Barrier every level-`i` cluster independently: each cluster pays
    /// its own `L_{i,j}` and its members continue as soon as *their*
    /// cluster is done. `Level(k)` is a global barrier. Messages sent in
    /// a step that ends with `Level(i)` must stay within a level-`i`
    /// cluster — the engines reject cross-cluster sends because their
    /// delivery time would be undefined.
    Level(Level),
}

impl SyncScope {
    /// Global barrier of machine `tree` (level `k`).
    pub fn global(tree: &MachineTree) -> SyncScope {
        SyncScope::Level(tree.height())
    }

    /// The level of the barrier.
    pub fn level(self) -> Level {
        match self {
            SyncScope::Level(l) => l,
        }
    }
}

/// What a processor wants after finishing a superstep body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Synchronize at the given scope and run another superstep.
    Continue(SyncScope),
    /// This processor is finished. All processors must return `Done` at
    /// the same superstep (SPMD discipline; the engines verify this).
    Done,
}

/// Immutable per-processor environment handed to programs.
#[derive(Debug, Clone)]
pub struct ProcEnv {
    /// This processor's rank.
    pub pid: ProcId,
    /// Total number of processors.
    pub nprocs: usize,
    /// The machine being executed on.
    pub tree: Arc<MachineTree>,
}

impl ProcEnv {
    /// Relative compute speed of this processor (1 = fastest).
    pub fn speed(&self) -> f64 {
        self.tree.leaf(self.pid).params().speed
    }

    /// Relative communication slowness `r` of this processor.
    pub fn r(&self) -> f64 {
        self.tree.leaf(self.pid).params().r
    }

    /// True if this processor is the machine-wide fastest (the paper's
    /// `P_f`, the root coordinator's representative).
    pub fn is_fastest(&self) -> bool {
        self.tree.fastest_proc() == self.pid
    }
}

/// The mutable superstep context: message I/O and work accounting.
///
/// Object-safe so engines can hand out their own implementations.
pub trait SpmdContext {
    /// This processor's rank.
    fn pid(&self) -> ProcId;

    /// Total processors.
    fn nprocs(&self) -> usize;

    /// The machine.
    fn tree(&self) -> &MachineTree;

    /// Messages delivered at the end of the previous superstep, in
    /// deterministic (arrival, src) order. Borrowed in place from the
    /// batches their senders posted into — no engine copies a payload to
    /// deliver it — so the view, and every payload slice read through
    /// it, is valid for the rest of this superstep body and no longer.
    fn messages(&self) -> Inbox<'_>;

    /// Queue a message for delivery at the start of the next superstep
    /// (the BSP guarantee). Sending to self is a local move: delivered,
    /// but free of communication cost. The payload is copied into the
    /// engine's outgoing batch arena — no per-message allocation: this
    /// is [`SpmdContext::send_with`] appending `payload`.
    fn send(&mut self, dst: ProcId, tag: u32, payload: &[u8]) {
        self.send_with(dst, tag, payload.len(), &mut |w| w.bytes(payload));
    }

    /// Queue a message of `len` payload bytes that `fill` appends to
    /// the engine's batch arena through a [`WireWriter`] (`word`,
    /// `u32s`, `f64s`, `bytes`) — so a sender encodes straight from its
    /// own data, writing each word once, with no intermediate `Vec` and
    /// no zero-filled buffer to overwrite.
    ///
    /// `len` is what the cost model charges, so it must be what `fill`
    /// writes. A `fill` that appends fewer or more bytes posts nothing
    /// ([`FillLength`]), and both engines fail the run with that rank's
    /// `ProgramPanicked` for the step: the threaded runtime panics in
    /// the body, the simulator stops once the body returns.
    fn send_with(
        &mut self,
        dst: ProcId,
        tag: u32,
        len: usize,
        fill: &mut dyn FnMut(&mut WireWriter<'_>),
    );

    /// Charge `units` of local computation (units are at fastest-machine
    /// speed; engines divide by this processor's speed).
    fn charge(&mut self, units: f64);
}

/// A static pre-flight rejection: the program proved, before running a
/// single superstep, that it would panic, hang a barrier, or
/// mis-deliver on the given machine.
///
/// Each entry is one rendered violation (see `hbsp-check`'s typed
/// `Violation` for the structured form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreflightError {
    /// The fatal findings, in schedule order.
    pub violations: Vec<String>,
}

impl std::fmt::Display for PreflightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "preflight found {} fatal violation(s): ",
            self.violations.len()
        )?;
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PreflightError {}

/// A stepped SPMD program.
///
/// `State` is the per-processor local state threaded through supersteps.
pub trait SpmdProgram: Sync {
    /// Per-processor state.
    type State: Send;

    /// Create processor-local state before the first superstep.
    fn init(&self, env: &ProcEnv) -> Self::State;

    /// Execute superstep `step` on one processor. Read received
    /// messages, compute, send; then request the closing barrier scope
    /// or finish.
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut Self::State,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome;

    /// Statically verify this program against `tree` before execution.
    ///
    /// Engines call this at submit time (on by default in debug builds,
    /// toggled with their `.check(bool)` builders) so malformed
    /// programs fail loudly instead of hanging a barrier mid-run.
    /// Programs whose communication is a data structure (like
    /// `hbsp-collectives`' `ScheduleProgram`) override this with a real
    /// analysis; the default accepts, because an opaque step function
    /// cannot be checked without running it.
    fn preflight(&self, tree: &MachineTree) -> Result<(), PreflightError> {
        let _ = tree;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    #[test]
    fn message_words_round_up() {
        let m = Message::new(ProcId(0), ProcId(1), 0, vec![0; 5]);
        assert_eq!(m.words(), 2);
        let empty = Message::new(ProcId(0), ProcId(1), 0, vec![]);
        assert_eq!(empty.words(), 0);
        let exact = Message::new(ProcId(0), ProcId(1), 0, vec![0; 8]);
        assert_eq!(exact.words(), 2);
    }

    #[test]
    fn batch_push_get_iter_round_trip() {
        let mut b = MsgBatch::new();
        b.push(ProcId(0), ProcId(1), 7, &[1, 2, 3]);
        b.push(ProcId(2), ProcId(0), 9, &[]);
        b.push_with(ProcId(1), ProcId(2), 3, 4, &mut |w| w.word(42))
            .unwrap();
        assert_eq!(b.len(), 3);
        let v = b.get(0);
        assert_eq!(
            (v.src, v.dst, v.tag, v.payload),
            (ProcId(0), ProcId(1), 7, &[1u8, 2, 3][..])
        );
        assert_eq!(v.words(), 1);
        assert_eq!(b.get(1).payload, &[] as &[u8]);
        assert_eq!(b.get(2).payload, 42u32.to_le_bytes());
        let tags: Vec<u32> = b.iter().map(|m| m.tag).collect();
        assert_eq!(tags, vec![7, 9, 3]);
        // `for m in &batch` works like the old slice iteration.
        let mut n = 0;
        for m in &b {
            n += m.payload.len();
        }
        assert_eq!(n, 7);
    }

    #[test]
    fn batch_clear_keeps_capacity_and_append_bulk_moves() {
        let mut a = MsgBatch::new();
        a.push(ProcId(0), ProcId(1), 0, &[1; 64]);
        a.clear();
        assert!(a.is_empty() && a.arena_len() == 0);

        let mut gather = MsgBatch::new();
        let mut b = MsgBatch::new();
        b.push(ProcId(0), ProcId(1), 1, &[0xAA; 8]);
        let mut c = MsgBatch::new();
        c.push(ProcId(1), ProcId(0), 2, &[0xBB; 4]);
        c.push(ProcId(1), ProcId(1), 3, &[0xCC; 2]);
        gather.append(&mut b);
        gather.append(&mut c);
        assert!(b.is_empty() && c.is_empty());
        assert_eq!(gather.len(), 3);
        // Offsets were shifted: payloads survive the bulk move intact.
        assert_eq!(gather.get(1).payload, &[0xBB; 4]);
        assert_eq!(gather.get(2).payload, &[0xCC; 2]);
    }

    /// `empty_like(2)` is the simulator's per-run arena: empty, with
    /// room for twice the messages and bytes of the batch it is built
    /// from, so two of its steps fit without a reallocation.
    #[test]
    fn batch_empty_like_scales_both_tables() {
        let mut a = MsgBatch::new();
        for i in 0..5 {
            a.push(ProcId(0), ProcId(1), i, &[7; 100]);
        }
        let (msgs, bytes) = (a.meta.capacity(), a.arena_capacity());
        let mut b = a.empty_like(2);
        assert!(b.is_empty() && b.arena_len() == 0);
        assert!(b.meta.capacity() >= 2 * msgs && b.arena_capacity() >= 2 * bytes);
        let (room, rows) = (b.arena_capacity(), b.meta.capacity());
        for _ in 0..2 {
            for m in a.iter() {
                b.push(m.src, m.dst, m.tag, m.payload);
            }
        }
        assert_eq!((b.arena_capacity(), b.meta.capacity()), (room, rows));
        assert_eq!(MsgBatch::new().empty_like(2).arena_capacity(), 0);
    }

    #[test]
    fn batch_retain_and_truncate_edit_the_offset_table() {
        let mut b = MsgBatch::new();
        b.push(ProcId(0), ProcId(1), 0, &[1; 8]);
        b.push(ProcId(1), ProcId(1), 0, &[2; 8]);
        b.push(ProcId(2), ProcId(1), 0, &[3; 8]);
        b.retain(|m| m.src != ProcId(1));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(1).payload, &[3; 8]);
        b.truncate_payload(0, 4);
        assert_eq!(b.get(0).payload, &[1; 4]);
        assert_eq!(b.get(0).words(), 1);
        // Truncating longer than the payload is a no-op.
        b.truncate_payload(1, 1000);
        assert_eq!(b.get(1).payload.len(), 8);
        // Logical equality ignores the arena holes left behind.
        let mut fresh = MsgBatch::new();
        fresh.push(ProcId(0), ProcId(1), 0, &[1; 4]);
        fresh.push(ProcId(2), ProcId(1), 0, &[3; 8]);
        assert_eq!(b, fresh);
    }

    /// `push` copies a payload in; `push_with` appends it through the
    /// writer: same batch, byte for byte.
    #[test]
    fn push_and_push_with_build_the_same_batch() {
        let payloads: [&[u8]; 4] = [&[], &[1], &[2; 7], &[3; 64]];
        let (mut pushed, mut written) = (MsgBatch::new(), MsgBatch::new());
        for (i, payload) in payloads.into_iter().enumerate() {
            let (src, dst, tag) = (ProcId(i as u32), ProcId(3 - i as u32), 10 + i as u32);
            pushed.push(src, dst, tag, payload);
            written
                .push_with(src, dst, tag, payload.len(), &mut |w| w.bytes(payload))
                .unwrap();
        }
        assert_eq!(pushed, written);
        assert_eq!(pushed.arena_len(), written.arena_len());
    }

    #[test]
    fn the_writer_appends_little_endian_words() {
        let mut out = vec![0xEE];
        let mut w = WireWriter::new(&mut out);
        w.word(0x0403_0201);
        w.u32s(&[5, 0x0908_0706]);
        w.f64s(&[1.5]);
        w.bytes(&[0xAB]);
        let mut want = vec![0xEE, 1, 2, 3, 4, 5, 0, 0, 0, 6, 7, 8, 9];
        want.extend(1.5f64.to_le_bytes());
        want.push(0xAB);
        assert_eq!(out, want);
    }

    /// A `fill` that writes other than its promised `len` is refused
    /// with both lengths, and leaves the batch as it was: the cost model
    /// charges `len`.
    #[test]
    fn a_fill_that_breaks_its_length_fails_loudly() {
        for (len, wrote) in [(8, 4), (4, 8), (0, 1), (4, 0)] {
            let mut b = MsgBatch::new();
            b.push(ProcId(0), ProcId(1), 1, &[7; 3]);
            let before = b.clone();
            let err = b
                .push_with(ProcId(0), ProcId(1), 2, len, &mut |w| {
                    w.bytes(&vec![9; wrote])
                })
                .unwrap_err();
            assert_eq!(
                err,
                FillLength {
                    promised: len,
                    wrote
                }
            );
            assert_eq!(
                err.to_string(),
                format!("send_with promised {len} payload bytes but fill wrote {wrote}")
            );
            assert_eq!((&b, b.arena_len()), (&before, before.arena_len()));
        }
    }

    /// Regression: the bound used to be narrowed with `as u32`, so
    /// 2^32 bytes wrapped to 0 and wiped the payload.
    #[test]
    fn truncating_past_u32_leaves_the_payload_whole() {
        let mut b = MsgBatch::new();
        b.push(ProcId(0), ProcId(1), 0, &[7; 16]);
        for max_bytes in [1 << 32, (1 << 32) + 3, usize::MAX] {
            b.truncate_payload(0, max_bytes);
            assert_eq!(b.get(0).payload, &[7; 16], "max_bytes {max_bytes}");
        }
    }

    /// `get`, `iter`, both `IntoIterator`s and `to_messages` read the
    /// same messages in the same order.
    fn assert_reads_agree(inbox: Inbox<'_>, want: &[Message]) {
        assert_eq!(
            (inbox.len(), inbox.is_empty()),
            (want.len(), want.is_empty())
        );
        let got: Vec<Message> = (0..inbox.len())
            .map(|i| inbox.get(i).to_message())
            .collect();
        assert_eq!(got, want, "get");
        assert_eq!(inbox.to_messages(), want, "to_messages");
        let iter: Vec<Message> = inbox.iter().map(|m| m.to_message()).collect();
        assert_eq!(iter, want, "iter");
        assert_eq!(inbox.iter().len(), want.len());
        let by_ref: Vec<Message> = (&inbox).into_iter().map(|m| m.to_message()).collect();
        let mut by_value = Vec::new();
        for m in inbox {
            by_value.push(m.to_message());
        }
        assert_eq!((by_ref, by_value), (want.to_vec(), want.to_vec()));
    }

    #[test]
    fn empty_inbox_reads_nothing() {
        assert_reads_agree(Inbox::per_sender(&[], &[]), &[]);
        let batch: MsgBatch = [Message::new(ProcId(0), ProcId(1), 1, vec![1])]
            .into_iter()
            .collect();
        assert_reads_agree(Inbox::shared(&batch, &[]), &[]);
        assert_reads_agree(Inbox::per_sender(&[&batch], &[]), &[]);
    }

    #[test]
    fn inbox_rows_read_one_shared_batch_in_row_order() {
        let mut batch = MsgBatch::new();
        batch.push(ProcId(0), ProcId(2), 5, &[9, 9]);
        batch.push(ProcId(1), ProcId(0), 6, &[8]);
        batch.push(ProcId(1), ProcId(2), 7, &[]);
        // P2's rows, latest-posted first: delivery order is the rows'.
        let rows = [(1, 2), (0, 0)];
        let inbox = Inbox::shared(&batch, &rows);
        assert_reads_agree(
            inbox,
            &[
                Message::new(ProcId(1), ProcId(2), 7, vec![]),
                Message::new(ProcId(0), ProcId(2), 5, vec![9, 9]),
            ],
        );
        // In place: the payload is the batch's own bytes.
        assert!(std::ptr::eq(inbox.get(1).payload, batch.get(0).payload));
    }

    #[test]
    fn inbox_rows_read_many_senders_batches() {
        let outbox = |src: u32, tags: &[u32]| -> MsgBatch {
            let mut b = MsgBatch::new();
            for &tag in tags {
                b.push(ProcId(src), ProcId(3), tag, &[src as u8; 3]);
            }
            b
        };
        let (p0, p1, p2) = (outbox(0, &[10, 11]), outbox(1, &[]), outbox(2, &[20]));
        let outboxes = [&p0, &p1, &p2];
        let one = [(2, 0)];
        assert_reads_agree(
            Inbox::per_sender(&outboxes, &one),
            &[Message::new(ProcId(2), ProcId(3), 20, vec![2; 3])],
        );
        let many = [(0, 1), (2, 0), (0, 0)];
        assert_reads_agree(
            Inbox::per_sender(&outboxes, &many),
            &[
                Message::new(ProcId(0), ProcId(3), 11, vec![0; 3]),
                Message::new(ProcId(2), ProcId(3), 20, vec![2; 3]),
                Message::new(ProcId(0), ProcId(3), 10, vec![0; 3]),
            ],
        );
    }

    #[test]
    fn an_inbox_row_into_a_truncated_message_reads_the_cut_payload() {
        let mut batch = MsgBatch::new();
        batch.push(ProcId(0), ProcId(1), 1, &[1, 2, 3, 4, 5, 6, 7, 8]);
        batch.push(ProcId(0), ProcId(1), 2, &[9; 4]);
        batch.truncate_payload(0, 4);
        batch.truncate_payload(1, 0);
        let rows = [(0, 0), (0, 1)];
        for inbox in [
            Inbox::shared(&batch, &rows),
            Inbox::per_sender(&[&batch], &rows),
        ] {
            assert_reads_agree(
                inbox,
                &[
                    Message::new(ProcId(0), ProcId(1), 1, vec![1, 2, 3, 4]),
                    Message::new(ProcId(0), ProcId(1), 2, vec![]),
                ],
            );
            assert_eq!(inbox.get(0).words(), 1);
        }
    }

    #[test]
    fn global_scope_is_tree_height() {
        let t = TreeBuilder::two_level(
            1.0,
            1.0,
            &[(1.0, vec![(1.0, 1.0)]), (1.0, vec![(2.0, 0.5)])],
        )
        .unwrap();
        assert_eq!(SyncScope::global(&t), SyncScope::Level(2));
        assert_eq!(SyncScope::Level(1).level(), 1);
    }

    #[test]
    fn proc_env_queries() {
        let t = Arc::new(TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
        let env = ProcEnv {
            pid: ProcId(1),
            nprocs: 2,
            tree: Arc::clone(&t),
        };
        assert_eq!(env.speed(), 0.5);
        assert_eq!(env.r(), 2.0);
        assert!(!env.is_fastest());
        let env0 = ProcEnv {
            pid: ProcId(0),
            nprocs: 2,
            tree: t,
        };
        assert!(env0.is_fastest());
    }
}
