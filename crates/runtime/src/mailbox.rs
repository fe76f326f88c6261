//! A mutex-guarded message batch exchanged by pointer swap.
//!
//! **No engine runs on this type any more.** It was the threaded
//! engine's delivery buffer while the barrier's leader copied every
//! message into its receiver's batch; receivers now pull their messages
//! straight out of the senders' outboxes (`engine.rs`), with no lock
//! and no second buffer. `Mailbox` stays exported because the frozen
//! `benchmark/src/api.rs` times `new` / `deposit_batch` / `take_into`
//! as `runtime.mailbox_roundtrip_ns` — a number that now prices this
//! type alone, to be retired by a later `benchmark` change — and keeps
//! the rest of its surface because its unit, stress and `hbsp-race`
//! tests exercise it.
//!
//! Depositor and drainer exchange whole [`MsgBatch`]es by swapping
//! buffers, so in steady state the same few allocations circulate.
//! Every lock here is poison-tolerant (`barrier::lock_anyway`): a peer
//! that panicked while a mailbox was locked must not cascade
//! `PoisonError` panics through the surviving threads.

use crate::barrier::lock_anyway;
use crate::sync::Mutex;
use hbsp_core::{Message, MsgBatch};

/// One processor's incoming-message buffer.
#[derive(Default)]
pub struct Mailbox {
    inbox: Mutex<MsgBatch>,
}

impl Mailbox {
    /// Empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Deposit a single message.
    pub fn deposit(&self, m: Message) {
        lock_anyway(&self.inbox).push(m.src, m.dst, m.tag, &m.payload);
    }

    /// Deposit a whole batch of messages, preserving their order, with
    /// a single lock acquisition. When the inbox was drained (the
    /// common case), the batch is *swapped* in — no message moves — and
    /// the caller gets the drained-but-capacitied old inbox back to
    /// refill. Otherwise the batch is appended and cleared (capacity
    /// kept).
    pub fn deposit_batch(&self, batch: &mut MsgBatch) {
        let mut inbox = lock_anyway(&self.inbox);
        if inbox.is_empty() {
            std::mem::swap(&mut *inbox, batch);
            batch.clear();
        } else {
            inbox.append(batch);
        }
    }

    /// Take the entire inbox by swapping it with `out` (which is
    /// cleared first): the caller's old buffer becomes the empty inbox,
    /// so the two batches circulate between drainer and depositor
    /// without ever reallocating in steady state.
    pub fn take_into(&self, out: &mut MsgBatch) {
        out.clear();
        std::mem::swap(&mut *lock_anyway(&self.inbox), out);
    }

    /// Take the entire inbox, leaving it empty.
    pub fn take(&self) -> MsgBatch {
        std::mem::take(&mut *lock_anyway(&self.inbox))
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        lock_anyway(&self.inbox).len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        lock_anyway(&self.inbox).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::ProcId;

    #[test]
    fn deposit_then_take_preserves_order() {
        let mb = Mailbox::new();
        for i in 0..5 {
            mb.deposit(Message::new(ProcId(i), ProcId(0), i, vec![i as u8]));
        }
        assert_eq!(mb.len(), 5);
        let msgs = mb.take();
        assert_eq!(msgs.len(), 5);
        assert!(msgs
            .iter()
            .enumerate()
            .all(|(i, m)| m.src == ProcId(i as u32)));
        assert!(mb.is_empty());
    }

    #[test]
    fn take_on_empty_is_empty() {
        let mb = Mailbox::new();
        assert!(mb.take().is_empty());
    }

    /// Poison audit: a thread that panics while holding a mailbox lock
    /// must not cascade `PoisonError` panics through survivors — every
    /// subsequent operation keeps working on the recovered inner state.
    #[test]
    fn poisoned_mailbox_stays_usable() {
        let mb = Mailbox::new();
        mb.deposit(Message::new(ProcId(0), ProcId(1), 0, vec![1]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mb.inbox.lock().unwrap();
            panic!("die while holding the mailbox lock");
        }));
        assert!(result.is_err());
        assert!(mb.inbox.is_poisoned(), "the mutex really was poisoned");
        assert_eq!(mb.len(), 1, "len survives poisoning");
        mb.deposit(Message::new(ProcId(2), ProcId(1), 0, vec![2]));
        let mut batch = MsgBatch::new();
        batch.push(ProcId(3), ProcId(1), 0, &[3]);
        mb.deposit_batch(&mut batch);
        let msgs = mb.take();
        assert_eq!(msgs.len(), 3, "deposits and takes survive poisoning");
        assert!(mb.is_empty());
    }

    #[test]
    fn batch_deposit_preserves_order_and_appends() {
        let mb = Mailbox::new();
        let mut batch = MsgBatch::new();
        for i in 0..3u32 {
            batch.push(ProcId(i), ProcId(0), i, &[]);
        }
        mb.deposit_batch(&mut batch);
        assert_eq!(mb.len(), 3);
        assert!(batch.is_empty(), "deposited batch is handed back empty");
        // A second batch lands after the first.
        for i in 3..5u32 {
            batch.push(ProcId(i), ProcId(0), i, &[]);
        }
        mb.deposit_batch(&mut batch);
        let msgs = mb.take();
        let srcs: Vec<u32> = msgs.iter().map(|m| m.src.0).collect();
        assert_eq!(srcs, vec![0, 1, 2, 3, 4]);
        assert!(mb.is_empty());
    }

    #[test]
    fn take_into_swaps_buffers() {
        let mb = Mailbox::new();
        mb.deposit(Message::new(ProcId(0), ProcId(1), 9, vec![7, 7, 7, 7]));
        let mut buf = MsgBatch::new();
        buf.push(ProcId(5), ProcId(5), 0, &[0]); // stale contents
        mb.take_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.get(0).tag, 9, "stale contents were cleared first");
        assert!(mb.is_empty());
    }
}
