//! DRMA-style remote memory access, BSPlib's `bsp_put` / `bsp_get`.
//!
//! BSPlib programs may register memory and write into (or read from)
//! other processors' registered regions; all accesses take effect at
//! the next synchronization. HBSPlib "incorporates many of the
//! functions contained in BSPlib", so this module provides the same
//! surface on top of the message-passing substrate:
//!
//! * [`Region::put`] — write `values` into a remote region at `offset`;
//!   visible on the target after the next sync (apply incoming puts
//!   with [`Region::apply`] at the top of the following superstep).
//!   Overlapping puts resolve deterministically in delivery order
//!   (last writer wins), matching BSPlib's in-order put semantics.
//! * [`Region::get`] — request a remote slice. The request travels one
//!   superstep, the serving processor answers from the *value at the
//!   time it applies the request*, and the reply travels one more
//!   superstep: the value is available **two** syncs after the request
//!   (one more than native BSPlib, which fetches inside the sync —
//!   over a message-passing substrate like PVM the round trip is
//!   explicit; the paper's library has the same structure underneath).
//!
//! All traffic is charged to the cost model like any other message.

use crate::codec;
use hbsp_core::{ProcId, SpmdContext};

/// Tag for put traffic.
const TAG_PUT: u32 = 0x44_52_01;
/// Tag for get requests.
const TAG_GET_REQ: u32 = 0x44_52_02;
/// Tag for get replies.
const TAG_GET_REP: u32 = 0x44_52_03;

/// A completed `get`: the requested slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetReply {
    /// The caller-chosen token identifying the request.
    pub token: u32,
    /// The processor the data came from.
    pub src: ProcId,
    /// The requested values.
    pub values: Vec<u32>,
}

/// A registered region of `u32` words, with BSP-synchronized remote
/// access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    data: Vec<u32>,
}

impl Region {
    /// Register a region with initial contents.
    pub fn new(data: Vec<u32>) -> Self {
        Region { data }
    }

    /// Register a zeroed region of `len` words.
    pub fn zeroed(len: usize) -> Self {
        Region { data: vec![0; len] }
    }

    /// Local read access.
    pub fn data(&self) -> &[u32] {
        &self.data
    }

    /// Local write access (local writes need no synchronization).
    pub fn data_mut(&mut self) -> &mut [u32] {
        &mut self.data
    }

    /// Length in words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the region is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Queue a write of `values` into `dst`'s region at `offset`.
    /// Takes effect on the target after the next sync, once the target
    /// calls [`Region::apply`].
    pub fn put(ctx: &mut dyn SpmdContext, dst: ProcId, offset: usize, values: &[u32]) {
        // Header word (the offset) plus the values, appended straight
        // to the outbox arena — no temporary buffer.
        ctx.send_with(dst, TAG_PUT, (values.len() + 1) * 4, &mut |w| {
            w.word(offset as u32);
            w.u32s(values);
        });
    }

    /// Request `len` words from `src`'s region at `offset`. The reply
    /// arrives two syncs later, carrying `token`.
    pub fn get(ctx: &mut dyn SpmdContext, src: ProcId, offset: usize, len: usize, token: u32) {
        ctx.send_with(src, TAG_GET_REQ, 12, &mut |w| {
            w.u32s(&[token, offset as u32, len as u32])
        });
    }

    /// Process this superstep's incoming DRMA traffic: apply puts to
    /// the local region (in delivery order — last writer wins), answer
    /// get requests from the current contents, and return any completed
    /// get replies.
    ///
    /// Call once at the top of every superstep body, before reading the
    /// region.
    ///
    /// # Panics
    /// Panics if a put or get addresses out-of-range words — remote
    /// memory corruption is a program bug, not a recoverable condition.
    pub fn apply(&mut self, ctx: &mut dyn SpmdContext) -> Vec<GetReply> {
        let mut replies = Vec::new();
        let mut requests: Vec<(ProcId, u32, usize, usize)> = Vec::new();
        for m in ctx.messages() {
            match m.tag {
                TAG_PUT => {
                    let words = codec::decode_u32s(m.payload);
                    let offset = words[0] as usize;
                    let values = &words[1..];
                    assert!(
                        offset + values.len() <= self.data.len(),
                        "put from {} writes {}..{} past region of {}",
                        m.src,
                        offset,
                        offset + values.len(),
                        self.data.len()
                    );
                    self.data[offset..offset + values.len()].copy_from_slice(values);
                }
                TAG_GET_REQ => {
                    let words = codec::decode_u32s(m.payload);
                    let (token, offset, len) = (words[0], words[1] as usize, words[2] as usize);
                    assert!(
                        offset + len <= self.data.len(),
                        "get from {} reads {}..{} past region of {}",
                        m.src,
                        offset,
                        offset + len,
                        self.data.len()
                    );
                    requests.push((m.src, token, offset, len));
                }
                TAG_GET_REP => {
                    let words = codec::decode_u32s(m.payload);
                    replies.push(GetReply {
                        token: words[0],
                        src: m.src,
                        values: words[1..].to_vec(),
                    });
                }
                _ => {} // not DRMA traffic; the program handles it
            }
        }
        // Answer requests after all puts applied (a get issued in the
        // same superstep as a put to the same words sees the put — the
        // BSPlib ordering).
        for (requester, token, offset, len) in requests {
            let served = &self.data[offset..offset + len];
            ctx.send_with(requester, TAG_GET_REP, (len + 1) * 4, &mut |w| {
                w.word(token);
                w.u32s(served);
            });
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClosureProgram, Executor};
    use hbsp_core::{ProcEnv, StepOutcome, SyncScope, TreeBuilder};
    use std::sync::Arc;

    fn machine(p: usize) -> Arc<hbsp_core::MachineTree> {
        let procs: Vec<(f64, f64)> = (0..p)
            .map(|i| (1.0 + i as f64, 1.0 / (1.0 + i as f64)))
            .collect();
        Arc::new(TreeBuilder::flat(1.0, 10.0, &procs).unwrap())
    }

    #[test]
    fn put_is_visible_after_sync() {
        // Every processor puts its pid into slot `pid` of processor 0's
        // region.
        let tree = machine(4);
        let prog = ClosureProgram::new(
            |_env: &ProcEnv| Region::zeroed(4),
            |step, env, region: &mut Region, ctx| {
                let replies = region.apply(ctx);
                assert!(replies.is_empty());
                match step {
                    0 => {
                        Region::put(
                            ctx,
                            hbsp_core::ProcId(0),
                            env.pid.rank(),
                            &[env.pid.0 + 100],
                        );
                        StepOutcome::Continue(SyncScope::global(&env.tree))
                    }
                    _ => StepOutcome::Done,
                }
            },
        );
        let (_, regions) = Executor::simulator(tree).run(&prog).unwrap();
        assert_eq!(regions[0].data(), &[100, 101, 102, 103]);
        assert_eq!(regions[1].data(), &[0, 0, 0, 0], "only P0 was written");
    }

    #[test]
    fn get_round_trips_in_two_syncs() {
        // P1 gets P0's slice; the reply arrives at step 2.
        let tree = machine(2);
        let prog = ClosureProgram::new(
            |env: &ProcEnv| {
                let base = if env.pid.0 == 0 {
                    vec![7, 8, 9, 10]
                } else {
                    vec![0; 4]
                };
                (Region::new(base), Vec::<GetReply>::new())
            },
            |step, env, state: &mut (Region, Vec<GetReply>), ctx| {
                let replies = state.0.apply(ctx);
                state.1.extend(replies);
                match step {
                    0 => {
                        if env.pid.0 == 1 {
                            Region::get(ctx, hbsp_core::ProcId(0), 1, 2, 42);
                        }
                        StepOutcome::Continue(SyncScope::global(&env.tree))
                    }
                    1 => StepOutcome::Continue(SyncScope::global(&env.tree)),
                    _ => StepOutcome::Done,
                }
            },
        );
        let (_, states) = Executor::simulator(tree).run(&prog).unwrap();
        assert_eq!(
            states[1].1,
            vec![GetReply {
                token: 42,
                src: hbsp_core::ProcId(0),
                values: vec![8, 9]
            }]
        );
        assert!(states[0].1.is_empty());
    }

    #[test]
    fn overlapping_puts_are_deterministic() {
        // All processors put to the same slot; delivery order (and so
        // the winner) is deterministic across runs and engines.
        let _tree = machine(4);
        let prog = ClosureProgram::new(
            |_env: &ProcEnv| Region::zeroed(1),
            |step, env, region: &mut Region, ctx| {
                region.apply(ctx);
                match step {
                    0 => {
                        if env.pid.0 != 0 {
                            Region::put(ctx, hbsp_core::ProcId(0), 0, &[env.pid.0]);
                        }
                        StepOutcome::Continue(SyncScope::global(&env.tree))
                    }
                    _ => StepOutcome::Done,
                }
            },
        );
        let (_, a) = Executor::simulator(Arc::clone(&machine(4)))
            .run(&prog)
            .unwrap();
        let (_, b) = Executor::simulator(Arc::clone(&machine(4)))
            .run(&prog)
            .unwrap();
        let (_, c) = Executor::threads(machine(4)).run(&prog).unwrap();
        assert_eq!(a[0].data(), b[0].data());
        assert_eq!(a[0].data(), c[0].data());
        assert!(a[0].data()[0] != 0, "someone's put landed");
    }

    #[test]
    fn get_sees_same_superstep_put() {
        // P1 puts into P0 at step 0; P2 gets the same word at step 0.
        // Both messages are applied by P0 at step 1 — puts first — so
        // the get reply (arriving at P2 in step 2) sees the put.
        let tree = machine(3);
        let prog = ClosureProgram::new(
            |_env: &ProcEnv| (Region::zeroed(1), Vec::<GetReply>::new()),
            |step, env, state: &mut (Region, Vec<GetReply>), ctx| {
                let replies = state.0.apply(ctx);
                state.1.extend(replies);
                match step {
                    0 => {
                        match env.pid.0 {
                            1 => Region::put(ctx, hbsp_core::ProcId(0), 0, &[77]),
                            2 => Region::get(ctx, hbsp_core::ProcId(0), 0, 1, 5),
                            _ => {}
                        }
                        StepOutcome::Continue(SyncScope::global(&env.tree))
                    }
                    1 => StepOutcome::Continue(SyncScope::global(&env.tree)),
                    _ => StepOutcome::Done,
                }
            },
        );
        let (_, states) = Executor::simulator(tree).run(&prog).unwrap();
        assert_eq!(
            states[2].1[0].values,
            vec![77],
            "get observes the concurrent put"
        );
    }

    #[test]
    #[should_panic(expected = "past region")]
    fn out_of_range_put_panics() {
        let tree = machine(2);
        let prog = ClosureProgram::new(
            |_env: &ProcEnv| Region::zeroed(2),
            |step, env, region: &mut Region, ctx| {
                region.apply(ctx);
                if step == 0 {
                    if env.pid.0 == 1 {
                        Region::put(ctx, hbsp_core::ProcId(0), 1, &[1, 2, 3]);
                    }
                    StepOutcome::Continue(SyncScope::global(&env.tree))
                } else {
                    StepOutcome::Done
                }
            },
        );
        let _ = Executor::simulator(tree).run(&prog);
    }
}
