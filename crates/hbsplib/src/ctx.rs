//! The typed superstep context.

use crate::codec;
use crate::enquiry::TreeEnquiry;
use hbsp_core::{
    Inbox, Level, MachineTree, MsgView, ProcEnv, ProcId, SpmdContext, StepOutcome, SyncScope,
};

/// Ergonomic, typed wrapper over the raw engine context. Construct one
/// at the top of each superstep body:
///
/// ```ignore
/// fn step(&self, step: usize, env: &ProcEnv, st: &mut S, raw: &mut dyn SpmdContext) -> StepOutcome {
///     let mut ctx = Ctx::new(env, raw);
///     ...
/// }
/// ```
pub struct Ctx<'a> {
    env: &'a ProcEnv,
    raw: &'a mut dyn SpmdContext,
}

impl<'a> Ctx<'a> {
    /// Wrap the engine context.
    pub fn new(env: &'a ProcEnv, raw: &'a mut dyn SpmdContext) -> Self {
        Ctx { env, raw }
    }

    // ----- enquiry ------------------------------------------------------

    /// This processor's rank (`bsp_pid`).
    pub fn pid(&self) -> ProcId {
        self.env.pid
    }

    /// Total processors (`bsp_nprocs`).
    pub fn nprocs(&self) -> usize {
        self.env.nprocs
    }

    /// The machine.
    pub fn tree(&self) -> &MachineTree {
        &self.env.tree
    }

    /// Relative compute speed of this processor (1 = fastest).
    pub fn speed(&self) -> f64 {
        self.env.speed()
    }

    /// Relative communication slowness `r` of this processor.
    pub fn r(&self) -> f64 {
        self.env.r()
    }

    /// The machine-wide fastest processor (the paper's `P_f`).
    pub fn fastest(&self) -> ProcId {
        self.env.tree.fastest_proc()
    }

    /// The machine-wide slowest processor (the paper's `P_s`).
    pub fn slowest(&self) -> ProcId {
        self.env.tree.slowest_proc()
    }

    /// Coordinator of this processor's cluster at `level`.
    pub fn coordinator(&self, level: Level) -> ProcId {
        self.env.tree.coordinator_of(self.env.pid, level)
    }

    /// Members of this processor's cluster at `level` (rank order).
    pub fn cluster(&self, level: Level) -> Vec<ProcId> {
        self.env.tree.cluster_members(self.env.pid, level)
    }

    // ----- message passing ----------------------------------------------

    /// Send raw bytes.
    pub fn send_bytes(&mut self, dst: ProcId, tag: u32, payload: &[u8]) {
        self.raw.send(dst, tag, payload);
    }

    /// Send a `u32` buffer, appended straight to the outbox arena (no
    /// temporary buffer).
    pub fn send_u32s(&mut self, dst: ProcId, tag: u32, values: &[u32]) {
        self.raw
            .send_with(dst, tag, values.len() * 4, &mut |w| w.u32s(values));
    }

    /// Send an `f64` buffer, appended straight to the outbox arena.
    pub fn send_f64s(&mut self, dst: ProcId, tag: u32, values: &[f64]) {
        self.raw
            .send_with(dst, tag, values.len() * 8, &mut |w| w.f64s(values));
    }

    /// All messages delivered for this superstep (arrival order), read
    /// in place.
    pub fn messages(&self) -> Inbox<'_> {
        self.raw.messages()
    }

    /// Decode and concatenate every delivered payload as `u32`s, in
    /// arrival order.
    pub fn recv_all_u32s(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for m in self.raw.messages() {
            out.extend(codec::decode_u32s(m.payload));
        }
        out
    }

    /// Decode messages with `tag` as `(src, values)` pairs, arrival
    /// order.
    pub fn recv_tagged_u32s(&self, tag: u32) -> Vec<(ProcId, Vec<u32>)> {
        self.raw
            .messages()
            .iter()
            .filter(|m| m.tag == tag)
            .map(|m| (m.src, codec::decode_u32s(m.payload)))
            .collect()
    }

    /// The payload from `src` with `tag`, if any (first match).
    pub fn recv_from(&self, src: ProcId, tag: u32) -> Option<MsgView<'_>> {
        self.raw
            .messages()
            .iter()
            .find(|m| m.src == src && m.tag == tag)
    }

    // ----- work and synchronization ---------------------------------------

    /// Charge local computation (units at fastest-machine speed).
    pub fn charge(&mut self, units: f64) {
        self.raw.charge(units);
    }

    /// End the superstep with a global barrier (level `k`).
    pub fn sync_global(&self) -> StepOutcome {
        StepOutcome::Continue(SyncScope::global(&self.env.tree))
    }

    /// End the superstep with a level-`i` barrier (each level-`i`
    /// cluster synchronizes independently — a super^i-step boundary).
    pub fn sync_level(&self, level: Level) -> StepOutcome {
        StepOutcome::Continue(SyncScope::Level(level))
    }

    /// Finish the program on this processor (all processors must finish
    /// at the same superstep).
    pub fn done(&self) -> StepOutcome {
        StepOutcome::Done
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests run on the simulator")]
mod tests {
    use super::*;
    use hbsp_core::{SpmdProgram, TreeBuilder};
    use hbsp_sim::Simulator;
    use std::sync::Arc;

    /// Odd pids send (pid, pid²) to even pid-1; evens verify.
    struct PairTalk;
    impl SpmdProgram for PairTalk {
        type State = bool;
        fn init(&self, _env: &ProcEnv) -> bool {
            false
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            ok: &mut bool,
            raw: &mut dyn SpmdContext,
        ) -> StepOutcome {
            let mut ctx = Ctx::new(env, raw);
            match step {
                0 => {
                    let me = ctx.pid().0;
                    if me % 2 == 1 {
                        ctx.send_u32s(ProcId(me - 1), 3, &[me, me * me]);
                    }
                    ctx.charge(5.0);
                    ctx.sync_global()
                }
                _ => {
                    let me = ctx.pid().0;
                    if me.is_multiple_of(2) {
                        let got = ctx.recv_tagged_u32s(3);
                        *ok = got.len() == 1
                            && got[0].0 == ProcId(me + 1)
                            && got[0].1 == vec![me + 1, (me + 1) * (me + 1)];
                        // recv_from sees the same message.
                        assert!(ctx.recv_from(ProcId(me + 1), 3).is_some());
                        assert!(ctx.recv_from(ProcId(me + 1), 99).is_none());
                    } else {
                        *ok = ctx.messages().is_empty();
                    }
                    ctx.done()
                }
            }
        }
    }

    #[test]
    fn typed_send_recv_round_trip() {
        let tree = Arc::new(
            TreeBuilder::flat(1.0, 1.0, &[(1.0, 1.0), (1.0, 1.0), (2.0, 0.5), (2.0, 0.5)]).unwrap(),
        );
        let sim = Simulator::new(tree);
        let (_, states) = sim.run_with_states(&PairTalk).unwrap();
        assert!(
            states.iter().all(|&ok| ok),
            "every processor verified its traffic"
        );
    }

    #[test]
    fn enquiry_through_ctx() {
        struct Enq;
        impl SpmdProgram for Enq {
            type State = (u32, u32);
            fn init(&self, _env: &ProcEnv) -> (u32, u32) {
                (u32::MAX, u32::MAX)
            }
            fn step(
                &self,
                _step: usize,
                env: &ProcEnv,
                out: &mut (u32, u32),
                raw: &mut dyn SpmdContext,
            ) -> StepOutcome {
                let ctx = Ctx::new(env, raw);
                *out = (ctx.fastest().0, ctx.slowest().0);
                assert_eq!(ctx.cluster(1).len(), ctx.nprocs());
                ctx.done()
            }
        }
        let tree = Arc::new(TreeBuilder::flat(1.0, 1.0, &[(2.0, 0.5), (1.0, 1.0)]).unwrap());
        let (_, states) = Simulator::new(tree).run_with_states(&Enq).unwrap();
        assert!(states.iter().all(|&s| s == (1, 0)));
    }
}
