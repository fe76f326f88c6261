//! The model evaluator: price *any* program with the paper's cost
//! model.
//!
//! §3.4 says "the parameters described above allow for cost analysis of
//! HBSP^k programs" — not just of the hand-analyzed collectives. This
//! engine executes a program's supersteps exactly like the simulator
//! (same message delivery, same SPMD checks, so the program's control
//! flow and data are identical), but charges each super^i-step the pure
//! model cost
//!
//! ```text
//! T_i(λ) = w_i + g·h + L_{i,j}
//! ```
//!
//! with `w_i = max(units / speed)` over participants, `h` the
//! heterogeneous h-relation of the step's traffic, and `L` the largest
//! participating cluster's barrier cost. The result is a
//! [`CostReport`] — the "predicted" column for any program, including
//! ones with data-dependent communication that closed forms can't
//! cover. Experiment E9 compares these predictions against the
//! simulator's microcost times.

use crate::error::SimError;
use crate::step::{analyze_into, resolve_outcomes, StepAnalysis};
use hbsp_core::{
    CostReport, Inbox, MachineTree, MsgBatch, ProcEnv, ProcId, SpmdContext, SpmdProgram,
    StepOutcome, SuperstepCost, SyncScope,
};
use std::sync::Arc;

/// Evaluates programs under the pure HBSP^k cost model.
pub struct ModelEvaluator {
    tree: Arc<MachineTree>,
    step_limit: usize,
}

impl ModelEvaluator {
    /// Evaluator for `tree`.
    pub fn new(tree: Arc<MachineTree>) -> Self {
        ModelEvaluator {
            tree,
            step_limit: 100_000,
        }
    }

    /// Override the runaway-program guard.
    pub fn step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Run `prog` to completion, returning the model-cost report and
    /// each processor's final state.
    pub fn run_with_states<P: SpmdProgram>(
        &self,
        prog: &P,
    ) -> Result<(CostReport, Vec<P::State>), SimError> {
        let p = self.tree.num_procs();
        let envs: Vec<ProcEnv> = (0..p)
            .map(|i| ProcEnv {
                pid: ProcId(i as u32),
                nprocs: p,
                tree: Arc::clone(&self.tree),
            })
            .collect();
        let mut states: Vec<P::State> = envs.iter().map(|e| prog.init(e)).collect();
        // Double-buffered like the simulator's: bodies read their rows
        // of the arena the last step posted into, in place, and post
        // into the other.
        let (mut posted, mut sends) = (MsgBatch::new(), MsgBatch::new());
        let mut pull: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        let mut outcomes: Vec<StepOutcome> = Vec::with_capacity(p);
        let mut analysis = StepAnalysis {
            intents: Vec::new(),
            traffic: Vec::new(),
            hrelation: 0.0,
        };
        let mut report = CostReport::new();

        for step in 0..self.step_limit {
            sends.clear();
            outcomes.clear();
            // The paper's w_i: the largest local computation, at each
            // machine's own speed.
            let mut w_max = 0.0f64;
            for i in 0..p {
                let mut ctx = ModelCtx {
                    env: &envs[i],
                    inbox: Inbox::shared(&posted, &pull[i]),
                    outbox: &mut sends,
                    work: 0.0,
                };
                let outcome = prog.step(step, &envs[i], &mut states[i], &mut ctx);
                w_max = w_max.max(ctx.work / envs[i].speed());
                outcomes.push(outcome);
            }
            for rows in &mut pull {
                rows.clear();
            }
            let scope = resolve_outcomes(step, &outcomes)?;
            analyze_into(&self.tree, step, scope, &sends, &mut analysis)?;

            // L: the largest barrier cost among the scope's
            // participating clusters (zero for the final, barrier-less
            // step).
            let sync = match scope {
                None => 0.0,
                Some(s) => self.sync_cost(s),
            };
            report.push(SuperstepCost {
                level: scope.map_or(self.tree.height(), |s| s.level()),
                w: w_max,
                h: analysis.hrelation,
                comm: self.tree.g() * analysis.hrelation,
                sync,
            });
            match scope {
                None => return Ok((report, states)),
                Some(_) => {
                    // Deliver in deterministic (src, posting) order —
                    // the model has no arrival times. Bodies run in pid
                    // order into one shared outbox, so posting order is
                    // already src-sorted.
                    for (i, intent) in analysis.intents.iter().enumerate() {
                        pull[intent.dst.rank()].push((intent.src.0, i as u32));
                    }
                    std::mem::swap(&mut posted, &mut sends);
                }
            }
        }
        Err(SimError::StepLimit {
            limit: self.step_limit,
        })
    }

    /// Run `prog`, discarding final states.
    pub fn run<P: SpmdProgram>(&self, prog: &P) -> Result<CostReport, SimError> {
        self.run_with_states(prog).map(|(r, _)| r)
    }

    fn sync_cost(&self, scope: SyncScope) -> f64 {
        let level = scope.level();
        let mut l_max = 0.0f64;
        for i in 0..self.tree.num_procs() {
            let leaf = self.tree.leaves()[i];
            let anchor = self.tree.ancestor_at_level(leaf, level).unwrap_or(leaf);
            l_max = l_max.max(self.tree.node(anchor).params().l_sync);
        }
        l_max
    }
}

struct ModelCtx<'a> {
    env: &'a ProcEnv,
    inbox: Inbox<'a>,
    outbox: &'a mut MsgBatch,
    work: f64,
}

impl SpmdContext for ModelCtx<'_> {
    fn pid(&self) -> ProcId {
        self.env.pid
    }
    fn nprocs(&self) -> usize {
        self.env.nprocs
    }
    fn tree(&self) -> &MachineTree {
        &self.env.tree
    }
    fn messages(&self) -> Inbox<'_> {
        self.inbox
    }
    fn send_with(&mut self, dst: ProcId, tag: u32, len: usize, fill: &mut dyn FnMut(&mut [u8])) {
        self.outbox.push_with(self.env.pid, dst, tag, len, fill);
    }
    fn charge(&mut self, units: f64) {
        assert!(
            units >= 0.0 && units.is_finite(),
            "charged work must be finite and non-negative"
        );
        self.work += units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    /// Everyone sends `words` to rank 0, then rank 0 counts.
    struct Funnel {
        words: usize,
    }
    impl SpmdProgram for Funnel {
        type State = usize;
        fn init(&self, _env: &ProcEnv) -> usize {
            0
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            state: &mut usize,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            match step {
                0 => {
                    ctx.charge(120.0);
                    if env.pid.0 != 0 {
                        ctx.send(ProcId(0), 0, &vec![0u8; self.words * 4]);
                    }
                    StepOutcome::Continue(SyncScope::global(&env.tree))
                }
                _ => {
                    *state = ctx.messages().len();
                    StepOutcome::Done
                }
            }
        }
    }

    #[test]
    fn charges_the_paper_cost_exactly() {
        // g = 2, L = 30; r = [1, 2, 4], speeds = 1/r. Everyone sends
        // 100 words to rank 0 (which receives 200).
        let t =
            Arc::new(TreeBuilder::flat(2.0, 30.0, &[(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]).unwrap());
        let (report, states) = ModelEvaluator::new(Arc::clone(&t))
            .run_with_states(&Funnel { words: 100 })
            .unwrap();
        assert_eq!(states[0], 2, "program semantics preserved");
        assert_eq!(report.num_steps(), 2);
        let s0 = report.steps()[0];
        // w = 120 units at speed 0.25 = 480.
        assert_eq!(s0.w, 480.0);
        // h = max(r_1·100, r_2·100, r_0·200) = max(200, 400, 200) = 400.
        assert_eq!(s0.h, 400.0);
        assert_eq!(s0.comm, 800.0, "g = 2");
        assert_eq!(s0.sync, 30.0);
        // Final step: no traffic, no barrier.
        assert_eq!(report.steps()[1].total(), 0.0);
        assert_eq!(report.total(), 480.0 + 800.0 + 30.0);
    }

    #[test]
    fn matches_the_closed_form_gather_prediction() {
        // The model evaluator pricing the *actual* flat-gather program
        // must equal predict::gather_flat's closed form. (The closed
        // form lives in hbsp-collectives which depends on this crate,
        // so the assertion itself lives there and in the integration
        // tests; here we pin the h-relation shape on a hand-built
        // equivalent.)
        let t = Arc::new(TreeBuilder::flat(1.0, 50.0, &[(1.0, 1.0), (3.0, 0.3)]).unwrap());
        let report = ModelEvaluator::new(t).run(&Funnel { words: 500 }).unwrap();
        // h = max(3·500 sender, 1·500 receiver) = 1500.
        assert_eq!(report.steps()[0].h, 1500.0);
        assert_eq!(report.total(), 120.0 / 0.3 + 1500.0 + 50.0);
    }

    #[test]
    fn cluster_scoped_steps_charge_the_largest_participating_l() {
        struct LocalChat;
        impl SpmdProgram for LocalChat {
            type State = ();
            fn init(&self, _env: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if step == 1 {
                    return StepOutcome::Done;
                }
                // Exchange within the cluster only.
                let members = env
                    .tree
                    .subtree_leaves(env.tree.cluster_of(env.pid, 1).expect("cluster exists"));
                for &leaf in &members {
                    let q = env.tree.node(leaf).proc_id().unwrap();
                    if q != env.pid {
                        ctx.send(q, 0, &[0u8; 4]);
                    }
                }
                StepOutcome::Continue(SyncScope::Level(1))
            }
        }
        let t = Arc::new(
            TreeBuilder::two_level(
                1.0,
                999.0,
                &[
                    (10.0, vec![(1.0, 1.0), (1.5, 0.6)]),
                    (70.0, vec![(2.0, 0.5), (2.0, 0.5)]),
                ],
            )
            .unwrap(),
        );
        let report = ModelEvaluator::new(t).run(&LocalChat).unwrap();
        assert_eq!(
            report.steps()[0].sync,
            70.0,
            "max participating L_{{1,j}}, not L_{{2,0}}"
        );
        assert_eq!(report.steps()[0].level, 1);
    }

    #[test]
    fn spmd_discipline_still_enforced() {
        struct Mixed;
        impl SpmdProgram for Mixed {
            type State = ();
            fn init(&self, _env: &ProcEnv) {}
            fn step(
                &self,
                _step: usize,
                env: &ProcEnv,
                _st: &mut (),
                _ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if env.pid.0 == 0 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue(SyncScope::global(&env.tree))
                }
            }
        }
        let t = Arc::new(TreeBuilder::homogeneous(1.0, 1.0, 3).unwrap());
        assert_eq!(
            ModelEvaluator::new(t).run(&Mixed).unwrap_err(),
            SimError::TerminationMismatch { step: 0 }
        );
    }
}
