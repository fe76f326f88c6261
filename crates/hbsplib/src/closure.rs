//! Build programs from closures, for tests, examples, and one-off
//! experiments that don't warrant a named program type.

use hbsp_core::{ProcEnv, SpmdContext, SpmdProgram, StepOutcome};

/// An [`SpmdProgram`] assembled from two closures.
///
/// ```
/// use hbsplib::{ClosureProgram, Ctx, Executor};
/// use hbsp_core::TreeBuilder;
/// use std::sync::Arc;
///
/// let tree = Arc::new(TreeBuilder::flat(1.0, 5.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
/// // Each processor counts its own supersteps.
/// let prog = ClosureProgram::new(
///     |_env| 0usize,
///     |step, env, count: &mut usize, raw| {
///         let ctx = Ctx::new(env, raw);
///         *count += 1;
///         if step == 2 { ctx.done() } else { ctx.sync_global() }
///     },
/// );
/// let (_, states) = Executor::simulator(tree).run(&prog).unwrap();
/// assert_eq!(states, vec![3, 3]);
/// ```
pub struct ClosureProgram<S, I, F>
where
    I: Fn(&ProcEnv) -> S + Sync,
    F: Fn(usize, &ProcEnv, &mut S, &mut dyn SpmdContext) -> StepOutcome + Sync,
{
    init: I,
    step: F,
    _marker: std::marker::PhantomData<fn() -> S>,
}

impl<S, I, F> ClosureProgram<S, I, F>
where
    I: Fn(&ProcEnv) -> S + Sync,
    F: Fn(usize, &ProcEnv, &mut S, &mut dyn SpmdContext) -> StepOutcome + Sync,
{
    /// Program from an `init` closure and a `step` closure.
    pub fn new(init: I, step: F) -> Self {
        ClosureProgram {
            init,
            step,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, I, F> SpmdProgram for ClosureProgram<S, I, F>
where
    S: Send,
    I: Fn(&ProcEnv) -> S + Sync,
    F: Fn(usize, &ProcEnv, &mut S, &mut dyn SpmdContext) -> StepOutcome + Sync,
{
    type State = S;

    fn init(&self, env: &ProcEnv) -> S {
        (self.init)(env)
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut S,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        (self.step)(step, env, state, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use hbsp_core::{ProcId, TreeBuilder};
    use std::sync::Arc;

    #[test]
    fn closure_program_runs_on_both_engines() {
        let tree = Arc::new(TreeBuilder::flat(1.0, 2.0, &[(1.0, 1.0), (3.0, 0.4)]).unwrap());
        let prog = ClosureProgram::new(
            |env: &ProcEnv| env.pid.0 as u64,
            |step, env, state: &mut u64, ctx| {
                if step == 0 {
                    let peer = ProcId(1 - env.pid.0);
                    ctx.send(peer, 0, &[*state as u8]);
                    StepOutcome::Continue(hbsp_core::SyncScope::global(&env.tree))
                } else {
                    *state += ctx.messages().get(0).payload[0] as u64 * 100;
                    StepOutcome::Done
                }
            },
        );
        let (_, a) = Executor::simulator(Arc::clone(&tree)).run(&prog).unwrap();
        let (_, b) = Executor::threads(tree).run(&prog).unwrap();
        assert_eq!(a, vec![100, 1]);
        assert_eq!(a, b);
    }
}
