//! Per-step predictions aligned with execution, for drift reports.
//!
//! [`predicted_steps`] is the one fold of a [`CommSchedule`] through
//! the cost model. The engines *execute* every step, including free
//! drains, and a drift report pairs each observed superstep with its
//! prediction by position, so it prices every scheduled step (free
//! drains at zero cost): the vector lines up 1:1 with the
//! `hbsp_obs::StepTrace`s a probe records from a
//! [`crate::schedule::ScheduleProgram`] run. [`crate::predict::predict`]
//! is the same fold counted the way the paper's analyses count
//! supersteps: a final free drain is omitted, and the total is equal.

use crate::schedule::{step_hrelation, CommSchedule};
use hbsp_core::{CostModel, MachineTree, SuperstepCost};

/// One predicted [`SuperstepCost`] per *executed* step of `schedule`,
/// in execution order. Unlike [`crate::predict::predict`], free drain
/// steps are kept (priced at zero), so `predicted_steps(t, s)[i]` is
/// the model's claim about the i-th superstep a probe observes when a
/// [`crate::schedule::ScheduleProgram`] for `schedule` runs.
pub fn predicted_steps(tree: &MachineTree, schedule: &CommSchedule) -> Vec<SuperstepCost> {
    let cm = CostModel::new(tree);
    schedule
        .steps
        .iter()
        .map(|step| {
            let hr = step_hrelation(tree, step);
            cm.schedule_step(step.scope.map(|s| s.level()), &step.work, &hr)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::{lower_flat_gather, lower_hierarchical_gather};
    use crate::plan::WorkloadPolicy;
    use crate::predict::predict;
    use hbsp_core::{ProcId, TreeBuilder};

    fn clustered() -> MachineTree {
        TreeBuilder::two_level(
            1.0,
            500.0,
            &[
                (50.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (60.0, vec![(2.0, 0.4), (3.0, 0.3)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn totals_match_predict_and_drains_are_free() {
        let t = clustered();
        for sched in [
            lower_flat_gather(&t, 1000, ProcId(0), WorkloadPolicy::Balanced),
            lower_hierarchical_gather(&t, 1000, WorkloadPolicy::Equal),
        ] {
            let per_step = predicted_steps(&t, &sched);
            assert_eq!(per_step.len(), sched.steps.len(), "one cost per step");
            let total: f64 = per_step.iter().map(SuperstepCost::total).sum();
            assert_eq!(total, predict(&t, &sched).total());
            // The lowered gathers end in a free drain: kept, at zero.
            let last = per_step.last().unwrap();
            assert_eq!(last.total(), 0.0);
            assert!(per_step.len() > predict(&t, &sched).num_steps());
        }
    }
}
