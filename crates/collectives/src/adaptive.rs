//! Re-plannable repeated collectives for the adaptive executor.
//!
//! [`RepeatedCollective`] is the concrete [`AdaptivePlan`] this crate
//! contributes to `hbsplib`'s closed-loop controller: a job that runs
//! the same collective for many rounds (the shape of iterative
//! exchange phases — halo swaps, allgather-per-iteration solvers).
//! Each [`AdaptivePlan::lower`] call re-tunes from scratch on the tree
//! it is handed ([`best_plan`]): when the adaptive controller
//! re-parameterizes its belief tree mid-job, the next segment's
//! lowering can switch flat ↔ hierarchical strategies and re-partition
//! workloads `c_{i,j}` by the freshly observed speeds — the
//! re-tune-and-re-balance half of the loop.
//!
//! The lowering repeats the chosen schedule's *body* (every step
//! before the final drain) once per round and appends a single drain.
//! That is only sound for collectives whose deliveries are idempotent
//! — [`Role::Piece`]/[`Role::Bundle`] payloads absorb by `UnitId`, so
//! a round re-delivering what a peer already holds is a no-op.
//! Reduce and scan carry [`Role::Partial`] transfers, which *fold* on
//! every delivery; repeating them would double-count, so those kinds
//! are rejected.
//!
//! [`Role::Piece`]: crate::schedule::Role::Piece
//! [`Role::Bundle`]: crate::schedule::Role::Bundle
//! [`Role::Partial`]: crate::schedule::Role::Partial

use crate::drift::predicted_steps;
use crate::schedule::{seeded_inits, CommSchedule, ScheduleProgram, ScheduleStep};
use crate::tune::{best_plan, CollectiveKind};
use hbsp_core::MachineTree;
use hbsplib::{AdaptivePlan, Planned};
use std::sync::Arc;

/// `rounds × kind(n)` as one re-plannable job. The `seed` makes the
/// payload data deterministic (same convention as `hbsp-sched`'s job
/// lowering), so runs are reproducible across engines and replans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedCollective {
    /// The collective each round performs.
    pub kind: CollectiveKind,
    /// Size hint: total items for gather/broadcast/scatter/allgather,
    /// per-pair block words for alltoall.
    pub n: u64,
    /// Seed for the deterministic payload words.
    pub seed: u64,
}

impl RepeatedCollective {
    /// A repeated-collective job.
    pub fn new(kind: CollectiveKind, n: u64, seed: u64) -> Self {
        RepeatedCollective { kind, n, seed }
    }
}

impl AdaptivePlan for RepeatedCollective {
    type Prog = ScheduleProgram;

    fn lower(
        &self,
        tree: &Arc<MachineTree>,
        rounds: usize,
    ) -> Result<Planned<ScheduleProgram>, String> {
        if matches!(self.kind, CollectiveKind::Reduce | CollectiveKind::Scan) {
            return Err(format!(
                "{} carries Partial transfers that fold on every delivery; \
                 repeating its schedule would double-count",
                self.kind.name()
            ));
        }
        let choice = best_plan(tree, self.kind, self.n).map_err(|e| e.to_string())?;
        // Repeat the body (everything before the trailing drain) once
        // per round; a single drain absorbs the last round's
        // deliveries.
        let steps = &choice.schedule.steps;
        let body_end = match steps.last() {
            Some(last) if last.scope.is_none() => steps.len() - 1,
            _ => steps.len(),
        };
        if body_end == 0 {
            return Err("schedule has no barriered body to repeat".to_string());
        }
        let mut repeated = CommSchedule::new();
        for _ in 0..rounds.max(1) {
            for step in &steps[..body_end] {
                repeated.push(step.clone());
            }
        }
        repeated.push(ScheduleStep::drain());
        // Initial data per the tuner's workload split on *this* tree:
        // re-lowering after a re-calibration re-partitions the
        // c_{i,j} shares by the freshly observed speeds.
        let (init, op) = seeded_inits(tree, &choice, self.n, self.seed);
        let predicted = predicted_steps(tree, &repeated);
        // The root is part of the tag: a re-calibration that inflates
        // a straggling root's r̂ adapts by *migrating the root* even
        // when strategy and workload stay put, and the decision log
        // must record that.
        let root_tag = choice
            .root
            .map(|r| format!("/r{}", r.rank()))
            .unwrap_or_default();
        let strategy = format!(
            "{}/{:?}/{:?}{}/s{}",
            self.kind.name(),
            choice.strategy,
            choice.workload,
            root_tag,
            body_end
        );
        Ok(Planned {
            prog: ScheduleProgram::new(Arc::new(repeated), Arc::new(init), op),
            predicted,
            strategy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{check_states, UnitId};
    use hbsp_core::{ProcId, TreeBuilder};
    use hbsp_sim::FaultPlan;
    use hbsplib::{Action, AdaptiveConfig, AdaptiveExecutor, Executor};

    fn clustered() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::two_level(
                1.0,
                400.0,
                &[
                    (40.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                    (50.0, vec![(1.5, 0.8), (3.0, 0.3)]),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn reduce_and_scan_are_rejected() {
        let t = clustered();
        for kind in [CollectiveKind::Reduce, CollectiveKind::Scan] {
            let err = RepeatedCollective::new(kind, 64, 7)
                .lower(&t, 3)
                .err()
                .expect("Partial-role collectives cannot repeat");
            assert!(err.contains("Partial"), "{err}");
        }
    }

    #[test]
    fn repeated_lowering_matches_its_prediction_shape() {
        let t = clustered();
        for kind in [
            CollectiveKind::Gather,
            CollectiveKind::Broadcast,
            CollectiveKind::Scatter,
            CollectiveKind::Allgather,
            CollectiveKind::Alltoall,
        ] {
            let planned = RepeatedCollective::new(kind, 96, 11).lower(&t, 4).unwrap();
            let sched = planned.prog.schedule();
            assert_eq!(
                planned.predicted.len(),
                sched.num_steps(),
                "{kind}: one predicted cost per executed step"
            );
            assert!(sched.steps.last().unwrap().scope.is_none(), "ends in drain");
            // Executing the repetition is clean on both engines and
            // observes exactly the predicted number of supersteps.
            for exec in [Executor::simulator(t.clone()), Executor::threads(t.clone())] {
                let (out, states) = exec.check(true).run(&planned.prog).unwrap();
                assert_eq!(out.sim.num_steps(), sched.num_steps(), "{kind}");
                check_states(&states).unwrap_or_else(|e| panic!("{kind}: {e}"));
            }
        }
    }

    #[test]
    fn repetition_is_idempotent_for_broadcast_data() {
        // After r rounds of broadcast every processor holds the root's
        // unit exactly once, same as after one round.
        let t = clustered();
        let run = |rounds: usize| {
            let planned = RepeatedCollective::new(CollectiveKind::Broadcast, 32, 5)
                .lower(&t, rounds)
                .unwrap();
            Executor::simulator(t.clone())
                .check(true)
                .run(&planned.prog)
                .unwrap()
                .1
        };
        let once = run(1);
        let thrice = run(3);
        for (a, b) in once.iter().zip(&thrice) {
            assert_eq!(a.unit(UnitId::new(0, 32)), b.unit(UnitId::new(0, 32)));
        }
    }

    /// The tentpole gate in miniature: a ramping straggler on the
    /// broadcast root makes the initially-optimal plan increasingly
    /// wrong; the adaptive run re-calibrates, re-tunes onto a shape
    /// that moves less data through the straggler, and finishes in
    /// less virtual time than the static control arm on both engines
    /// with bit-identical decision logs.
    #[test]
    fn adaptive_beats_static_under_a_straggler_ramp() {
        let t = clustered();
        let job = RepeatedCollective::new(CollectiveKind::Broadcast, 256, 3);
        // The broadcast root is the fastest processor (P0); ramp its
        // communication slowness hard from step 4 on.
        let faults = FaultPlan::new().straggle_ramp(ProcId(0), 4, 28, 4.0, 2.0);
        let cfg = AdaptiveConfig {
            window: 2,
            drift_threshold: 0.6,
            calibration_trim: 0.25,
        };
        let mut logs = Vec::new();
        for exec in [Executor::simulator(t.clone()), Executor::threads(t.clone())] {
            let adaptive = AdaptiveExecutor::new(exec.faults(faults.clone())).config(cfg);
            let adapt = adaptive.run(&job, 12).unwrap();
            let stat = adaptive.run_static(&job, 12).unwrap();
            assert!(adapt.replans > 0, "log:\n{}", adapt.decision_log());
            assert_eq!(stat.replans, 0);
            assert!(
                adapt.total_time < stat.total_time,
                "adaptive {} !< static {}\n{}",
                adapt.total_time,
                stat.total_time,
                adapt.decision_log()
            );
            // The re-plan actually changed the lowering.
            let strategies: Vec<&str> = adapt
                .decisions
                .iter()
                .map(|d| d.strategy.as_str())
                .collect();
            assert!(
                strategies.windows(2).any(|w| w[0] != w[1]),
                "strategy never changed: {strategies:?}"
            );
            assert!(adapt.decisions.iter().any(|d| d.action == Action::Replan));
            logs.push(adapt.decision_log());
        }
        assert_eq!(logs[0], logs[1], "decision logs bit-identical");
    }
}
