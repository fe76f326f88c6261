//! HBSP^k cost predictions derived from communication schedules.
//!
//! Section 4 of the paper derives each collective's cost by hand from
//! the same structure the algorithm executes. Here that derivation is
//! mechanical: [`predict`] folds a [`CommSchedule`]'s per-step
//! heterogeneous h-relation (`h = max r_j·h_j`) and work charges through
//! [`hbsp_core::CostModel::schedule_step`] (`T_i = w_i + g·h +
//! L_{i,j}`), so the prediction is computed from the very artifact the
//! interpreter runs. The per-collective helpers below lower a plan and
//! price it in one call; they reproduce the paper's §4.2–4.4 closed
//! forms exactly (property-tested in `tests/schedule_equivalence.rs`).
//!
//! These are *model* predictions: the model charges a superstep's
//! communication once as `g·h`, abstracting the pack/unpack pipeline the
//! simulator resolves — experiment E9 (`model_accuracy`) quantifies the
//! gap.

use crate::broadcast::lower_flat_broadcast;
use crate::drift::predicted_steps;
use crate::gather::{lower_flat_gather, lower_hierarchical_gather};
use crate::plan::{PhasePolicy, WorkloadPolicy};
use crate::schedule::CommSchedule;
use hbsp_core::{CostReport, MachineTree, ProcId};

/// Price a communication schedule under the HBSP^k model: one
/// [`hbsp_core::SuperstepCost`] per scheduled step, as
/// [`predicted_steps`] prices them. A final drain step that neither
/// communicates nor computes is free and is omitted, so the report's
/// step count matches the paper's analyses.
pub fn predict(tree: &MachineTree, schedule: &CommSchedule) -> CostReport {
    let mut steps = predicted_steps(tree, schedule);
    if (schedule.steps.last()).is_some_and(|s| s.scope.is_none() && s.is_free()) {
        steps.pop();
    }
    CostReport::from(steps)
}

/// §4.2 — flat gather to `root`:
/// `h = max( max_j r_j·x_j , r_root·(n − x_root) )`.
pub fn gather_flat(
    tree: &MachineTree,
    n: u64,
    root: ProcId,
    workload: WorkloadPolicy,
) -> CostReport {
    predict(tree, &lower_flat_gather(tree, n, root, workload))
}

/// §4.3 — hierarchical gather: one super^i-step per level, coordinators
/// forwarding bundles upward (`h = max(r_{1,j}·x_{1,j}, r_{2,0}·n)` on
/// an HBSP^2 machine).
pub fn gather_hierarchical(tree: &MachineTree, n: u64, workload: WorkloadPolicy) -> CostReport {
    predict(tree, &lower_hierarchical_gather(tree, n, workload))
}

/// §4.4 — flat one-phase broadcast:
/// `h = max(r_root·n·(p−1), max_j r_j·n)`.
pub fn broadcast_one_phase(tree: &MachineTree, n: u64, root: ProcId) -> CostReport {
    predict(
        tree,
        &lower_flat_broadcast(tree, n, root, PhasePolicy::OnePhase, WorkloadPolicy::Equal),
    )
}

/// §4.4 — flat two-phase broadcast: scatter then all-gather, the
/// paper's `g·n(1 + r_{0,s}) + 2L` for equal shares.
pub fn broadcast_two_phase(
    tree: &MachineTree,
    n: u64,
    root: ProcId,
    workload: WorkloadPolicy,
) -> CostReport {
    predict(
        tree,
        &lower_flat_broadcast(tree, n, root, PhasePolicy::TwoPhase, workload),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{Partition, TreeBuilder};

    #[test]
    fn balanced_gather_is_gn_plus_l() {
        // §4.2: with r_j·c_j < 1 the gather costs g·n + L_{1,0} —
        // approached as speeds are exactly 1/r and the root keeps a
        // share.
        let rs = [1.0f64, 2.0, 4.0, 8.0];
        let procs: Vec<(f64, f64)> = rs.iter().map(|&r| (r, 1.0 / r)).collect();
        let t = TreeBuilder::flat(2.0, 30.0, &procs).unwrap();
        let n = 7500u64; // divisible by sum pattern; apportion handles rest
        let rep = gather_flat(&t, n, ProcId(0), WorkloadPolicy::Balanced);
        let bound = t.g() * n as f64 + 30.0;
        assert!(rep.total() <= bound + 1e-6, "{} <= {bound}", rep.total());
        // With c_j ∝ 1/r_j every sender term is r_j·x_j = n/Σ(1/r);
        // the h-relation is that or the root's received words,
        // whichever is larger.
        let x_root = Partition::balanced_for(&t, n).unwrap().share(ProcId(0));
        let sum_speeds: f64 = rs.iter().map(|r| 1.0 / r).sum();
        let expect = t.g() * (n as f64 / sum_speeds).max((n - x_root) as f64) + 30.0;
        assert!(
            (rep.total() - expect).abs() < t.g() * 4.0,
            "{} vs {expect}",
            rep.total()
        );
    }

    #[test]
    fn oversized_share_dominates() {
        // §4.2: if r_j·c_j > 1 the slow sender dominates the h-relation.
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (4.0, 0.9)]).unwrap();
        // Equal shares give the r=4 machine x = n/2, so r·x = 2n > n.
        let rep = gather_flat(&t, 1000, ProcId(0), WorkloadPolicy::Equal);
        assert_eq!(rep.total(), 4.0 * 500.0);
    }

    #[test]
    fn two_phase_formula_matches_paper() {
        // Equal shares, slowest r_s: T = g·n(1 + r_s) + 2L, up to the
        // (p−1)/p factors the paper rounds away.
        let t = TreeBuilder::flat(
            1.0,
            50.0,
            &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.33), (4.0, 0.25)],
        )
        .unwrap();
        let n = 4000u64;
        let rep = broadcast_two_phase(&t, n, ProcId(0), WorkloadPolicy::Equal);
        assert_eq!(rep.num_steps(), 2);
        let paper = 1.0 * n as f64 * (1.0 + 4.0) + 2.0 * 50.0;
        assert!(
            (rep.total() - paper).abs() / paper < 0.3,
            "{} should approximate the paper's {paper}",
            rep.total()
        );
    }

    #[test]
    fn crossover_two_phase_wins_for_reasonable_rs() {
        // §4.4: one-phase ~ g·n·m vs two-phase ~ g·n(1+r_s) + 2L; for
        // m = 8, r_s = 2 two-phase is predicted to win.
        let procs: Vec<(f64, f64)> = (0..8)
            .map(|i| (1.0 + i as f64 / 7.0, 1.0 / (1.0 + i as f64 / 7.0)))
            .collect();
        let t = TreeBuilder::flat(1.0, 100.0, &procs).unwrap();
        let n = 10_000;
        let one = broadcast_one_phase(&t, n, ProcId(0)).total();
        let two = broadcast_two_phase(&t, n, ProcId(0), WorkloadPolicy::Equal).total();
        assert!(two < one, "predicted two-phase {two} < one-phase {one}");
    }

    #[test]
    fn closed_form_matches_model_evaluator_on_the_real_program() {
        // Price the program that actually runs — the interpreter over
        // the lowered schedule — with `hbsplib::predict_program`: it
        // must reproduce the §4.2 closed form (same h-relation up to
        // wire headers, same L), for every plan.
        use crate::gather::lower_flat_gather;
        use crate::schedule::{share_inits, ScheduleProgram};
        use std::sync::Arc;

        let t = TreeBuilder::flat(
            1.5,
            120.0,
            &[(1.0, 1.0), (2.0, 0.55), (3.0, 0.4), (4.0, 0.25)],
        )
        .unwrap();
        let items: Vec<u32> = (0..5000).collect();
        for workload in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
            for root in [ProcId(0), ProcId(3)] {
                let closed = gather_flat(&t, items.len() as u64, root, workload);
                let prog = ScheduleProgram::new(
                    Arc::new(lower_flat_gather(&t, items.len() as u64, root, workload)),
                    Arc::new(share_inits(&t, &items, workload)),
                    None,
                );
                let program_cost = hbsplib::predict_program(Arc::new(t.clone()), &prog).unwrap();
                // The program's first superstep carries the whole cost;
                // its payload includes 3 bundle-header words per sender,
                // weighted by the slowest participant's r — allow that
                // bounded slack.
                let got = program_cost.steps()[0];
                let want = closed.steps()[0];
                let slack = 3.0 * (t.num_procs() - 1) as f64 * 4.0;
                assert!(
                    (got.h - want.h).abs() <= slack,
                    "{workload:?} root={root}: h {} vs {}",
                    got.h,
                    want.h
                );
                assert_eq!(got.sync, want.sync);
                assert_eq!(program_cost.steps()[1].total(), 0.0, "final step is free");
            }
        }
    }

    #[test]
    fn hierarchical_gather_prediction_has_k_steps() {
        let t = TreeBuilder::two_level(
            1.0,
            500.0,
            &[
                (50.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (60.0, vec![(2.0, 0.4), (3.0, 0.3)]),
            ],
        )
        .unwrap();
        let rep = gather_hierarchical(&t, 1000, WorkloadPolicy::Equal);
        assert_eq!(rep.num_steps(), 2);
        // Level-1 step pays the slower cluster's barrier.
        assert_eq!(rep.steps()[0].sync, 60.0);
        assert_eq!(rep.steps()[1].sync, 500.0);
        assert!(rep.total() > 0.0);
    }
}
