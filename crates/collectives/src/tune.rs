//! Strategy autotuning: enumerate candidate plans, lower each to a
//! [`crate::schedule::CommSchedule`], and pick the cheapest by predicted
//! cost — §4.4's "for reasonable values of r_s" arguments made
//! machine-specific and automatic.
//!
//! Because lowering and prediction run on the same IR the executor
//! interprets, the tuner's ranking is a ranking of the *actual*
//! programs, not of separately maintained formulas.

use crate::allgather::{lower_flat_allgather, lower_hierarchical_allgather};
use crate::alltoall::{lower_alltoall, lower_alltoall_hier};
use crate::broadcast::{lower_broadcast, BroadcastPlan};
use crate::gather::{lower_gather, GatherPlan};
use crate::plan::{PhasePolicy, RankOutOfRange, RootPolicy, Strategy, WorkloadPolicy};
use crate::predict::{paper_steps, predict};
use crate::reduce::{lower_flat_reduce, lower_hierarchical_reduce};
use crate::scan::lower_scan;
use crate::scatter::lower_scatter;
use crate::schedule::CommSchedule;
use hbsp_core::{HRelation, MachineTree, ProcId};
use std::fmt;

/// A candidate broadcast plan with its predicted cost.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The plan that was lowered and priced.
    pub plan: BroadcastPlan,
    /// Predicted HBSP^k execution time of its schedule.
    pub cost: f64,
}

/// Why the tuner could not produce a ranking. An empty ranking used to
/// be returned silently; callers that `.first()`ed it then picked a
/// nonexistent "best" plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// No candidate plans were supplied.
    NoCandidates,
    /// The machine has no processors, so no plan can have a root.
    NoProcessors,
    /// A candidate's root policy does not resolve on this machine.
    Root(RankOutOfRange),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::NoCandidates => write!(f, "no candidate plans to rank"),
            TuneError::NoProcessors => write!(f, "machine has no processors to tune for"),
            TuneError::Root(e) => write!(f, "candidate root does not resolve: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<RankOutOfRange> for TuneError {
    fn from(e: RankOutOfRange) -> Self {
        TuneError::Root(e)
    }
}

/// Every broadcast plan the tuner considers by default, flat strategies
/// first (so ties — e.g. on a homogeneous flat machine, where the
/// hierarchical lowering degenerates to the flat one — resolve to the
/// simpler plan).
pub fn broadcast_candidates() -> Vec<BroadcastPlan> {
    let mut plans = vec![BroadcastPlan::one_phase(), BroadcastPlan::two_phase()];
    for top in [PhasePolicy::OnePhase, PhasePolicy::TwoPhase] {
        for cluster in [PhasePolicy::OnePhase, PhasePolicy::TwoPhase] {
            let mut plan = BroadcastPlan::hierarchical(top);
            plan.cluster_phase = cluster;
            plans.push(plan);
        }
    }
    plans
}

/// Lower and price an explicit list of candidate plans for `n` items on
/// `tree`, cheapest first (stable: earlier plans sort before later ones
/// of equal cost). Errors instead of silently ranking nothing.
pub fn rank_broadcast_with(
    tree: &MachineTree,
    n: u64,
    plans: Vec<BroadcastPlan>,
) -> Result<Vec<Candidate>, TuneError> {
    if tree.num_procs() == 0 {
        return Err(TuneError::NoProcessors);
    }
    if plans.is_empty() {
        return Err(TuneError::NoCandidates);
    }
    let mut ranked = Vec::with_capacity(plans.len());
    for plan in plans {
        let (sched, _) = lower_broadcast(tree, n, &plan)?;
        ranked.push(Candidate {
            plan,
            cost: predict(tree, &sched).total(),
        });
    }
    ranked.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    Ok(ranked)
}

/// Lower and price every default candidate broadcast plan
/// ([`broadcast_candidates`]) for `n` items on `tree`, cheapest first.
pub fn rank_broadcast(tree: &MachineTree, n: u64) -> Result<Vec<Candidate>, TuneError> {
    rank_broadcast_with(tree, n, broadcast_candidates())
}

/// The cheapest broadcast plan for `n` items on `tree` by predicted
/// cost.
pub fn best_broadcast(tree: &MachineTree, n: u64) -> Result<Candidate, TuneError> {
    (rank_broadcast(tree, n)?.into_iter().next()).ok_or(TuneError::NoCandidates)
}

/// The winning strategy for broadcasting `n` items on `tree`:
/// [`Strategy::Hierarchical`] only when some hierarchical plan strictly
/// beats every flat one.
pub fn best_strategy(tree: &MachineTree, n: u64) -> Result<Strategy, TuneError> {
    Ok(best_broadcast(tree, n)?.plan.strategy)
}

/// Which collective a [`PlanChoice`] is for. The uniform vocabulary of
/// the generic tuner entry point [`best_plan`] — and of schedulers that
/// price jobs without caring which collective they carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// All-to-one gather (§4.2/§4.3).
    Gather,
    /// One-to-all broadcast (§4.4).
    Broadcast,
    /// Root distributes per-processor shares.
    Scatter,
    /// Total exchange of per-processor pieces.
    Allgather,
    /// Personalized all-to-all.
    Alltoall,
    /// All-to-one reduction.
    Reduce,
    /// Inclusive prefix reduction across ranks.
    Scan,
}

impl CollectiveKind {
    /// Every kind, in a stable order.
    pub const ALL: [CollectiveKind; 7] = [
        CollectiveKind::Gather,
        CollectiveKind::Broadcast,
        CollectiveKind::Scatter,
        CollectiveKind::Allgather,
        CollectiveKind::Alltoall,
        CollectiveKind::Reduce,
        CollectiveKind::Scan,
    ];

    /// Stable lowercase name (`gather`, `broadcast`, …).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Gather => "gather",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::Alltoall => "alltoall",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Scan => "scan",
        }
    }

    /// Parse a stable name back to a kind.
    pub fn parse(s: &str) -> Option<CollectiveKind> {
        CollectiveKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A lowered-and-priced candidate for any collective: what [`best_plan`]
/// returns. Unlike the broadcast-only [`Candidate`], the schedule is
/// kept — callers that picked a plan usually want to run it next, and
/// re-lowering would repeat the work.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// The collective this plan performs.
    pub kind: CollectiveKind,
    /// Flat or hierarchical lowering.
    pub strategy: Strategy,
    /// Workload policy the lowering used.
    pub workload: WorkloadPolicy,
    /// The lowered schedule, ready to interpret or [`predict`].
    pub schedule: CommSchedule,
    /// The root/result processor, for rooted collectives.
    pub root: Option<ProcId>,
    /// Predicted HBSP^k execution time of `schedule`.
    pub cost: f64,
}

/// Lower and price every default candidate for `kind` moving `n` words
/// on `tree`, cheapest first (stable: flat candidates sort before
/// hierarchical ones of equal cost). `n` is the collective's size hint:
/// total items for gather/broadcast/scatter/allgather, vector length
/// for reduce/scan, per-pair block words for alltoall.
pub fn rank_plans(
    tree: &MachineTree,
    kind: CollectiveKind,
    n: u64,
) -> Result<Vec<PlanChoice>, TuneError> {
    let mut ranked = Vec::new();
    candidates(tree, kind, n, |plan| ranked.push(plan))?;
    if ranked.is_empty() {
        return Err(TuneError::NoCandidates);
    }
    ranked.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    Ok(ranked)
}

/// The cheapest plan for `kind` moving `n` words on `tree` by predicted
/// cost — the scheduler's uniform placement cost query: the first of
/// the cheapest candidates, which is [`rank_plans`]' first, unranked.
/// A candidate is dropped as soon as a cheaper one is priced.
pub fn best_plan(
    tree: &MachineTree,
    kind: CollectiveKind,
    n: u64,
) -> Result<PlanChoice, TuneError> {
    let mut best: Option<PlanChoice> = None;
    candidates(tree, kind, n, |plan| match &best {
        Some(b) if plan.cost.total_cmp(&b.cost).is_ge() => {}
        _ => best = Some(plan),
    })?;
    best.ok_or(TuneError::NoCandidates)
}

/// Lower and price every default candidate for `kind` moving `n` words
/// on `tree`, handing each to `keep` in candidate order.
fn candidates(
    tree: &MachineTree,
    kind: CollectiveKind,
    n: u64,
    mut keep: impl FnMut(PlanChoice),
) -> Result<(), TuneError> {
    let p = tree.num_procs();
    if p == 0 {
        return Err(TuneError::NoProcessors);
    }
    let mut hr = HRelation::new();
    let mut choice = |strategy, workload, schedule, root| {
        let steps = paper_steps(tree, &schedule, &mut hr);
        let cost = steps.map(|c| c.total()).sum();
        keep(PlanChoice {
            kind,
            strategy,
            workload,
            schedule,
            root,
            cost,
        })
    };
    match kind {
        CollectiveKind::Gather => {
            for plan in [
                GatherPlan::fast_root(),
                GatherPlan::balanced(),
                GatherPlan::hierarchical(),
            ] {
                let (sched, root) = lower_gather(tree, n, plan)?;
                choice(plan.strategy, plan.workload, sched, Some(root));
            }
        }
        CollectiveKind::Broadcast => {
            for plan in broadcast_candidates() {
                let (sched, root) = lower_broadcast(tree, n, &plan)?;
                choice(plan.strategy, plan.workload, sched, Some(root));
            }
        }
        CollectiveKind::Scatter => {
            let root = RootPolicy::Fastest.resolve(tree)?;
            for workload in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
                let sched = lower_scatter(tree, n, root, workload);
                choice(Strategy::Flat, workload, sched, Some(root));
            }
        }
        CollectiveKind::Allgather => {
            for workload in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
                let sched = lower_flat_allgather(tree, n, workload);
                choice(Strategy::Flat, workload, sched, None);
            }
            let sched = lower_hierarchical_allgather(tree, n, WorkloadPolicy::Equal);
            choice(Strategy::Hierarchical, WorkloadPolicy::Equal, sched, None);
        }
        CollectiveKind::Alltoall => {
            // Uniform personalized exchange: n words per ordered pair.
            let sizes: Vec<Vec<u64>> = (0..p)
                .map(|i| (0..p).map(|j| if i == j { 0 } else { n }).collect())
                .collect();
            choice(
                Strategy::Flat,
                WorkloadPolicy::Equal,
                lower_alltoall(tree, &sizes),
                None,
            );
            choice(
                Strategy::Hierarchical,
                WorkloadPolicy::Equal,
                lower_alltoall_hier(tree, &sizes),
                None,
            );
        }
        CollectiveKind::Reduce => {
            let root = RootPolicy::Fastest.resolve(tree)?;
            choice(
                Strategy::Flat,
                WorkloadPolicy::Equal,
                lower_flat_reduce(tree, n, root),
                Some(root),
            );
            choice(
                Strategy::Hierarchical,
                WorkloadPolicy::Equal,
                lower_hierarchical_reduce(tree, n),
                Some(tree.fastest_proc()),
            );
        }
        CollectiveKind::Scan => {
            choice(
                Strategy::Flat,
                WorkloadPolicy::Equal,
                lower_scan(tree, n),
                None,
            );
        }
    }
    Ok(())
}

/// The outcome of re-tuning a mid-job residual plan on a fresh
/// (typically re-calibrated) machine: the plan to continue with, and
/// whether the tuner switched away from the incumbent.
#[derive(Debug, Clone)]
pub struct Retuned {
    /// The plan the remaining work should run under.
    pub plan: PlanChoice,
    /// True when `plan` differs from the incumbent's schedule.
    pub switched: bool,
    /// The incumbent schedule's predicted cost on the fresh tree.
    pub incumbent_cost: f64,
}

/// Re-tune a collective mid-job: re-price the incumbent plan's schedule
/// on `tree` (whose parameters have typically drifted since the
/// incumbent was chosen), rank every candidate afresh, and keep the
/// incumbent unless a challenger is strictly cheaper. The incumbent's
/// cost is refreshed either way, so the caller's predictions stay
/// consistent with the tree it plans on.
pub fn retune(tree: &MachineTree, n: u64, incumbent: &PlanChoice) -> Result<Retuned, TuneError> {
    let incumbent_cost = predict(tree, &incumbent.schedule).total();
    let best = best_plan(tree, incumbent.kind, n)?;
    if best.cost < incumbent_cost {
        Ok(Retuned {
            plan: best,
            switched: true,
            incumbent_cost,
        })
    } else {
        let mut kept = incumbent.clone();
        kept.cost = incumbent_cost;
        Ok(Retuned {
            plan: kept,
            switched: false,
            incumbent_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{NodeParams, TreeBuilder};

    #[test]
    fn homogeneous_flat_machine_tunes_to_flat() {
        let t = TreeBuilder::homogeneous(1.0, 100.0, 8).unwrap();
        assert_eq!(best_strategy(&t, 10_000).unwrap(), Strategy::Flat);
    }

    #[test]
    fn ranking_is_exhaustive_and_sorted() {
        let t = TreeBuilder::two_level(
            1.0,
            500.0,
            &[
                (50.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (60.0, vec![(2.0, 0.4), (3.0, 0.3)]),
            ],
        )
        .unwrap();
        let ranked = rank_broadcast(&t, 2000).unwrap();
        assert_eq!(ranked.len(), 6, "2 flat + 4 hierarchical candidates");
        assert!(ranked.windows(2).all(|w| w[0].cost <= w[1].cost));
        assert_eq!(best_broadcast(&t, 2000).unwrap().cost, ranked[0].cost);
    }

    #[test]
    fn zero_candidates_is_a_typed_error_not_an_empty_ranking() {
        let t = TreeBuilder::homogeneous(1.0, 100.0, 4).unwrap();
        assert_eq!(
            rank_broadcast_with(&t, 1000, vec![]).unwrap_err(),
            TuneError::NoCandidates
        );
    }

    #[test]
    fn unresolvable_root_is_a_typed_error() {
        let t = TreeBuilder::homogeneous(1.0, 100.0, 2).unwrap();
        let mut plan = BroadcastPlan::one_phase();
        plan.root = crate::plan::RootPolicy::Rank(99);
        assert!(matches!(
            rank_broadcast_with(&t, 1000, vec![plan]).unwrap_err(),
            TuneError::Root(_)
        ));
    }

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
    fn best_plan_covers_every_kind() {
        let t = clustered();
        for kind in CollectiveKind::ALL {
            let best = best_plan(&t, kind, 512).unwrap();
            assert_eq!(best.kind, kind);
            assert!(best.cost.is_finite() && best.cost > 0.0, "{kind}");
            assert!(best.schedule.num_steps() >= 2, "{kind} has steps + drain");
            let ranked = rank_plans(&t, kind, 512).unwrap();
            assert!(ranked.windows(2).all(|w| w[0].cost <= w[1].cost));
            assert_eq!(best.cost, ranked[0].cost);
        }
    }

    #[test]
    fn best_plan_ranking_is_the_broadcast_tuner_for_broadcasts() {
        let t = clustered();
        let generic = best_plan(&t, CollectiveKind::Broadcast, 2000).unwrap();
        let specific = best_broadcast(&t, 2000).unwrap();
        assert_eq!(generic.cost, specific.cost);
        assert_eq!(generic.strategy, specific.plan.strategy);
    }

    #[test]
    fn rooted_plans_resolve_the_fastest_root() {
        let t = clustered();
        for kind in [
            CollectiveKind::Gather,
            CollectiveKind::Scatter,
            CollectiveKind::Reduce,
        ] {
            let best = best_plan(&t, kind, 100).unwrap();
            assert_eq!(best.root, Some(t.fastest_proc()), "{kind}");
        }
        assert_eq!(best_plan(&t, CollectiveKind::Scan, 100).unwrap().root, None);
    }

    #[test]
    fn single_proc_machines_still_rank() {
        let mut b = TreeBuilder::new(1.0);
        b.proc_root("solo", NodeParams::fastest());
        let t = b.build().unwrap();
        for kind in CollectiveKind::ALL {
            let best = best_plan(&t, kind, 64).unwrap();
            assert_eq!(best.cost, 0.0, "{kind}: nothing moves on one proc");
        }
    }

    #[test]
    fn retune_keeps_the_incumbent_when_nothing_drifted() {
        let t = clustered();
        let plan = best_plan(&t, CollectiveKind::Broadcast, 2000).unwrap();
        let re = retune(&t, 2000, &plan).unwrap();
        assert!(!re.switched, "same tree, same winner");
        assert_eq!(re.plan.cost, plan.cost);
        assert_eq!(re.incumbent_cost, plan.cost);
    }

    #[test]
    fn retune_switches_when_observation_moves_the_optimum() {
        let t = clustered();
        // Tune on a belief where communication is nearly free: flat
        // one-phase broadcast wins (no forwarding work).
        let cheap = hbsp_core::ObservedParams {
            g: Some(1e-6),
            ..Default::default()
        };
        let belief = t.reparameterize(&cheap).unwrap();
        let incumbent = best_plan(&belief, CollectiveKind::Broadcast, 5000).unwrap();
        // Observation: the gap is actually 400× that belief. Re-tuning
        // on the corrected tree must price the incumbent honestly and
        // beat it if any candidate is cheaper there.
        let re = retune(&t, 5000, &incumbent).unwrap();
        let best_now = best_plan(&t, CollectiveKind::Broadcast, 5000).unwrap();
        assert_eq!(re.plan.cost, best_now.cost.min(re.incumbent_cost));
        assert!(re.plan.cost <= re.incumbent_cost);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in CollectiveKind::ALL {
            assert_eq!(CollectiveKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CollectiveKind::parse("bogus"), None);
    }
}
