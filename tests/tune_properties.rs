//! Pricing shortcuts that must not move a price, on random HBSP^1–3
//! machines and all seven collectives:
//!
//! 1. `best_plan` keeps the first strictly cheapest candidate instead of
//!    ranking them all, and so returns exactly `rank_plans(..)[0]`;
//! 2. `HRelation` holds its traffic in a sorted vector, and prices every
//!    step of every candidate bit for bit as an ordered map of the same
//!    traffic does, with its participants in `MachineId` order.

mod common;

use common::arb_machine;
use hbsp::collectives::schedule::step_hrelation;
use hbsp::collectives::tune::{best_plan, rank_plans};
use hbsp::collectives::{CollectiveKind, ScheduleStep};
use hbsp::core::{MachineId, MachineTree};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The heterogeneous h of `step` from an ordered map of each machine's
/// words sent and received.
fn map_h(tree: &MachineTree, step: &ScheduleStep) -> f64 {
    let mut traffic: BTreeMap<MachineId, (u64, u64)> = BTreeMap::new();
    for t in step.transfers.iter().filter(|t| t.src != t.dst) {
        traffic.entry(tree.leaf(t.src).machine_id()).or_default().0 += t.words;
        traffic.entry(tree.leaf(t.dst).machine_id()).or_default().1 += t.words;
    }
    let r = |id: &MachineId| tree.node(tree.resolve(*id).unwrap()).params().r;
    (traffic.iter())
        .map(|(id, &(sent, received))| r(id) * sent.max(received) as f64)
        .max_by(f64::total_cmp)
        .unwrap_or(0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn best_plan_is_the_first_ranked_and_h_prices_as_a_map(
        tree in arb_machine(),
        n in 1u64..48,
    ) {
        for kind in CollectiveKind::ALL {
            let ranked = rank_plans(&tree, kind, n).unwrap();
            let (best, first) = (best_plan(&tree, kind, n).unwrap(), &ranked[0]);
            prop_assert_eq!(
                (best.strategy, best.workload, best.root, best.cost.to_bits()),
                (first.strategy, first.workload, first.root, first.cost.to_bits()),
                "{}", kind
            );
            prop_assert_eq!(&best.schedule, &first.schedule, "{}", kind);
            for step in ranked.iter().flat_map(|plan| &plan.schedule.steps) {
                let hr = step_hrelation(&tree, step);
                prop_assert_eq!(hr.h_on(&tree).to_bits(), map_h(&tree, step).to_bits());
                let ids: Vec<MachineId> = hr.participants().map(|(id, _)| id).collect();
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "{:?}", ids);
            }
        }
    }
}
