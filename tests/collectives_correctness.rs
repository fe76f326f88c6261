//! Property tests: every collective delivers the right data on random
//! heterogeneous machines, under every plan, on both engines — which
//! agree on the whole run, model time to the bit.

mod common;

use common::{arb_items, arb_machine, same_on_both};
use hbsp::collectives::broadcast::BroadcastPlan;
use hbsp::collectives::data::reassemble;
use hbsp::collectives::gather::GatherPlan;
use hbsp::collectives::plan::{PhasePolicy, RootPolicy, Strategy, WorkloadPolicy};
use hbsp::collectives::reduce::ReduceOp;
use hbsp::collectives::{allgather, alltoall, broadcast, gather, reduce, scan, scatter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gather_collects_everything((tree, items) in (arb_machine(), arb_items())) {
        for plan in [
            GatherPlan::fast_root(),
            GatherPlan::slow_root(),
            GatherPlan::balanced(),
            GatherPlan::bsp_baseline(),
            GatherPlan::hierarchical(),
        ] {
            let run = same_on_both(&tree, |exec| gather::run(exec, &items, plan).unwrap());
            prop_assert_eq!(&run.result, &items, "{:?}", plan);
            prop_assert!(run.time >= 0.0);
        }
    }

    #[test]
    fn broadcast_reaches_every_processor((tree, items) in (arb_machine(), arb_items())) {
        for plan in [
            BroadcastPlan::one_phase(),
            BroadcastPlan::two_phase(),
            BroadcastPlan::slow_root(),
            BroadcastPlan::balanced(),
            BroadcastPlan::hierarchical(PhasePolicy::OnePhase),
            BroadcastPlan::hierarchical(PhasePolicy::TwoPhase),
        ] {
            // The runner checks that every processor got the full array
            // and returns the last rank's copy.
            let run = same_on_both(&tree, |exec| broadcast::run(exec, &items, plan).unwrap());
            prop_assert_eq!(&run.result, &items, "{:?}", plan);
        }
    }

    #[test]
    fn scatter_tiles_the_input((tree, items) in (arb_machine(), arb_items())) {
        for wl in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
            let run =
                same_on_both(&tree, |exec| scatter::run(exec, &items, RootPolicy::Fastest, wl).unwrap());
            prop_assert_eq!(reassemble(&run.pieces), items.clone(), "{:?}", wl);
        }
    }

    #[test]
    fn allgather_assembles_everywhere((tree, items) in (arb_machine(), arb_items())) {
        for strat in [Strategy::Flat, Strategy::Hierarchical] {
            let run = same_on_both(&tree, |exec| {
                allgather::run(exec, &items, WorkloadPolicy::Balanced, strat).unwrap()
            });
            prop_assert_eq!(&run.result, &items, "{:?}", strat);
        }
    }

    #[test]
    fn reduce_matches_sequential_fold(
        tree in arb_machine(),
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let p = tree.num_procs();
        let mut x = seed | 1;
        let vectors: Vec<Vec<u32>> = (0..p)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u32
                    })
                    .collect()
            })
            .collect();
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let want = op.reference(&vectors);
            for strat in [Strategy::Flat, Strategy::Hierarchical] {
                let run = same_on_both(&tree, |exec| {
                    reduce::run(exec, vectors.clone(), op, RootPolicy::Fastest, strat).unwrap()
                });
                prop_assert_eq!(&run.result, &want, "{:?} {:?}", op, strat);
            }
            let (reduced, spread) = same_on_both(&tree, |exec| {
                reduce::allreduce(exec, vectors.clone(), op, Strategy::Flat).unwrap()
            });
            prop_assert_eq!(&reduced.result, &want, "allreduce {:?}", op);
            prop_assert_eq!(&spread.result, &want, "allreduce {:?}", op);
        }
    }

    #[test]
    fn scan_matches_prefix_fold(tree in arb_machine(), len in 0usize..100) {
        let p = tree.num_procs();
        let vectors: Vec<Vec<u32>> =
            (0..p).map(|i| (0..len).map(|j| (i * 131 + j * 7) as u32).collect()).collect();
        let run = same_on_both(&tree, |exec| {
            scan::run(exec, vectors.clone(), ReduceOp::Sum).unwrap()
        });
        let mut acc: Option<Vec<u32>> = None;
        for (j, v) in vectors.iter().enumerate() {
            match &mut acc {
                None => acc = Some(v.clone()),
                Some(a) => ReduceOp::Sum.fold_into(a, v),
            }
            prop_assert_eq!(&run.prefixes[j], acc.as_ref().unwrap(), "rank {}", j);
        }
    }

    #[test]
    fn alltoall_transposes(tree in arb_machine(), stride in 1usize..16) {
        let p = tree.num_procs();
        let blocks: Vec<Vec<Vec<u32>>> = (0..p)
            .map(|i| (0..p).map(|j| vec![(i * 1000 + j) as u32; stride]).collect())
            .collect();
        let run = same_on_both(&tree, |exec| {
            alltoall::run(exec, blocks.clone(), Strategy::Flat).unwrap()
        });
        for (j, row) in run.received.iter().enumerate() {
            for (i, block) in row.iter().enumerate() {
                prop_assert_eq!(block, &blocks[i][j]);
            }
        }
    }
}
