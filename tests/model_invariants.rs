//! Property tests on the machine model itself: tree invariants, the
//! `M_{i,j}` addressing scheme, workload apportionment, h-relations,
//! and the topology DSL round trip.

mod common;

use common::arb_machine;
use hbsp::core::topology;
use hbsp::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn level_indexing_is_dense_and_ordered(tree in arb_machine()) {
        for level in 0..=tree.height() {
            let nodes = tree.level_nodes(level).unwrap();
            for (j, &idx) in nodes.iter().enumerate() {
                let node = tree.node(idx);
                prop_assert_eq!(node.level(), level);
                prop_assert_eq!(node.machine_id(), MachineId::new(level, j as u32));
                prop_assert_eq!(tree.resolve(node.machine_id()).unwrap(), idx);
            }
        }
        // Exactly one machine at the top: the HBSP^k root.
        prop_assert_eq!(tree.machines_on_level(tree.height()).unwrap(), 1);
    }

    #[test]
    fn representative_is_fastest_leaf(tree in arb_machine()) {
        for node in tree.nodes() {
            let rep = tree.node(node.representative());
            prop_assert!(rep.is_proc());
            let max_speed = tree
                .subtree_leaves(node.idx())
                .iter()
                .map(|&l| tree.node(l).params().speed)
                .fold(0.0f64, f64::max);
            prop_assert_eq!(rep.params().speed, max_speed);
        }
    }

    #[test]
    fn ranks_are_dense_and_left_to_right(tree in arb_machine()) {
        for (i, &leaf) in tree.leaves().iter().enumerate() {
            prop_assert_eq!(tree.node(leaf).proc_id(), Some(ProcId(i as u32)));
        }
        let all: Vec<_> = tree.subtree_leaves(tree.root());
        prop_assert_eq!(all.len(), tree.num_procs());
    }

    #[test]
    fn validation_passes_on_generated_machines(tree in arb_machine()) {
        tree.validate().unwrap();
    }

    #[test]
    fn dsl_round_trip_preserves_everything(tree in arb_machine()) {
        let text = topology::to_dsl(&tree);
        let back = topology::parse(&text).unwrap();
        prop_assert_eq!(tree.height(), back.height());
        prop_assert_eq!(tree.num_procs(), back.num_procs());
        prop_assert_eq!(tree.g(), back.g());
        for (a, b) in tree.nodes().zip(back.nodes()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.machine_id(), b.machine_id());
            prop_assert_eq!(a.params().r, b.params().r);
            prop_assert_eq!(a.params().l_sync, b.params().l_sync);
            prop_assert_eq!(a.params().speed, b.params().speed);
        }
    }

    #[test]
    fn apportionment_is_exact_and_monotone(
        n in 0u64..1_000_000,
        weights in proptest::collection::vec(0.01f64..100.0, 1..20),
    ) {
        let shares = apportion(n, &weights);
        prop_assert_eq!(shares.iter().sum::<u64>(), n);
        // Largest weight never gets fewer items than the smallest
        // weight (monotonicity up to the ±1 apportionment residue).
        let (imax, _) = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let (imin, _) = weights
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        prop_assert!(shares[imax] + 1 >= shares[imin]);
    }

    #[test]
    fn partition_owner_is_consistent(
        n in 1u64..10_000,
        weights in proptest::collection::vec(0.05f64..10.0, 1..12),
    ) {
        let partition = Partition::balanced(n, &weights).unwrap();
        for item in [0, n / 3, n / 2, n - 1] {
            let owner = partition.owner(item).unwrap();
            prop_assert!(partition.range(owner).contains(&item));
        }
        prop_assert!(partition.owner(n).is_none());
        let total: f64 = partition.fractions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hrelation_is_max_of_weighted_traffic(
        sends in proptest::collection::vec((0u32..6, 0u32..6, 1u64..1000), 1..30),
    ) {
        let mut hr = HRelation::new();
        for &(s, d, w) in &sends {
            hr.send(MachineId::new(0, s), MachineId::new(0, d), w);
        }
        let r = |id: MachineId| 1.0 + id.index as f64;
        let h = hr.h(r);
        // h is attained by some participant and bounds all of them.
        let mut best = 0.0f64;
        for (id, t) in hr.participants() {
            let v = r(id) * t.h() as f64;
            prop_assert!(v <= h + 1e-9);
            best = best.max(v);
        }
        prop_assert_eq!(best, h);
        // Weighted h dominates the homogeneous one (all r >= 1).
        prop_assert!(h >= hr.h_homogeneous() as f64);
    }

    #[test]
    fn lca_is_symmetric_and_an_ancestor(tree in arb_machine()) {
        let leaves = tree.leaves();
        for &a in leaves.iter().take(3) {
            for &b in leaves.iter().rev().take(3) {
                let l1 = tree.lca(a, b);
                let l2 = tree.lca(b, a);
                prop_assert_eq!(l1, l2);
                // The LCA contains both leaves.
                let sub = tree.subtree_leaves(l1);
                prop_assert!(sub.contains(&a) && sub.contains(&b));
            }
        }
    }
}
