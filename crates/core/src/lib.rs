//! # hbsp-core — the HBSP^k machine model
//!
//! This crate implements the *k-Heterogeneous Bulk Synchronous Parallel*
//! (HBSP^k) model of Williams & Parsons (IPPS 2001): a hierarchical
//! generalization of Valiant's BSP model for heterogeneous cluster
//! environments.
//!
//! An HBSP^k machine is a tree of height `k`. Leaves are physical
//! processors; internal nodes are clusters whose *coordinator* is, by
//! convention, the fastest machine in the subtree. Each node `M_{i,j}`
//! (the `j`-th machine on level `i`) carries the model parameters of the
//! paper's Table 1:
//!
//! * `g` — time for the *fastest* machine to inject one word into the
//!   network (global, stored on the tree);
//! * `r_{i,j}` — relative communication slowness of `M_{i,j}` (fastest = 1);
//! * `L_{i,j}` — cost of barrier-synchronizing the subtree of `M_{i,j}`;
//! * `c_{i,j}` — fraction of the problem assigned to `M_{i,j}`;
//! * a relative compute speed (used to rank machines and derive `c`).
//!
//! The crate provides:
//!
//! * [`tree`] / [`builder`] — an arena-backed machine tree with the paper's
//!   level/index (`M_{i,j}`) addressing;
//! * [`topology`] — a small textual DSL for describing machines;
//! * [`mod@hrelation`] — heterogeneous h-relations `h = max r_{i,j} · h_{i,j}`;
//! * [`cost`] — the superstep cost model `T_i(λ) = w_i + g·h + L_{i,j}`;
//! * [`workload`] — balanced workload partitioning (the `c_{i,j}` feature);
//! * [`schedule`] — the communication-schedule IR (`CommSchedule`) the
//!   collectives lower to, the interpreter runs and `hbsp-check` verifies;
//! * [`rebuild`] — structure-preserving rebuilds under the paper's
//!   normalization rules: sub-tree carving (any node as a standalone
//!   machine, the unit of spatial multi-tenancy), graceful degradation
//!   around dead processors, and reparameterization with observed
//!   parameters (the belief tree of adaptive execution).
//!
//! Execution engines live in the sibling crates `hbsp-sim` (discrete-event
//! simulator) and `hbsp-runtime` (threaded runtime); the programming API in
//! `hbsplib`; the paper's collective algorithms in `hbsp-collectives`.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cost;
pub mod error;
pub mod hrelation;
pub mod ids;
pub mod params;
pub mod rebuild;
pub mod schedule;
pub mod spmd;
pub mod topology;
pub mod tree;
pub mod workload;

pub use builder::TreeBuilder;
pub use cost::{CostModel, CostReport, SuperstepCost};
pub use error::ModelError;
pub use hrelation::{hrelation, HRelation, Traffic};
pub use ids::{Level, MachineId, NodeIdx, ProcId};
pub use params::{NodeParams, DEFAULT_G};
pub use rebuild::{Carved, DegradeError, Degraded, ObservedParams, ReparamError};
pub use schedule::{
    step_hrelation, step_hrelation_into, CommSchedule, Role, ScheduleStep, Transfer, UnitId, Units,
};
pub use spmd::{
    FillLength, Inbox, InboxIter, Message, MsgBatch, MsgView, PreflightError, ProcEnv,
    SharedPayload, SpmdContext, SpmdProgram, StepOutcome, SyncScope, WireWriter,
};
pub use tree::{MachineTree, Node, NodeKind};
pub use workload::{apportion, apportion_by, Partition};

// The unit tests of `rebuild`'s three entry points, one module per entry
// point, so each test's name says which one it exercises.

/// Two asymmetric LANs under one campus. Speed and `r` deliberately
/// disagree in cluster 0: the fastest computer (P1) is not the fastest
/// communicator once P0 is gone (that is P2, r=2.0). Cluster 1's fastest
/// communicator (P3) has r=1.6: carving cluster 1 or losing P0 makes it
/// the new r=1.
#[cfg(test)]
fn campus_like() -> MachineTree {
    TreeBuilder::two_level(
        2.0,
        1000.0,
        &[
            (50.0, vec![(1.0, 1.0), (2.4, 0.9), (2.0, 0.5)]),
            (60.0, vec![(1.6, 0.8), (3.0, 0.3)]),
        ],
    )
    .unwrap()
}

#[cfg(test)]
mod carve {
    mod tests {
        use crate::*;

        #[test]
        fn carving_the_root_is_an_identity_rebuild() {
            let t = campus_like();
            let c = t.carve(t.root());
            c.tree.validate().unwrap();
            assert_eq!(c.tree.num_procs(), 5);
            assert_eq!(c.tree.height(), 2);
            assert_eq!(c.tree.g(), t.g(), "min_r is already 1 at the root");
            assert_eq!(
                *c.leaves,
                *(0..5).map(ProcId).collect::<Vec<_>>(),
                "identity rank map"
            );
            for i in 0..5 {
                let pid = ProcId(i);
                assert_eq!(c.tree.leaf(pid).params().r, t.leaf(pid).params().r);
                assert_eq!(c.tree.leaf(pid).name(), t.leaf(pid).name());
            }
        }

        #[test]
        fn carving_a_cluster_renormalizes_r_and_g_exactly() {
            let t = campus_like();
            // Cluster 1 holds P3 (r=1.6) and P4 (r=3.0): its local min is 1.6.
            let c1 = t.cluster_of(ProcId(3), 1).unwrap();
            let c = t.carve(c1);
            c.tree.validate().unwrap();
            assert_eq!(c.tree.num_procs(), 2);
            assert_eq!(c.tree.height(), 1);
            assert_eq!(*c.leaves, [ProcId(3), ProcId(4)]);
            assert_eq!(c.tree.leaf(ProcId(0)).params().r, 1.0, "exactly 1");
            assert_eq!(c.tree.g(), 2.0 * 1.6, "g absorbs the factor");
            // Absolute per-word cost r·g is preserved for every carved leaf.
            for (old, new) in [(3usize, 0usize), (4, 1)] {
                let before = t.leaf(ProcId(old as u32)).params().r * t.g();
                let after = c.tree.leaf(ProcId(new as u32)).params().r * c.tree.g();
                assert!((before - after).abs() < 1e-12, "{old}->{new}");
            }
        }

        #[test]
        fn carved_coordinator_is_the_fastest_communicator() {
            let t = campus_like();
            let c0 = t.cluster_of(ProcId(0), 1).unwrap();
            let c = t.carve(c0);
            // All three of cluster 0 carved: P0 (r=1) stays coordinator.
            let rep = c.tree.node(c.tree.node(c.tree.root()).representative());
            assert_eq!(rep.proc_id(), Some(ProcId(0)));
            assert_eq!(c.tree.node(c.tree.root()).params().r, 1.0);
        }

        #[test]
        fn carved_fractions_are_speed_proportional() {
            let t = campus_like();
            let c1 = t.cluster_of(ProcId(3), 1).unwrap();
            let c = t.carve(c1);
            let total: f64 = (0..2).map(|i| c.tree.leaf(ProcId(i)).params().speed).sum();
            let mut sum = 0.0;
            for i in 0..2 {
                let leaf = c.tree.leaf(ProcId(i));
                let frac = leaf.params().c.expect("carve assigns fractions");
                assert!((frac - leaf.params().speed / total).abs() < 1e-12);
                sum += frac;
            }
            assert!((sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn carving_a_leaf_yields_a_single_proc_machine() {
            let t = campus_like();
            let leaf = t.leaves()[4]; // P4: r=3.0, speed=0.3
            let c = t.carve(leaf);
            c.tree.validate().unwrap();
            assert_eq!(c.tree.height(), 0);
            assert_eq!(c.tree.num_procs(), 1);
            assert_eq!(*c.leaves, [ProcId(4)]);
            assert_eq!(c.tree.leaf(ProcId(0)).params().r, 1.0);
            assert_eq!(c.tree.g(), 2.0 * 3.0);
        }

        #[test]
        fn rank_maps_round_trip() {
            let t = campus_like();
            let c0 = t.cluster_of(ProcId(1), 1).unwrap();
            let c = t.carve(c0);
            assert_eq!(c.original(ProcId(1)), ProcId(1));
            assert_eq!(c.carved_rank(ProcId(2)), Some(ProcId(2)));
            assert_eq!(c.carved_rank(ProcId(4)), None, "not carved in");
        }

        #[test]
        fn sibling_carves_are_leaf_disjoint() {
            let t = campus_like();
            let a = t.carve(t.cluster_of(ProcId(0), 1).unwrap());
            let b = t.carve(t.cluster_of(ProcId(3), 1).unwrap());
            assert!(a.leaves.iter().all(|p| !b.leaves.contains(p)));
            assert_eq!(a.leaves.len() + b.leaves.len(), t.num_procs());
        }

        #[test]
        fn carve_composes_with_itself() {
            // Carve a mid-level cluster out of an HBSP^3 machine, then carve
            // a LAN out of the carved campus: r stays unit-normalized and
            // r·g absolute costs survive both hops.
            let mut b = TreeBuilder::new(1.5);
            let root = b.cluster("wan", NodeParams::cluster(5000.0));
            let campus = b.child_cluster(root, "campus", NodeParams::cluster(500.0));
            let lan0 = b.child_cluster(campus, "lan0", NodeParams::cluster(50.0));
            b.child_proc(lan0, "a", NodeParams::proc(2.0, 0.9));
            b.child_proc(lan0, "b", NodeParams::proc(4.0, 0.5));
            let lan1 = b.child_cluster(campus, "lan1", NodeParams::cluster(60.0));
            b.child_proc(lan1, "c", NodeParams::proc(3.0, 0.4));
            let other = b.child_cluster(root, "other", NodeParams::cluster(70.0));
            b.child_proc(other, "d", NodeParams::proc(1.0, 1.0));
            let t = b.build().unwrap();

            let campus_idx = t.resolve(MachineId::new(2, 0)).unwrap();
            let carved_campus = t.carve(campus_idx);
            carved_campus.tree.validate().unwrap();
            assert_eq!(carved_campus.tree.g(), 1.5 * 2.0);

            let lan_idx = carved_campus.tree.resolve(MachineId::new(1, 0)).unwrap();
            let carved_lan = carved_campus.tree.carve(lan_idx);
            carved_lan.tree.validate().unwrap();
            // Absolute cost of "b" (original r=4.0): through both carves.
            let cost = carved_lan.tree.leaf(ProcId(1)).params().r * carved_lan.tree.g();
            assert!((cost - 4.0 * 1.5).abs() < 1e-12);
            // Rank maps compose: carved_lan rank 1 is carved_campus rank 1,
            // which is original rank 1 ("b").
            assert_eq!(
                carved_campus.original(carved_lan.original(ProcId(1))),
                ProcId(1)
            );
        }
    }
}

#[cfg(test)]
mod degrade {
    mod tests {
        use crate::*;

        #[test]
        fn dropping_a_leaf_preserves_structure_and_costs() {
            let t = campus_like();
            let d = t.degrade(&[ProcId(4)]).unwrap();
            assert_eq!(d.tree.num_procs(), 4);
            assert_eq!(d.tree.height(), 2);
            d.tree.validate().unwrap();
            assert_eq!(
                d.rank_map,
                vec![
                    Some(ProcId(0)),
                    Some(ProcId(1)),
                    Some(ProcId(2)),
                    Some(ProcId(3)),
                    None
                ]
            );
            // Fastest survivor still r=1, so g is untouched and names map.
            assert_eq!(d.tree.g(), t.g());
            assert_eq!(d.tree.leaf(ProcId(0)).name(), t.leaf(ProcId(0)).name());
            assert_eq!(d.tree.leaf(ProcId(3)).name(), t.leaf(ProcId(3)).name());
        }

        #[test]
        fn killing_the_fastest_renormalizes_r_and_g() {
            let t = campus_like();
            let d = t.degrade(&[ProcId(0)]).unwrap();
            d.tree.validate().unwrap();
            // New min r is 1.6 (old P3): it must be *exactly* 1 now.
            assert_eq!(d.tree.leaf(ProcId(2)).params().r, 1.0);
            assert_eq!(d.tree.g(), 2.0 * 1.6);
            // Every survivor's absolute per-word cost r·g is preserved.
            for (old, new) in [(1usize, 0usize), (2, 1), (3, 2), (4, 3)] {
                let before = t.leaf(ProcId(old as u32)).params().r * t.g();
                let after = d.tree.leaf(ProcId(new as u32)).params().r * d.tree.g();
                assert!((before - after).abs() < 1e-12, "{old}->{new}");
            }
        }

        #[test]
        fn coordinators_reelected_by_min_r() {
            let t = campus_like();
            // Kill P0 (r=1, speed=1). Cluster 0's survivors: P1 (r=2.4,
            // speed=0.9) and P2 (r=2.0, speed=0.5). The paper's
            // coordinator-fastest rule in Table-1 terms picks the fastest
            // *communicator* P2 — even though P1 computes faster.
            let d = t.degrade(&[ProcId(0)]).unwrap();
            let cluster0 = d.tree.node(d.tree.leaf(ProcId(0)).parent().unwrap());
            let rep = d.tree.node(cluster0.representative());
            assert_eq!(rep.proc_id(), Some(ProcId(1)), "old P2 is the coordinator");
            assert_eq!(cluster0.params().r, 2.0 / 1.6, "cluster inherits rep's r");
            // Root coordinator: global min r is old P3 (1.6 -> 1.0).
            let root_rep = d.tree.node(d.tree.node(d.tree.root()).representative());
            assert_eq!(root_rep.params().r, 1.0);
        }

        #[test]
        fn fractions_renormalize_speed_proportionally() {
            let t = campus_like();
            let d = t.degrade(&[ProcId(1), ProcId(4)]).unwrap();
            let total_speed: f64 = (0..d.tree.num_procs())
                .map(|i| d.tree.leaf(ProcId(i as u32)).params().speed)
                .sum();
            let mut sum = 0.0;
            for i in 0..d.tree.num_procs() {
                let leaf = d.tree.leaf(ProcId(i as u32));
                let c = leaf.params().c.expect("degrade assigns fractions");
                assert!(
                    (c - leaf.params().speed / total_speed).abs() < 1e-12,
                    "speed-proportional"
                );
                sum += c;
            }
            assert!((sum - 1.0).abs() < 1e-9);
        }

        #[test]
        fn emptied_cluster_is_a_typed_error() {
            let t = campus_like();
            assert_eq!(
                t.degrade(&[ProcId(3), ProcId(4)]).unwrap_err(),
                DegradeError::ClusterEmptied {
                    name: "c1".to_string()
                }
            );
        }

        #[test]
        fn losing_everyone_and_bad_pids_are_typed_errors() {
            let t = campus_like();
            let all: Vec<ProcId> = (0..5).map(ProcId).collect();
            assert_eq!(
                t.degrade(&all).unwrap_err(),
                DegradeError::AllProcessorsLost
            );
            assert_eq!(
                t.degrade(&[ProcId(99)]).unwrap_err(),
                DegradeError::NoSuchProc { pid: ProcId(99) }
            );
        }

        #[test]
        fn degrading_nothing_is_an_identity_renumbering() {
            let t = campus_like();
            let d = t.degrade(&[]).unwrap();
            assert_eq!(d.tree.num_procs(), 5);
            assert!(d
                .rank_map
                .iter()
                .enumerate()
                .all(|(i, m)| *m == Some(ProcId(i as u32))));
            d.tree.validate().unwrap();
        }

        #[test]
        fn repeated_degradation_composes() {
            let t = campus_like();
            let d1 = t.degrade(&[ProcId(0)]).unwrap();
            let d2 = d1.tree.degrade(&[ProcId(3)]).unwrap();
            d2.tree.validate().unwrap();
            assert_eq!(d2.tree.num_procs(), 3);
            // r stays unit-normalized through the composition.
            let min_r = (0..3)
                .map(|i| d2.tree.leaf(ProcId(i)).params().r)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(min_r, 1.0);
        }

        #[test]
        fn single_proc_machine_degrades_to_nothing_only() {
            let mut b = TreeBuilder::new(1.0);
            b.proc_root("solo", NodeParams::fastest());
            let t = b.build().unwrap();
            assert_eq!(
                t.degrade(&[ProcId(0)]).unwrap_err(),
                DegradeError::AllProcessorsLost
            );
        }
    }
}

#[cfg(test)]
mod reparam {
    mod tests {
        use crate::*;

        #[test]
        fn empty_observation_is_an_identity_up_to_fractions() {
            let t = campus_like();
            let u = t.reparameterize(&ObservedParams::default()).unwrap();
            assert_eq!(u.g(), t.g());
            assert_eq!(u.num_procs(), t.num_procs());
            assert_eq!(u.height(), t.height());
            for i in 0..t.num_procs() {
                let pid = ProcId(i as u32);
                assert_eq!(u.leaf(pid).name(), t.leaf(pid).name());
                assert_eq!(u.leaf(pid).params().r, t.leaf(pid).params().r);
                assert_eq!(u.leaf(pid).params().speed, t.leaf(pid).params().speed);
            }
            u.validate().unwrap();
        }

        #[test]
        fn observed_r_inflation_renormalizes_and_reelects() {
            let t = campus_like();
            // P0 (the old fastest communicator) is observed 5× slower on
            // the wire; everyone else matches belief.
            let obs = ObservedParams {
                g: None,
                r_by_proc: vec![5.0, 2.4, 2.0, 1.6, 3.0],
                speed_by_proc: vec![],
                l_by_level: vec![],
            };
            let u = t.reparameterize(&obs).unwrap();
            u.validate().unwrap();
            // New min r = 1.6 (P3): exactly 1 after renormalization, with
            // g absorbing the factor.
            assert_eq!(u.leaf(ProcId(3)).params().r, 1.0);
            assert!((u.g() - 2.0 * 1.6).abs() < 1e-12);
            // Absolute per-word costs match the observation.
            assert!((u.leaf(ProcId(0)).params().r * u.g() - 5.0 * 2.0).abs() < 1e-12);
            // Cluster 0's coordinator is no longer P0: P2 (r=2.0) beats
            // P1 (r=2.4) and the straggling P0.
            let cluster0 = u.node(u.leaf(ProcId(0)).parent().unwrap());
            assert_eq!(
                u.node(cluster0.representative()).proc_id(),
                Some(ProcId(2)),
                "coordinator re-elected away from the straggler"
            );
        }

        #[test]
        fn observed_speeds_rebalance_fractions() {
            let t = campus_like();
            // P0 observed at half its believed speed.
            let obs = ObservedParams {
                g: None,
                r_by_proc: vec![],
                speed_by_proc: vec![0.5, 0.9, 0.5, 0.8, 0.3],
                l_by_level: vec![],
            };
            let u = t.reparameterize(&obs).unwrap();
            // Max observed speed is 0.9 → renormalized so P1 is exactly 1.
            assert_eq!(u.leaf(ProcId(1)).params().speed, 1.0);
            let total: f64 = (0..5).map(|i| u.leaf(ProcId(i)).params().speed).sum();
            for i in 0..5 {
                let leaf = u.leaf(ProcId(i));
                let c = leaf.params().c.expect("fractions assigned");
                assert!(
                    (c - leaf.params().speed / total).abs() < 1e-12,
                    "speed-proportional after reparameterization"
                );
            }
        }

        #[test]
        fn unobserved_zero_entries_keep_belief() {
            let t = campus_like();
            let obs = ObservedParams {
                g: Some(3.0),
                r_by_proc: vec![0.0, 0.0, 0.0, 0.0, 0.0],
                speed_by_proc: vec![0.0; 5],
                l_by_level: vec![(1, 75.0)],
            };
            let u = t.reparameterize(&obs).unwrap();
            assert_eq!(u.g(), 3.0, "g updated");
            assert_eq!(u.leaf(ProcId(1)).params().r, 2.4, "r kept");
            // Both level-1 clusters adopt the fitted L̂.
            for i in [0u32, 3] {
                let cluster = u.node(u.leaf(ProcId(i)).parent().unwrap());
                assert_eq!(cluster.params().l_sync, 75.0);
            }
        }

        #[test]
        fn bad_estimates_are_typed_errors() {
            let t = campus_like();
            let short = ObservedParams {
                r_by_proc: vec![1.0, 2.0],
                ..Default::default()
            };
            assert!(matches!(
                t.reparameterize(&short).unwrap_err(),
                ReparamError::WrongProcCount {
                    expected: 5,
                    got: 2
                }
            ));
            let nan = ObservedParams {
                speed_by_proc: vec![1.0, f64::NAN, 1.0, 1.0, 1.0],
                ..Default::default()
            };
            assert!(matches!(
                t.reparameterize(&nan).unwrap_err(),
                ReparamError::BadEstimate { what: "speed", .. }
            ));
            let bad_g = ObservedParams {
                g: Some(-1.0),
                ..Default::default()
            };
            assert!(matches!(
                t.reparameterize(&bad_g).unwrap_err(),
                ReparamError::BadEstimate { what: "g", .. }
            ));
        }

        /// Fails at the commit before the fix: each estimate is in
        /// range, but `r / min_r` overflows for every other processor
        /// and the rebuild panicked.
        #[test]
        fn estimates_that_describe_no_valid_machine_are_a_typed_error() {
            let t = campus_like();
            let tiny_r = ObservedParams {
                r_by_proc: vec![1e-310, 0.0, 0.0, 0.0, 0.0],
                ..Default::default()
            };
            assert!(matches!(
            t.reparameterize(&tiny_r).unwrap_err(),
            ReparamError::InvalidBelief(ModelError::InvalidR { r, .. }) if r == f64::INFINITY
            ));
        }
    }
}
