//! Hierarchical enquiry: which cluster a processor sits in at each
//! level, and which processor coordinates it.

use hbsp_core::{Level, MachineTree, NodeIdx, ProcId};

/// Enquiry extensions on [`MachineTree`]: the hierarchical queries an
/// HBSP^k program needs beside `fastest_proc`/`slowest_proc`.
pub trait TreeEnquiry {
    /// The coordinator (representative) processor of the cluster that
    /// contains `pid` at `level`: the fastest leaf of that subtree. At
    /// `level = k` this is the paper's `P_f` for every pid.
    fn coordinator_of(&self, pid: ProcId, level: Level) -> ProcId;

    /// All processors in `pid`'s level-`level` cluster, in rank order
    /// (including `pid`).
    fn cluster_members(&self, pid: ProcId, level: Level) -> Vec<ProcId>;

    /// The coordinators of all level-`level` machines, in `M_{level,j}`
    /// order — the participant set of a super^`level+1`-step.
    fn level_coordinators(&self, level: Level) -> Vec<ProcId>;
}

impl TreeEnquiry for MachineTree {
    fn coordinator_of(&self, pid: ProcId, level: Level) -> ProcId {
        let cluster = self
            .cluster_of(pid, level)
            .unwrap_or_else(|| self.leaves()[pid.rank()]);
        representative_rank(self, cluster)
    }

    fn cluster_members(&self, pid: ProcId, level: Level) -> Vec<ProcId> {
        let cluster: NodeIdx = match self.cluster_of(pid, level) {
            Some(c) => c,
            None => return vec![pid],
        };
        // Every subtree leaf is a processor, so none is skipped.
        self.subtree_leaves(cluster)
            .into_iter()
            .filter_map(|l| self.node(l).proc_id())
            .collect()
    }

    fn level_coordinators(&self, level: Level) -> Vec<ProcId> {
        self.level_nodes(level)
            .map(|nodes| {
                nodes
                    .iter()
                    .map(|&n| representative_rank(self, n))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The rank of `node`'s representative, the fastest leaf of its
/// subtree (`every_representative_is_a_ranked_leaf` pins that it has
/// one).
#[expect(clippy::expect_used, reason = "representatives are ranked leaves")]
fn representative_rank(tree: &MachineTree, node: NodeIdx) -> ProcId {
    tree.node(tree.node(node).representative())
        .proc_id()
        .expect("representative is a leaf")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn hbsp2() -> MachineTree {
        TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(2.0, 0.5), (1.0, 1.0)]),  // P0, P1 (P1 fastest)
                (20.0, vec![(3.0, 0.4), (2.5, 0.45)]), // P2, P3
            ],
        )
        .unwrap()
    }

    #[test]
    fn coordinators_are_fastest_in_cluster() {
        let t = hbsp2();
        assert_eq!(t.coordinator_of(ProcId(0), 1), ProcId(1));
        assert_eq!(t.coordinator_of(ProcId(2), 1), ProcId(3));
        // Global coordinator is P_f for everyone.
        for i in 0..4 {
            assert_eq!(t.coordinator_of(ProcId(i), 2), ProcId(1));
        }
    }

    #[test]
    fn cluster_membership() {
        let t = hbsp2();
        assert_eq!(t.cluster_members(ProcId(0), 1), vec![ProcId(0), ProcId(1)]);
        assert_eq!(t.cluster_members(ProcId(3), 1), vec![ProcId(2), ProcId(3)]);
        assert_eq!(t.cluster_members(ProcId(0), 2).len(), 4);
    }

    #[test]
    fn level_coordinators_in_mij_order() {
        let t = hbsp2();
        assert_eq!(t.level_coordinators(1), vec![ProcId(1), ProcId(3)]);
        assert_eq!(t.level_coordinators(2), vec![ProcId(1)]);
        // Level 0: every level-0 processor is its own coordinator.
        assert_eq!(t.level_coordinators(0).len(), 4);
    }

    /// What `representative_rank` expects, on the shipped machines and
    /// on every machine carved out of them.
    #[test]
    fn every_representative_is_a_ranked_leaf() {
        for text in [
            include_str!("../../../machines/campus.hbsp"),
            include_str!("../../../machines/grid3.hbsp"),
        ] {
            let tree = hbsp_core::topology::parse(text).unwrap();
            let carved = tree.nodes().map(|n| tree.carve(n.idx()).tree);
            for t in std::iter::once(tree.clone()).chain(carved) {
                for n in t.nodes() {
                    assert!(t.node(n.representative()).proc_id().is_some());
                }
            }
        }
    }

    #[test]
    fn enquiry_on_flat_machine() {
        let t = TreeBuilder::flat(1.0, 5.0, &[(1.0, 1.0), (4.0, 0.25)]).unwrap();
        assert_eq!(t.coordinator_of(ProcId(1), 1), ProcId(0));
    }
}
