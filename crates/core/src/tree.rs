//! The arena-backed HBSP^k machine tree.
//!
//! A [`MachineTree`] is an immutable-shape tree of height `k` whose leaves
//! are physical processors and whose internal nodes are clusters. Node
//! levels follow the paper: a node at depth `d` from the root sits on
//! level `k - d`, so the root is the lone HBSP^k machine on level `k` and
//! the deepest processors sit on level 0. An unbalanced tree is legal —
//! a leaf may sit above level 0 (the paper's Figure 2 has a standalone
//! SGI workstation on level 1 next to two clusters).
//!
//! Trees are constructed through [`crate::builder::TreeBuilder`] or parsed
//! from the [`crate::topology`] DSL; both validate the model's invariants.
//! A machine's `c_{i,j}` fractions are assigned by the builder, the DSL
//! or the structure-preserving rebuild (`carve`, `degrade`,
//! `reparameterize`); no caller outside this crate sets them one by one:
//!
//! ```compile_fail,E0624
//! fn assign(tree: &mut hbsp_core::MachineTree, c: &[(hbsp_core::NodeIdx, f64)]) {
//!     tree.set_fractions(c);
//! }
//! ```

use crate::error::ModelError;
use crate::ids::{Level, MachineId, NodeIdx, ProcId};
use crate::params::NodeParams;

/// Whether a node is a physical processor or a cluster of machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A leaf: an actual processor (an HBSP^0 machine in its own right).
    Proc,
    /// An internal node: a cluster whose children are HBSP^{i-1} machines
    /// and whose coordinator represents it in level-`i` communication.
    Cluster,
}

/// One machine `M_{i,j}` in the tree.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) idx: NodeIdx,
    pub(crate) parent: Option<NodeIdx>,
    pub(crate) children: Vec<NodeIdx>,
    pub(crate) level: Level,
    pub(crate) machine_id: MachineId,
    pub(crate) kind: NodeKind,
    pub(crate) name: String,
    pub(crate) params: NodeParams,
    /// Dense SPMD rank, for leaves only.
    pub(crate) proc_id: Option<ProcId>,
    /// The representative (fastest) leaf of this node's subtree. For a
    /// leaf this is the leaf itself.
    pub(crate) representative: NodeIdx,
}

impl Node {
    /// Arena index of this node.
    pub fn idx(&self) -> NodeIdx {
        self.idx
    }
    /// Parent cluster, `None` for the root.
    pub fn parent(&self) -> Option<NodeIdx> {
        self.parent
    }
    /// Children, left to right (empty for processors).
    pub fn children(&self) -> &[NodeIdx] {
        &self.children
    }
    /// The paper's `m_{i,j}`: number of children of this machine.
    pub fn num_children(&self) -> usize {
        self.children.len()
    }
    /// Level `i` of this machine (0 = processor layer, `k` = root).
    pub fn level(&self) -> Level {
        self.level
    }
    /// The paper's `M_{i,j}` coordinates.
    pub fn machine_id(&self) -> MachineId {
        self.machine_id
    }
    /// Processor or cluster.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }
    /// Human-readable name (from the builder or DSL).
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Model parameters of this machine.
    pub fn params(&self) -> &NodeParams {
        &self.params
    }
    /// SPMD rank if this node is a processor.
    pub fn proc_id(&self) -> Option<ProcId> {
        self.proc_id
    }
    /// The fastest leaf in this node's subtree (the machine that acts for
    /// this cluster during inter-cluster communication). For a leaf,
    /// itself.
    pub fn representative(&self) -> NodeIdx {
        self.representative
    }
    /// True if this node is a leaf processor.
    pub fn is_proc(&self) -> bool {
        matches!(self.kind, NodeKind::Proc)
    }
}

/// An HBSP^k machine: a validated tree of processors and clusters plus
/// the global bandwidth indicator `g`.
#[derive(Debug, Clone)]
pub struct MachineTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: NodeIdx,
    pub(crate) height: Level,
    pub(crate) g: f64,
    /// `levels[i]` = machines on level `i`, left to right (`M_{i,0}..`).
    pub(crate) levels: Vec<Vec<NodeIdx>>,
    /// Leaves in `ProcId` order.
    pub(crate) leaves: Vec<NodeIdx>,
}

impl MachineTree {
    /// The node arena; iteration order is insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Look up a node by arena index.
    ///
    /// # Panics
    /// Panics if `idx` did not come from this tree.
    pub fn node(&self, idx: NodeIdx) -> &Node {
        &self.nodes[idx.index()]
    }

    /// The root machine (the HBSP^k machine itself).
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// The machine class `k`: the number of communication levels.
    /// A single processor is HBSP^0 (height 0).
    pub fn height(&self) -> Level {
        self.height
    }

    /// Bandwidth indicator `g`: time per word for the fastest machine.
    pub fn g(&self) -> f64 {
        self.g
    }

    /// Number of leaf processors `p`.
    pub fn num_procs(&self) -> usize {
        self.leaves.len()
    }

    /// Leaves in `ProcId` (left-to-right) order.
    pub fn leaves(&self) -> &[NodeIdx] {
        &self.leaves
    }

    /// The leaf with SPMD rank `pid`.
    ///
    /// # Panics
    /// Panics if `pid` is out of range.
    pub fn leaf(&self, pid: ProcId) -> &Node {
        self.node(self.leaves[pid.rank()])
    }

    /// The paper's `m_i`: number of machines on level `i`.
    pub fn machines_on_level(&self, level: Level) -> Result<usize, ModelError> {
        self.level_nodes(level).map(|v| v.len())
    }

    /// Machines on level `i`, left to right (`M_{i,0}, M_{i,1}, …`).
    pub fn level_nodes(&self, level: Level) -> Result<&[NodeIdx], ModelError> {
        self.levels
            .get(level as usize)
            .map(|v| v.as_slice())
            .ok_or(ModelError::NoSuchLevel {
                level,
                height: self.height,
            })
    }

    /// Resolve the paper's `M_{i,j}` coordinates to an arena index.
    pub fn resolve(&self, id: MachineId) -> Result<NodeIdx, ModelError> {
        self.levels
            .get(id.level as usize)
            .and_then(|v| v.get(id.index as usize))
            .copied()
            .ok_or(ModelError::NoSuchMachine { id })
    }

    /// All leaf processors in the subtree rooted at `idx`, in `ProcId`
    /// order: a slice of [`MachineTree::leaves`]. The builder ranks
    /// leaves in preorder, so a subtree's leaves hold consecutive ranks,
    /// from its leftmost leaf's to its rightmost's.
    pub fn subtree_leaves(&self, idx: NodeIdx) -> &[NodeIdx] {
        let edge = |pick: fn(&[NodeIdx]) -> Option<&NodeIdx>| {
            let mut n = self.node(idx);
            while let Some(&c) = pick(&n.children) {
                n = self.node(c);
            }
            n.proc_id.map(ProcId::rank)
        };
        match (edge(<[NodeIdx]>::first), edge(<[NodeIdx]>::last)) {
            (Some(first), Some(last)) => &self.leaves[first..=last],
            _ => &[],
        }
    }

    /// The ancestor of `idx` sitting on `level` (or `idx` itself if it is
    /// already on that level). Returns `None` if `idx` sits above `level`.
    pub fn ancestor_at_level(&self, idx: NodeIdx, level: Level) -> Option<NodeIdx> {
        let mut cur = idx;
        loop {
            let n = self.node(cur);
            if n.level == level {
                return Some(cur);
            }
            if n.level > level {
                return None;
            }
            cur = n.parent?;
        }
    }

    /// The cluster on `level` that contains processor `pid`. This is the
    /// coordinator subtree a processor synchronizes with during a
    /// super^`level`-step.
    pub fn cluster_of(&self, pid: ProcId, level: Level) -> Option<NodeIdx> {
        self.ancestor_at_level(self.leaves[pid.rank()], level)
    }

    /// Level of the lowest common ancestor of two nodes: the level of the
    /// cheapest network that connects them. Communication between two
    /// processors crosses every tree edge up to (and back down from)
    /// their LCA.
    pub fn lca(&self, mut a: NodeIdx, mut b: NodeIdx) -> NodeIdx {
        // Walk the deeper node up until levels match, then walk both up
        // until they meet. Allocation-free: this runs once (or more) per
        // message on the engines' superstep hot path.
        // Only the root has no parent, so `up` of the root is the root.
        let up = |n: NodeIdx| self.node(n).parent.unwrap_or(self.root);
        while a != b {
            match self.node(a).level.cmp(&self.node(b).level) {
                std::cmp::Ordering::Less => a = up(a),
                std::cmp::Ordering::Greater => b = up(b),
                std::cmp::Ordering::Equal => (a, b) = (up(a), up(b)),
            }
        }
        a
    }

    /// The fastest leaf of the whole machine — the paper's `P_f`, which
    /// doubles as the root coordinator's representative.
    #[expect(
        clippy::expect_used,
        reason = "representatives are leaves (pinned by `representative_is_fastest_leaf`)"
    )]
    pub fn fastest_proc(&self) -> ProcId {
        self.node(self.node(self.root).representative)
            .proc_id
            .expect("representative is a leaf")
    }

    /// The slowest leaf of the whole machine — the paper's `P_s`.
    /// Ties break toward the lowest rank.
    pub fn slowest_proc(&self) -> ProcId {
        // `leaves` is in rank order and `min_by` keeps the first of
        // equal elements. A machine has at least one leaf.
        let speed = |rank: usize| self.node(self.leaves[rank]).params.speed;
        let rank = (0..self.leaves.len())
            .min_by(|&a, &b| speed(a).total_cmp(&speed(b)))
            .unwrap_or(0);
        ProcId(rank as u32)
    }

    /// Assign problem fractions `c` to a set of machines (commonly the
    /// leaves). Fractions for machines not mentioned are left untouched.
    pub(crate) fn set_fractions(&mut self, fractions: &[(NodeIdx, f64)]) {
        for &(idx, c) in fractions {
            self.nodes[idx.index()].params.c = Some(c);
        }
    }

    /// Remove all assigned problem fractions.
    pub fn clear_fractions(&mut self) {
        for n in &mut self.nodes {
            n.params.c = None;
        }
    }

    /// Validate every model invariant: `Ok` exactly when [`defects`]
    /// finds none, else its first finding. A valid tree allocates
    /// nothing.
    ///
    /// [`defects`]: MachineTree::defects
    pub fn validate(&self) -> Result<(), ModelError> {
        self.defects().into_iter().next().map_or(Ok(()), Err)
    }

    /// Every broken model invariant (the paper's Table 1), in this
    /// order:
    ///
    /// * `g > 0` and finite;
    /// * at least one processor;
    /// * per node, in arena order: `r >= 1` and finite; a processor's
    ///   absolute per-word cost `r·g` finite (checked where `r` and `g`
    ///   each are); `L >= 0` and finite; compute speed in `(0, 1]`;
    ///   fraction `c` in `[0, 1]`; a cluster has members;
    /// * some leaf has `r = 1` (the fastest machine is normalized;
    ///   checked when the minimum is finite);
    /// * where every member of a cluster has a fraction, they sum to
    ///   the cluster's own (root: 1).
    pub fn defects(&self) -> Vec<ModelError> {
        let mut out = Vec::new();
        let g = self.g;
        if g <= 0.0 || !g.is_finite() {
            out.push(ModelError::InvalidG { g });
        }
        if self.leaves.is_empty() {
            out.push(ModelError::EmptyMachine);
        }
        let mut min_r = f64::INFINITY;
        for node in &self.nodes {
            let (id, p) = (node.machine_id, &node.params);
            if p.r < 1.0 || !p.r.is_finite() {
                out.push(ModelError::InvalidR { id, r: p.r });
            }
            if node.is_proc() {
                min_r = min_r.min(p.r);
                // Otherwise InvalidR or InvalidG already names the defect.
                if p.r.is_finite() && g.is_finite() && !(p.r * g).is_finite() {
                    out.push(ModelError::WordCostOverflow { id, r: p.r, g });
                }
            }
            if p.l_sync < 0.0 || !p.l_sync.is_finite() {
                out.push(ModelError::InvalidL { id, l: p.l_sync });
            }
            if !(p.speed > 0.0 && p.speed <= 1.0) {
                out.push(ModelError::InvalidSpeed { id, speed: p.speed });
            }
            if let Some(c) = p.c.filter(|c| !(0.0..=1.0).contains(c)) {
                out.push(ModelError::InvalidFraction { id, c });
            }
            if !node.is_proc() && node.children.is_empty() {
                out.push(ModelError::EmptyCluster { id });
            }
        }
        if min_r.is_finite() && (min_r - 1.0).abs() > 1e-9 {
            out.push(ModelError::NoUnitR { min_r });
        }
        for node in self.nodes.iter().filter(|n| !n.children.is_empty()) {
            // `None` when some member has no fraction: nothing to check.
            let fractions = node.children.iter().map(|&c| self.node(c).params.c);
            let Some(sum) = fractions.sum::<Option<f64>>() else {
                continue;
            };
            let expected = node.params.c.unwrap_or(1.0);
            if (sum - expected).abs() > 1e-6 {
                let id = node.machine_id;
                out.push(ModelError::FractionSum { id, sum, expected });
            }
        }
        out
    }
}

impl std::fmt::Display for MachineTree {
    /// ASCII rendering of the machine: one line per node with its
    /// `M_{i,j}` coordinates, name, and parameters.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn go(
            tree: &MachineTree,
            idx: NodeIdx,
            prefix: &str,
            last: bool,
            f: &mut std::fmt::Formatter<'_>,
        ) -> std::fmt::Result {
            let node = tree.node(idx);
            let branch = if prefix.is_empty() {
                ""
            } else if last {
                "`-- "
            } else {
                "|-- "
            };
            let p = node.params();
            write!(f, "{prefix}{branch}{} {}", node.machine_id(), node.name())?;
            match node.kind() {
                NodeKind::Proc => {
                    write!(f, " (r={}, speed={}", p.r, p.speed)?;
                    if let Some(pid) = node.proc_id() {
                        write!(f, ", {pid}")?;
                    }
                    writeln!(f, ")")?;
                }
                NodeKind::Cluster => writeln!(f, " (L={}, m={})", p.l_sync, node.num_children())?,
            }
            let child_prefix = if prefix.is_empty() {
                String::new()
            } else if last {
                format!("{prefix}    ")
            } else {
                format!("{prefix}|   ")
            };
            let n = node.children().len();
            for (i, &c) in node.children().iter().enumerate() {
                go(
                    tree,
                    c,
                    if prefix.is_empty() {
                        "    "
                    } else {
                        &child_prefix
                    },
                    i + 1 == n,
                    f,
                )?;
            }
            Ok(())
        }
        writeln!(
            f,
            "HBSP^{} machine, g = {}, p = {}",
            self.height,
            self.g,
            self.num_procs()
        )?;
        go(self, self.root, "", true, f)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of validation")]
mod tests {
    use crate::builder::TreeBuilder;
    use crate::ids::{MachineId, ProcId};
    use crate::params::NodeParams;

    /// The paper's Figure 1/2 machine: an HBSP^2 cluster of an SMP (4
    /// processors), a standalone SGI workstation, and a LAN (5
    /// workstations).
    fn figure2() -> crate::MachineTree {
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("campus", NodeParams::cluster(500.0));
        let smp = b.child_cluster(root, "smp", NodeParams::cluster(50.0));
        for i in 0..4 {
            b.child_proc(
                smp,
                format!("smp{i}"),
                NodeParams::proc(1.0 + i as f64 * 0.5, 1.0 / (1.0 + i as f64 * 0.2)),
            );
        }
        b.child_proc(root, "sgi", NodeParams::proc(1.5, 0.9));
        let lan = b.child_cluster(root, "lan", NodeParams::cluster(100.0));
        for i in 0..5 {
            b.child_proc(lan, format!("ws{i}"), NodeParams::proc(2.0 + i as f64, 0.5));
        }
        b.build().expect("valid figure-2 machine")
    }

    #[test]
    fn figure2_levels_match_paper() {
        let t = figure2();
        assert_eq!(t.height(), 2, "an HBSP^2 machine");
        assert_eq!(t.machines_on_level(2).unwrap(), 1);
        // Level 1: the SMP coordinator, the SGI workstation, the LAN.
        assert_eq!(t.machines_on_level(1).unwrap(), 3);
        // Level 0: 4 SMP processors + 5 LAN workstations.
        assert_eq!(t.machines_on_level(0).unwrap(), 9);
        // But the machine has 10 physical processors (the SGI is a leaf
        // on level 1).
        assert_eq!(t.num_procs(), 10);
    }

    #[test]
    fn machine_ids_are_left_to_right() {
        let t = figure2();
        let m10 = t.resolve(MachineId::new(1, 0)).unwrap();
        assert_eq!(t.node(m10).name(), "smp");
        let m11 = t.resolve(MachineId::new(1, 1)).unwrap();
        assert_eq!(t.node(m11).name(), "sgi");
        let m04 = t.resolve(MachineId::new(0, 4)).unwrap();
        assert_eq!(
            t.node(m04).name(),
            "ws0",
            "level-0 index 4 is the first LAN workstation"
        );
    }

    #[test]
    fn subtree_leaves_in_rank_order() {
        let t = figure2();
        let lan = t.resolve(MachineId::new(1, 2)).unwrap();
        let leaves = t.subtree_leaves(lan);
        assert_eq!(leaves.len(), 5);
        let ranks: Vec<usize> = leaves
            .iter()
            .map(|&l| t.node(l).proc_id().unwrap().rank())
            .collect();
        assert_eq!(ranks, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn representative_is_fastest_in_subtree() {
        let t = figure2();
        let root_rep = t.node(t.root()).representative();
        assert_eq!(t.node(root_rep).name(), "smp0", "smp0 has speed 1.0");
        let lan = t.resolve(MachineId::new(1, 2)).unwrap();
        let lan_rep = t.node(lan).representative();
        assert_eq!(
            t.node(lan_rep).name(),
            "ws0",
            "all LAN nodes tie at 0.5; lowest rank wins"
        );
    }

    #[test]
    fn fastest_and_slowest_procs() {
        let t = figure2();
        assert_eq!(t.leaf(t.fastest_proc()).name(), "smp0");
        assert_eq!(
            t.leaf(t.slowest_proc()).name(),
            "ws0",
            "speed ties break to lowest rank"
        );
    }

    #[test]
    fn cluster_of_walks_up() {
        let t = figure2();
        // ws3 is rank 8; its level-1 cluster is the LAN, level-2 the root.
        let lan = t.cluster_of(ProcId(8), 1).unwrap();
        assert_eq!(t.node(lan).name(), "lan");
        let campus = t.cluster_of(ProcId(8), 2).unwrap();
        assert_eq!(campus, t.root());
    }

    #[test]
    fn lca_of_cross_cluster_procs_is_root() {
        let t = figure2();
        let a = t.leaves()[0]; // smp0
        let b = t.leaves()[9]; // ws4
        assert_eq!(t.lca(a, b), t.root());
        let c = t.leaves()[1]; // smp1
        let smp = t.resolve(MachineId::new(1, 0)).unwrap();
        assert_eq!(t.lca(a, c), smp);
        assert_eq!(t.lca(a, a), a, "lca of a node with itself is itself");
    }

    #[test]
    fn validate_rejects_bad_r() {
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("c", NodeParams::cluster(1.0));
        b.child_proc(root, "p0", NodeParams::proc(0.5, 1.0));
        b.child_proc(root, "p1", NodeParams::proc(1.0, 1.0));
        assert!(matches!(b.build(), Err(crate::ModelError::InvalidR { .. })));
    }

    #[test]
    fn validate_requires_normalized_fastest() {
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("c", NodeParams::cluster(1.0));
        b.child_proc(root, "p0", NodeParams::proc(2.0, 1.0));
        b.child_proc(root, "p1", NodeParams::proc(3.0, 1.0));
        assert!(matches!(b.build(), Err(crate::ModelError::NoUnitR { .. })));
    }

    /// Fails at the commit before the rule: the machine validated, and
    /// carving `slow` overflowed its renormalized `g` into a panic.
    #[test]
    fn validate_rejects_a_processor_whose_word_cost_overflows() {
        let mut b = TreeBuilder::new(1e300);
        let root = b.cluster("root", NodeParams::cluster(100.0));
        let fast = b.child_cluster(root, "fast", NodeParams::cluster(10.0));
        b.child_proc(fast, "a", NodeParams::proc(1.0, 1.0));
        b.child_proc(fast, "a2", NodeParams::proc(1.5, 0.8));
        let slow = b.child_cluster(root, "slow", NodeParams::cluster(10.0));
        b.child_proc(slow, "b", NodeParams::proc(1e10, 0.5));
        b.child_proc(slow, "c", NodeParams::proc(2e10, 0.4));
        assert_eq!(
            b.build().unwrap_err(),
            crate::ModelError::WordCostOverflow {
                id: MachineId::new(0, 2),
                r: 1e10,
                g: 1e300
            }
        );
    }

    #[test]
    fn validate_checks_fraction_sums() {
        let mut t = figure2();
        let leaves: Vec<_> = t.leaves().to_vec();
        let n = leaves.len();
        let fr: Vec<_> = leaves.iter().map(|&l| (l, 1.0 / n as f64)).collect();
        t.set_fractions(&fr);
        // Leaves of each cluster no longer sum to the cluster fraction
        // (cluster fractions unset => only root-level children checked
        // when all assigned). Children of root are smp (cluster, no c),
        // sgi (c set), lan (cluster, no c) => skipped. Set cluster
        // fractions inconsistently to trigger the error.
        let smp = t.resolve(MachineId::new(1, 0)).unwrap();
        let sgi = t.resolve(MachineId::new(1, 1)).unwrap();
        let lan = t.resolve(MachineId::new(1, 2)).unwrap();
        t.set_fractions(&[(smp, 0.9), (sgi, 0.9), (lan, 0.9)]);
        assert!(matches!(
            t.validate(),
            Err(crate::ModelError::FractionSum { .. })
        ));
        t.clear_fractions();
        t.validate().unwrap();
    }

    #[test]
    fn display_renders_every_node() {
        let t = figure2();
        let s = t.to_string();
        assert!(s.starts_with("HBSP^2 machine"), "{s}");
        for node in t.nodes() {
            assert!(s.contains(node.name()), "missing {} in:\n{s}", node.name());
        }
        assert!(s.contains("M_{2,0}") && s.contains("M_{0,8}"), "{s}");
    }

    #[test]
    fn single_proc_is_hbsp0() {
        let mut b = TreeBuilder::new(1.0);
        b.proc_root("solo", NodeParams::fastest());
        let t = b.build().unwrap();
        assert_eq!(t.height(), 0);
        assert_eq!(t.num_procs(), 1);
        assert_eq!(t.fastest_proc(), ProcId(0));
    }
}
