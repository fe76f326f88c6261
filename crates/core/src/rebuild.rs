//! Structure-preserving rebuilds: derive one machine from another.
//!
//! Three entry points derive a machine from an existing one:
//!
//! * [`MachineTree::carve`] — any node as a standalone machine. A
//!   scheduler that runs a job on one cluster of a shared machine needs
//!   that cluster as a machine in its own right: the unit of spatial
//!   multi-tenancy;
//! * [`MachineTree::degrade`] — the machine around its dead processors
//!   (graceful degradation);
//! * [`MachineTree::reparameterize`] — the machine with per-processor
//!   `r`/speed, the gap `g` and per-level `L` replaced by estimates
//!   back-fitted from telemetry (`hbsp-obs`'s `calibrate`). The result is
//!   the *belief tree* of closed-loop adaptive execution: planners price
//!   against it while execution stays on the physical machine, which is
//!   valid because both trees share structure and processor ids.
//!   Unobserved entries (an estimate of `0`, the calibrator's "no data"
//!   marker) keep the current belief, and observed speeds are divided by
//!   the fastest one so it is exactly 1 (Table 1's convention).
//!
//! Each keeps the structure below the node it starts from — clusters
//! keep their names and child order, kept processors their relative
//! rank order — and re-applies the paper's rules to what it derives, in
//! one routine:
//!
//! * **unit-normalized `r`** — Table 1 fixes the fastest machine at
//!   `r = 1`. Every kept `r` is divided by the kept minimum and `g`
//!   absorbs the factor (`g' = g·min_r`), so each processor's absolute
//!   per-word cost `r·g` is preserved (`x/x == 1.0` in IEEE arithmetic
//!   for the new fastest machine);
//! * **coordinator-fastest** — each cluster's coordinator is re-elected
//!   by minimal `r`, the Table-1 notion of "fastest communicator"; ties
//!   go to the higher compute speed, then the lower rank. The builder's
//!   own election is by compute speed, which can disagree once leaves
//!   are dropped or re-measured;
//! * **balanced workload** — the `c_{i,j}` fractions are renormalized
//!   over the kept processors, speed-proportional at every level (each
//!   cluster's `c` is the sum of its children's).
//!
//! Carving the root, degrading nothing and reparameterizing with nothing
//! observed are identity rebuilds up to fractions; carving a leaf yields
//! a single-processor HBSP^0 machine. A validated machine always carves
//! and degrades: every `r·g` is finite ([`ModelError::WordCostOverflow`])
//! and every kept `r ≥ 1`, so `g·min_r ≤ g·r`. Estimates are not bounded
//! that way, so a belief tree they would make invalid is a typed
//! [`ReparamError::InvalidBelief`]. A cluster that loses every leaf
//! cannot be preserved: a typed [`DegradeError::ClusterEmptied`], never a
//! silently dropped subtree.

use crate::builder::TreeBuilder;
use crate::error::ModelError;
use crate::ids::{Level, NodeIdx, ProcId};
use crate::tree::{MachineTree, Node};
use crate::workload::hierarchical_fractions;
use crate::NodeParams;
use std::fmt;

/// Why [`MachineTree::carve`] and [`MachineTree::degrade`] cannot fail
/// once their own checks passed (see the [module docs](self)).
const VALID_STAYS_VALID: &str =
    "a validated machine rebuilds valid: every r·g is finite and every kept r >= 1";

/// A sub-tree carved out of a larger machine.
#[derive(Debug, Clone)]
pub struct Carved {
    /// The carved machine: validated, unit-normalized, coordinators
    /// re-elected, fractions renormalized.
    pub tree: MachineTree,
    /// Carved rank → original [`ProcId`]: `leaves[j]` is the processor
    /// of the parent machine that plays rank `j` in the carved one.
    /// Carved ranks preserve the parent's relative order.
    pub leaves: Vec<ProcId>,
}

impl Carved {
    /// The original (parent-machine) processor behind carved rank `pid`.
    ///
    /// # Panics
    /// Panics if `pid` is not a carved rank.
    pub fn original(&self, pid: ProcId) -> ProcId {
        self.leaves[pid.rank()]
    }

    /// The carved rank of original processor `orig`, if it was carved
    /// in.
    pub fn carved_rank(&self, orig: ProcId) -> Option<ProcId> {
        self.leaves
            .iter()
            .position(|&p| p == orig)
            .map(|i| ProcId(i as u32))
    }
}

/// Why a machine could not be degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeError {
    /// A reported-dead pid does not exist on this machine.
    NoSuchProc { pid: ProcId },
    /// Every processor died: there is nothing left to run on.
    AllProcessorsLost,
    /// A cluster lost all of its leaves; the surviving tree would
    /// contain an empty cluster, which no HBSP^k machine allows.
    ClusterEmptied { name: String },
}

impl fmt::Display for DegradeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeError::NoSuchProc { pid } => {
                write!(f, "no such processor {pid} on this machine")
            }
            DegradeError::AllProcessorsLost => write!(f, "every processor is dead"),
            DegradeError::ClusterEmptied { name } => {
                write!(f, "cluster `{name}` lost all of its processors")
            }
        }
    }
}

impl std::error::Error for DegradeError {}

/// A successfully degraded machine.
#[derive(Debug, Clone)]
pub struct Degraded {
    /// The surviving machine: validated, unit-normalized, coordinators
    /// re-elected, fractions renormalized.
    pub tree: MachineTree,
    /// Old rank → new [`ProcId`] (`None` for dead processors).
    /// Survivors keep their relative order.
    pub rank_map: Vec<Option<ProcId>>,
}

/// Freshly observed machine parameters, in the calibrator's normalized
/// conventions (relative `r` with minimum 1, relative speed with
/// maximum 1, `0` marking an unobserved processor).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservedParams {
    /// Observed communication gap `ĝ`; `None` keeps the current `g`.
    pub g: Option<f64>,
    /// Per-rank observed relative `r` (`0` = unobserved → keep).
    pub r_by_proc: Vec<f64>,
    /// Per-rank observed relative speed (`0` = unobserved → keep).
    pub speed_by_proc: Vec<f64>,
    /// Observed per-level synchronization cost `L̂`; levels absent
    /// here keep their current `L`.
    pub l_by_level: Vec<(Level, f64)>,
}

/// Why a machine could not be reparameterized.
#[derive(Debug, Clone, PartialEq)]
pub enum ReparamError {
    /// An estimate vector's length disagrees with the machine's
    /// processor count.
    WrongProcCount { expected: usize, got: usize },
    /// A supplied estimate was non-finite or non-positive where the
    /// model requires a positive number.
    BadEstimate { what: &'static str, value: f64 },
    /// Every estimate is in range, but the machine they describe
    /// together is not valid — for example a tiny observed `r` makes
    /// every other `r/min_r` overflow.
    InvalidBelief(ModelError),
}

impl fmt::Display for ReparamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReparamError::WrongProcCount { expected, got } => {
                write!(
                    f,
                    "estimate vector has {got} entries for {expected} processors"
                )
            }
            ReparamError::BadEstimate { what, value } => {
                write!(
                    f,
                    "estimated {what} = {value} is not a positive finite number"
                )
            }
            ReparamError::InvalidBelief(e) => {
                write!(f, "the estimates describe no valid machine: {e}")
            }
        }
    }
}

impl std::error::Error for ReparamError {}

impl MachineTree {
    /// Carve the subtree rooted at `idx` into a standalone machine per
    /// the paper's rules (see the [module docs](self)). The original
    /// tree is untouched; [`Carved::leaves`] maps carved ranks back to
    /// the parent machine's processors.
    ///
    /// # Panics
    /// Panics if `idx` did not come from this tree (like
    /// [`MachineTree::node`]).
    #[expect(
        clippy::expect_used,
        reason = "a validated machine rebuilds valid (pinned by the rebuild goldens and `a_hostile_machine_file_is_refused_or_parsed_to_a_fixed_point`)"
    )]
    pub fn carve(&self, idx: NodeIdx) -> Carved {
        let (tree, leaves) = self
            .rebuild(
                idx,
                self.g(),
                |pid| Some(self.r_speed(pid)),
                |n| n.params().l_sync,
            )
            .expect(VALID_STAYS_VALID);
        Carved { tree, leaves }
    }

    /// Drop `dead` processors and rebuild the machine per the paper's
    /// rules (see the [module docs](self)). The original tree is
    /// untouched; on success the returned [`Degraded::rank_map`] tells
    /// callers how surviving ranks were renumbered.
    #[expect(
        clippy::expect_used,
        reason = "a validated machine rebuilds valid (pinned by the rebuild goldens and `a_hostile_machine_file_is_refused_or_parsed_to_a_fixed_point`)"
    )]
    pub fn degrade(&self, dead: &[ProcId]) -> Result<Degraded, DegradeError> {
        let p = self.num_procs();
        let mut is_dead = vec![false; p];
        for &pid in dead {
            if pid.rank() >= p {
                return Err(DegradeError::NoSuchProc { pid });
            }
            is_dead[pid.rank()] = true;
        }
        if is_dead.iter().all(|&d| d) {
            return Err(DegradeError::AllProcessorsLost);
        }
        let alive = |pid: ProcId| !is_dead[pid.rank()];
        let emptied = self.nodes().find(|n| {
            !n.is_proc()
                && !self
                    .subtree_leaves(n.idx())
                    .iter()
                    .any(|&l| self.node(l).proc_id().is_some_and(alive))
        });
        if let Some(cluster) = emptied {
            return Err(DegradeError::ClusterEmptied {
                name: cluster.name().to_string(),
            });
        }

        let leaf = |pid: ProcId| alive(pid).then(|| self.r_speed(pid));
        let (tree, kept) = self
            .rebuild(self.root(), self.g(), leaf, |n| n.params().l_sync)
            .expect(VALID_STAYS_VALID);
        let mut rank_map = vec![None; p];
        for (new, old) in kept.iter().enumerate() {
            rank_map[old.rank()] = Some(ProcId(new as u32));
        }
        Ok(Degraded { tree, rank_map })
    }

    /// Rebuild this machine with `observed` parameters folded in (see
    /// the [module docs](self)). The original tree is untouched;
    /// structure, names, child order, and processor ids are preserved,
    /// so any schedule valid on one tree is valid on the other.
    pub fn reparameterize(&self, observed: &ObservedParams) -> Result<MachineTree, ReparamError> {
        let p = self.num_procs();
        for (what, v) in [
            ("r", &observed.r_by_proc),
            ("speed", &observed.speed_by_proc),
        ] {
            if !v.is_empty() && v.len() != p {
                return Err(ReparamError::WrongProcCount {
                    expected: p,
                    got: v.len(),
                });
            }
            if let Some(&bad) = v.iter().find(|x| !x.is_finite() || **x < 0.0) {
                return Err(ReparamError::BadEstimate { what, value: bad });
            }
        }
        let g_hat = observed.g.unwrap_or_else(|| self.g());
        if !g_hat.is_finite() || g_hat <= 0.0 {
            return Err(ReparamError::BadEstimate {
                what: "g",
                value: g_hat,
            });
        }
        for &(_, l) in &observed.l_by_level {
            if !l.is_finite() {
                return Err(ReparamError::BadEstimate {
                    what: "L",
                    value: l,
                });
            }
        }

        // Merge: observed value when present, current belief otherwise.
        let pick = |est: &[f64], pid: ProcId, current: f64| match est.get(pid.rank()) {
            Some(&v) if v > 0.0 => v,
            _ => current,
        };
        let merged = |pid: ProcId| {
            let (r, speed) = self.r_speed(pid);
            (
                pick(&observed.r_by_proc, pid, r),
                pick(&observed.speed_by_proc, pid, speed),
            )
        };
        let max_speed = (0..p as u32)
            .map(|i| merged(ProcId(i)).1)
            .fold(0.0f64, f64::max);
        let leaf = |pid: ProcId| {
            let (r, speed) = merged(pid);
            Some((r, speed / max_speed))
        };
        let l_at = |n: &Node| {
            observed
                .l_by_level
                .iter()
                .find(|(l, _)| *l == n.level())
                .map_or(n.params().l_sync, |&(_, v)| v.max(0.0))
        };
        self.rebuild(self.root(), g_hat, leaf, l_at)
            .map(|(tree, _)| tree)
            .map_err(ReparamError::InvalidBelief)
    }

    /// Processor `pid`'s `(r, speed)`.
    fn r_speed(&self, pid: ProcId) -> (f64, f64) {
        let p = self.leaf(pid).params();
        (p.r, p.speed)
    }

    /// The one structure-preserving rebuild behind the three entry
    /// points: the subtree at `from`, depth first with children in
    /// order, clusters keeping their names and taking their `L` from
    /// `l_sync`. `leaf` gives each processor its `(r, speed)` before
    /// normalization, or `None` to drop it. Returns the rebuilt machine,
    /// normalized per the [module docs](self), and the old [`ProcId`] of
    /// each new rank.
    fn rebuild(
        &self,
        from: NodeIdx,
        g: f64,
        leaf: impl Fn(ProcId) -> Option<(f64, f64)>,
        l_sync: impl Fn(&Node) -> f64,
    ) -> Result<(MachineTree, Vec<ProcId>), ModelError> {
        // The builder ranks processors in this same sweep, so kept
        // processors keep their relative order.
        let mut b = TreeBuilder::new(g);
        let mut kept = Vec::new();
        let mut min_r = f64::INFINITY;
        let mut stack = vec![(from, None)];
        while let Some((old, parent)) = stack.pop() {
            let node = self.node(old);
            if let Some(pid) = node.proc_id() {
                let Some((r, speed)) = leaf(pid) else {
                    continue;
                };
                min_r = min_r.min(r);
                kept.push(pid);
                let params = NodeParams::proc(r, speed);
                match parent {
                    Some(parent) => b.child_proc(parent, node.name(), params),
                    None => b.proc_root(node.name(), params),
                };
            } else {
                let params = NodeParams::cluster(l_sync(node));
                let new = match parent {
                    Some(parent) => b.child_cluster(parent, node.name(), params),
                    None => b.cluster(node.name(), params),
                };
                stack.extend(node.children().iter().rev().map(|&c| (c, Some(new))));
            }
        }
        let mut tree = b.build_unvalidated()?;
        // Unit normalization. Clusters hold their representative's r,
        // so dividing every node gives each the bits of its leaf's.
        tree.g = g * min_r;
        for node in &mut tree.nodes {
            node.params.r /= min_r;
        }
        tree.validate()?;
        elect_by_min_r(&mut tree);
        #[expect(clippy::disallowed_methods, reason = "the one rebuild")]
        let fractions = hierarchical_fractions(&tree);
        #[expect(clippy::disallowed_methods, reason = "the one rebuild")]
        tree.set_fractions(&fractions);
        debug_assert!(tree.validate().is_ok());
        Ok((tree, kept))
    }
}

/// Overwrite every cluster's representative (and its inherited
/// `r`/`speed`) with its subtree's best *communicator*: minimal `r`,
/// ties to maximal speed, then lowest rank.
fn elect_by_min_r(tree: &mut MachineTree) {
    // Children before parents: process nodes in increasing level order
    // so a cluster can rely on its children's already-final choices.
    let mut order: Vec<usize> = (0..tree.nodes.len()).collect();
    order.sort_by_key(|&i| tree.nodes[i].level);
    for i in order {
        if tree.nodes[i].is_proc() {
            continue;
        }
        let best = tree.nodes[i]
            .children
            .iter()
            .map(|&c| tree.nodes[c.index()].representative)
            .min_by(|&a, &b| {
                let (na, nb) = (&tree.nodes[a.index()], &tree.nodes[b.index()]);
                na.params
                    .r
                    .total_cmp(&nb.params.r)
                    .then(nb.params.speed.total_cmp(&na.params.speed))
                    .then(na.proc_id.cmp(&nb.proc_id))
            });
        if let Some(rep) = best {
            tree.nodes[i].representative = rep;
            tree.nodes[i].params.r = tree.nodes[rep.index()].params.r;
            tree.nodes[i].params.speed = tree.nodes[rep.index()].params.speed;
        }
    }
}
