//! The HBSP^k superstep cost model.
//!
//! The execution time of super^i-step `λ` is (paper Eq. 1)
//!
//! ```text
//! T_i(λ) = w_i + g·h + L_{i,j}
//! ```
//!
//! where `w_i` is the largest local computation performed by a level-`i`
//! participant, `h` the heterogeneous h-relation of the step, and
//! `L_{i,j}` the synchronization overhead of the coordinating cluster.
//! The cost of a program is the sum of its superstep costs.
//!
//! [`CostModel`] evaluates individual steps against a machine;
//! [`CostReport`] accumulates a whole program's predicted cost and is the
//! "predicted" column of the model-accuracy experiment (E9).

use crate::hrelation::HRelation;
use crate::ids::{Level, MachineId, NodeIdx, ProcId};
use crate::tree::MachineTree;
use std::fmt;

/// Cost of a single super^i-step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperstepCost {
    /// Level `i` of the superstep.
    pub level: Level,
    /// Largest local computation `w_i` among participants (model time).
    pub w: f64,
    /// Heterogeneous h-relation `h` of the step (words, speed-weighted).
    pub h: f64,
    /// Routing cost `g·h`.
    pub comm: f64,
    /// Synchronization overhead `L_{i,j}`.
    pub sync: f64,
}

impl SuperstepCost {
    /// `T_i(λ) = w_i + g·h + L_{i,j}`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.w + self.comm + self.sync
    }
}

impl fmt::Display for SuperstepCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "super^{}-step: w = {:.1}, g·h = {:.1}, L = {:.1} → T = {:.1}",
            self.level,
            self.w,
            self.comm,
            self.sync,
            self.total()
        )
    }
}

/// Accumulated predicted cost of an HBSP^k program: the sum of its
/// superstep costs, kept per step for inspection.
#[derive(Debug, Clone, Default)]
pub struct CostReport {
    steps: Vec<SuperstepCost>,
}

impl CostReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one superstep.
    pub fn push(&mut self, step: SuperstepCost) {
        self.steps.push(step);
    }

    /// The recorded supersteps in execution order.
    pub fn steps(&self) -> &[SuperstepCost] {
        &self.steps
    }

    /// Total predicted execution time: `Σ T_i(λ)`.
    pub fn total(&self) -> f64 {
        self.steps.iter().map(SuperstepCost::total).sum()
    }

    /// Total time spent in communication (`Σ g·h`).
    pub fn comm(&self) -> f64 {
        self.steps.iter().map(|s| s.comm).sum()
    }

    /// Total time spent synchronizing (`Σ L`).
    pub fn sync(&self) -> f64 {
        self.steps.iter().map(|s| s.sync).sum()
    }

    /// Total time spent computing (`Σ w`).
    pub fn compute(&self) -> f64 {
        self.steps.iter().map(|s| s.w).sum()
    }

    /// Number of supersteps — the third quantity the paper says to
    /// minimize.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Merge another report after this one (program concatenation).
    pub fn extend(&mut self, other: &CostReport) {
        self.steps.extend_from_slice(&other.steps);
    }
}

impl From<Vec<SuperstepCost>> for CostReport {
    fn from(steps: Vec<SuperstepCost>) -> Self {
        CostReport { steps }
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            writeln!(f, "{s}")?;
        }
        write!(
            f,
            "total = {:.1} over {} supersteps",
            self.total(),
            self.num_steps()
        )
    }
}

/// Evaluates superstep costs against a specific machine.
///
/// ```
/// use hbsp_core::{CostModel, HRelation, MachineId, TreeBuilder};
///
/// let tree = TreeBuilder::flat(2.0, 25.0, &[(1.0, 1.0), (3.0, 0.4)]).unwrap();
/// let cm = CostModel::new(&tree);
/// let mut hr = HRelation::new();
/// hr.send(MachineId::new(0, 1), MachineId::new(0, 0), 100); // slow sends 100 words
/// let step = cm.comm_step(1, tree.root(), &hr);
/// assert_eq!(step.h, 300.0);          // r = 3 weighting
/// assert_eq!(step.comm, 600.0);       // g = 2
/// assert_eq!(step.total(), 625.0);    // + L = 25
/// ```
pub struct CostModel<'t> {
    tree: &'t MachineTree,
}

impl<'t> CostModel<'t> {
    /// A cost model bound to `tree`.
    pub fn new(tree: &'t MachineTree) -> Self {
        CostModel { tree }
    }

    /// The machine this model evaluates against.
    pub fn tree(&self) -> &MachineTree {
        self.tree
    }

    /// Cost of a super^`level`-step coordinated by `coordinator`, with
    /// communication pattern `hr` and per-participant local work `w`
    /// given in *work units at fastest-machine speed* (the model divides
    /// by each participant's speed and takes the max, i.e. `w_i` is the
    /// largest local computation).
    ///
    /// # Panics
    /// Panics if a participant id is not present in the tree.
    #[expect(
        clippy::expect_used,
        reason = "participants are machines of the tree (pinned by `a_participant_outside_the_tree_panics`)"
    )]
    pub fn superstep(
        &self,
        level: Level,
        coordinator: NodeIdx,
        hr: &HRelation,
        work: &[(MachineId, f64)],
    ) -> SuperstepCost {
        let w = work
            .iter()
            .map(|&(id, units)| {
                let n = self.tree.node(self.tree.resolve(id).expect("participant"));
                units / n.params().speed
            })
            .max_by(f64::total_cmp)
            .unwrap_or(0.0);
        let h = hr.h_on(self.tree);
        SuperstepCost {
            level,
            w,
            h,
            comm: self.tree.g() * h,
            sync: self.tree.node(coordinator).params().l_sync,
        }
    }

    /// Pure-communication superstep (no local work), the common case in
    /// the paper's collectives.
    pub fn comm_step(&self, level: Level, coordinator: NodeIdx, hr: &HRelation) -> SuperstepCost {
        self.superstep(level, coordinator, hr, &[])
    }

    /// Direct evaluation of Eq. 1 from already-known aggregates — used
    /// by the closed-form predictions in `hbsp-collectives`.
    pub fn from_aggregates(&self, level: Level, w: f64, h: f64, l: f64) -> SuperstepCost {
        SuperstepCost {
            level,
            w,
            h,
            comm: self.tree.g() * h,
            sync: l,
        }
    }

    /// The barrier overhead `L_{i,j}` of a level-`level` synchronization:
    /// the largest `L` among the level's *clusters* — every cluster at
    /// that level releases independently, so the slowest one bounds the
    /// step (§4.3). A lone processor sitting at the level pays nothing;
    /// on a single-processor machine the global barrier degenerates to
    /// the root's own `L`.
    pub fn level_sync(&self, level: Level) -> f64 {
        let mut l: Option<f64> = None;
        if let Ok(nodes) = self.tree.level_nodes(level) {
            for &idx in nodes {
                let node = self.tree.node(idx);
                if node.is_proc() {
                    continue;
                }
                let cand = node.params().l_sync;
                l = Some(match l {
                    Some(cur) if cand.total_cmp(&cur).is_le() => cur,
                    _ => cand,
                });
            }
        }
        l.unwrap_or_else(|| {
            if level == self.tree.height() {
                self.tree.node(self.tree.root()).params().l_sync
            } else {
                0.0
            }
        })
    }

    /// Price one step of a communication schedule from its barrier scope,
    /// per-processor work charges (fastest-speed units), and traffic.
    /// `scope` of `None` is a final drain step: messages are read and
    /// folds charged, but no barrier is paid.
    pub fn schedule_step(
        &self,
        scope: Option<Level>,
        work: &[(ProcId, f64)],
        hr: &HRelation,
    ) -> SuperstepCost {
        let w = work
            .iter()
            .map(|&(pid, units)| units / self.tree.leaf(pid).params().speed)
            .max_by(f64::total_cmp)
            .unwrap_or(0.0);
        let h = hr.h_on(self.tree);
        let (level, sync) = match scope {
            Some(level) => (level, self.level_sync(level)),
            None => (self.tree.height(), 0.0),
        };
        SuperstepCost {
            level,
            w,
            h,
            comm: self.tree.g() * h,
            sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::ids::MachineId;

    fn m(i: u32, j: u32) -> MachineId {
        MachineId::new(i, j)
    }

    #[test]
    #[should_panic(expected = "participant")]
    fn a_participant_outside_the_tree_panics() {
        let t = TreeBuilder::flat(2.0, 25.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap();
        CostModel::new(&t).superstep(1, t.root(), &HRelation::new(), &[(m(0, 2), 1.0)]);
    }

    #[test]
    fn eq1_assembles_terms() {
        let t = TreeBuilder::flat(2.0, 25.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap();
        let cm = CostModel::new(&t);
        let mut hr = HRelation::new();
        hr.send(m(0, 1), m(0, 0), 10); // slow sends 10 to fast: h = 2*10
        let s = cm.superstep(1, t.root(), &hr, &[(m(0, 1), 50.0)]);
        assert_eq!(s.h, 20.0);
        assert_eq!(s.comm, 40.0, "g=2 times h=20");
        assert_eq!(s.sync, 25.0);
        assert_eq!(s.w, 100.0, "50 units at speed 0.5");
        assert_eq!(s.total(), 165.0);
    }

    #[test]
    fn report_sums_steps() {
        let t = TreeBuilder::flat(1.0, 5.0, &[(1.0, 1.0), (1.5, 0.8)]).unwrap();
        let cm = CostModel::new(&t);
        let mut rep = CostReport::new();
        rep.push(cm.from_aggregates(1, 10.0, 100.0, 5.0));
        rep.push(cm.from_aggregates(1, 0.0, 50.0, 5.0));
        assert_eq!(rep.num_steps(), 2);
        assert_eq!(rep.total(), 10.0 + 100.0 + 5.0 + 50.0 + 5.0);
        assert_eq!(rep.comm(), 150.0);
        assert_eq!(rep.sync(), 10.0);
        assert_eq!(rep.compute(), 10.0);
    }

    #[test]
    fn gather_cost_matches_section_4_2() {
        // Section 4.2: with balanced workloads (r_j c_j < 1) the HBSP^1
        // gather costs g·n + L_{1,0}.
        let rs = [1.0, 2.0, 4.0];
        let speeds: Vec<f64> = rs.iter().map(|r| 1.0 / r).collect();
        let procs: Vec<(f64, f64)> = rs.iter().zip(&speeds).map(|(&r, &s)| (r, s)).collect();
        let t = TreeBuilder::flat(1.0, 7.0, &procs).unwrap();
        let cm = CostModel::new(&t);
        let n = 7000u64;
        let total_speed: f64 = speeds.iter().sum();
        let mut hr = HRelation::new();
        let mut received = 0u64;
        for (j, &s) in speeds.iter().enumerate() {
            if j == 0 {
                continue; // root keeps its own share (no self-send)
            }
            let words = (n as f64 * s / total_speed) as u64;
            received += words;
            hr.send(m(0, j as u32), m(1, 0), words);
        }
        let step = cm.comm_step(1, t.root(), &hr);
        // Each sender's weighted term is r_j·c_j·n = n/Σspeeds (since
        // c_j ∝ 1/r_j), which the paper bounds by n because r_j·c_j < 1;
        // the root contributes its received words. Here n/Σspeeds =
        // 7000/1.75 = 4000 dominates the root's 3000 (no self-send).
        let sender_term = n as f64 / total_speed;
        assert_eq!(step.h, sender_term.max(received as f64));
        assert!(
            step.h <= n as f64,
            "balanced gather stays within the paper's g·n bound"
        );
        assert_eq!(step.total(), step.h + 7.0);
    }

    #[test]
    fn display_is_readable() {
        let t = TreeBuilder::homogeneous(1.0, 2.0, 2).unwrap();
        let cm = CostModel::new(&t);
        let mut rep = CostReport::new();
        rep.push(cm.from_aggregates(1, 1.0, 2.0, 3.0));
        let s = rep.to_string();
        assert!(s.contains("super^1-step"), "got {s}");
        assert!(s.contains("total = 6.0 over 1 supersteps"), "got {s}");
    }

    #[test]
    fn extend_concatenates_programs() {
        let t = TreeBuilder::homogeneous(1.0, 0.0, 2).unwrap();
        let cm = CostModel::new(&t);
        let mut a = CostReport::new();
        a.push(cm.from_aggregates(1, 0.0, 10.0, 0.0));
        let mut b = CostReport::new();
        b.push(cm.from_aggregates(1, 0.0, 5.0, 0.0));
        a.extend(&b);
        assert_eq!(a.num_steps(), 2);
        assert_eq!(a.total(), 15.0);
    }
}
