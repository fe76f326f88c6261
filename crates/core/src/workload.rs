//! Workload partitioning: the model's `c_{i,j}` load-balancing feature.
//!
//! The paper's second design rule is that "faster machines should receive
//! more data items than slower machines": machine `M_{i,j}` gets a
//! fraction `c_{i,j}` of the problem proportional to its computational and
//! communication abilities. This module turns relative speed indices
//! (e.g. from the `bytemark` crate) into *integer* shares that sum to
//! exactly `n`, plus offsets for contiguous block distributions.
//!
//! The speed-proportional fractions of a whole machine are derived once,
//! by the structure-preserving rebuild (`carve`, `degrade`,
//! `reparameterize`), so the routine that computes them is private to
//! this crate:
//!
//! ```compile_fail,E0603
//! use hbsp_core::workload::hierarchical_fractions;
//! ```

use crate::error::ModelError;
use crate::ids::ProcId;
use crate::tree::MachineTree;

/// Split `n` items over weighted recipients so shares are proportional
/// to `weights` and sum to exactly `n` (largest-remainder apportionment;
/// remainder ties go to the lower index for determinism).
///
/// ```
/// use hbsp_core::apportion;
/// assert_eq!(apportion(10, &[1.0, 1.0]), vec![5, 5]);
/// assert_eq!(apportion(10, &[2.0, 1.0, 1.0]), vec![5, 3, 2]);
/// let shares = apportion(7, &[0.3, 0.3, 0.3]);
/// assert_eq!(shares.iter().sum::<u64>(), 7);
/// ```
pub fn apportion(n: u64, weights: &[f64]) -> Vec<u64> {
    apportion_by(n, weights.len(), |i| weights[i])
}

/// [`apportion`] of `len` weights read through `weight`, allocating only
/// the shares: a place in the remainder order is counted, not sorted —
/// O(len²) comparisons, cheaper than a buffer for the machines here.
pub fn apportion_by(n: u64, len: usize, weight: impl Fn(usize) -> f64) -> Vec<u64> {
    if len == 0 {
        return Vec::new();
    }
    let total: f64 = (0..len).map(&weight).sum();
    if total <= 0.0 {
        // Degenerate: fall back to an equal split.
        return apportion_by(n, len, (|_| 1.0) as fn(usize) -> f64);
    }
    let quota = |i| n as f64 * weight(i) / total;
    let mut shares: Vec<u64> = (0..len).map(|i| quota(i).floor() as u64).collect();
    let left = (n - shares.iter().sum::<u64>()) as usize;
    // Largest fractional remainder first; ties to the lower index.
    let frac = |i| quota(i) - quota(i).floor();
    let place = |i| {
        let fi = frac(i);
        let ahead = |j: &usize| frac(*j).total_cmp(&fi).then(i.cmp(j)).is_gt();
        (0..len).filter(ahead).count()
    };
    for (i, share) in shares.iter_mut().enumerate().filter(|_| left > 0) {
        if place(i) < left {
            *share += 1;
        }
    }
    shares
}

/// A block distribution of `n` items over `p` processors: each processor
/// owns a contiguous range whose length is its share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    n: u64,
    shares: Vec<u64>,
    offsets: Vec<u64>,
}

impl Partition {
    /// Build from explicit shares. The shares must sum to `n` — use
    /// [`apportion`] to produce them.
    pub fn from_shares(shares: Vec<u64>) -> Self {
        let n = shares.iter().sum();
        let mut offsets = Vec::with_capacity(shares.len() + 1);
        let mut acc = 0;
        for &s in &shares {
            offsets.push(acc);
            acc += s;
        }
        offsets.push(acc);
        Partition { n, shares, offsets }
    }

    /// The homogeneous-BSP split: equal shares (`c_j = 1/p`), remainder
    /// spread from the front. This is the *unbalanced* workload of the
    /// paper's experiments (balanced for identical machines, unbalanced
    /// for heterogeneous ones).
    pub fn equal(n: u64, p: usize) -> Result<Self, ModelError> {
        if p == 0 {
            return Err(ModelError::DegeneratePartition {
                reason: "zero processors",
            });
        }
        Ok(Self::from_shares(apportion_by(n, p, |_| 1.0)))
    }

    /// Balanced workload: shares proportional to `speeds` (the paper's
    /// `c_j` computed from benchmark indices).
    pub fn balanced(n: u64, speeds: &[f64]) -> Result<Self, ModelError> {
        Self::balanced_by(n, speeds.len(), |i| speeds[i])
    }

    /// [`Partition::balanced`] over `len` weights read through `weight`.
    fn balanced_by(n: u64, len: usize, weight: impl Fn(usize) -> f64) -> Result<Self, ModelError> {
        if len == 0 {
            return Err(ModelError::DegeneratePartition {
                reason: "zero processors",
            });
        }
        if (0..len).map(&weight).any(|s| s < 0.0 || !s.is_finite()) {
            return Err(ModelError::DegeneratePartition {
                reason: "negative or non-finite speed",
            });
        }
        if (0..len).map(&weight).sum::<f64>() <= 0.0 {
            return Err(ModelError::DegeneratePartition {
                reason: "zero total speed",
            });
        }
        Ok(Self::from_shares(apportion_by(n, len, weight)))
    }

    /// Balanced workload for the leaves of `tree`, using their compute
    /// speeds as weights (indexed by `ProcId`).
    pub fn balanced_for(tree: &MachineTree, n: u64) -> Result<Self, ModelError> {
        let speed = |i: usize| tree.node(tree.leaves()[i]).params().speed;
        Self::balanced_by(n, tree.num_procs(), speed)
    }

    /// Communication-aware balanced workload: weights are the geometric
    /// mean of compute speed and communication speed (`1/r`). The paper
    /// asks for `c_{i,j}` "proportional to its computational and
    /// communication abilities" but derives it from a compute-only
    /// benchmark — §5.2 then observes exactly the resulting
    /// mis-estimation ("the second fastest processor … sends too many
    /// elements"). This constructor is the fix: machines with fast CPUs
    /// but slow NICs get correspondingly smaller shares. Experiment E10
    /// quantifies the effect.
    pub fn comm_aware_for(tree: &MachineTree, n: u64) -> Result<Self, ModelError> {
        let weight = |i: usize| {
            let p = tree.node(tree.leaves()[i]).params();
            (p.speed * (1.0 / p.r)).sqrt()
        };
        Self::balanced_by(n, tree.num_procs(), weight)
    }

    /// Total number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.shares.len()
    }

    /// Share of processor `pid` (the paper's `x_j = c_j·n`).
    pub fn share(&self, pid: ProcId) -> u64 {
        self.shares[pid.rank()]
    }

    /// All shares, indexed by rank.
    pub fn shares(&self) -> &[u64] {
        &self.shares
    }

    /// First item owned by `pid`.
    pub fn offset(&self, pid: ProcId) -> u64 {
        self.offsets[pid.rank()]
    }

    /// The half-open item range owned by `pid`.
    pub fn range(&self, pid: ProcId) -> std::ops::Range<u64> {
        self.offsets[pid.rank()]..self.offsets[pid.rank() + 1]
    }

    /// Effective fractions `c_j = share_j / n` (all zero if `n = 0`).
    pub fn fractions(&self) -> Vec<f64> {
        if self.n == 0 {
            return vec![0.0; self.shares.len()];
        }
        self.shares
            .iter()
            .map(|&s| s as f64 / self.n as f64)
            .collect()
    }

    /// The processor owning item `i`, by binary search.
    pub fn owner(&self, item: u64) -> Option<ProcId> {
        if item >= self.n {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.shares.len();
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.offsets[mid] <= item {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // Skip zero-width ranges: the found block must actually contain
        // the item.
        debug_assert!(self.offsets[lo] <= item && item < self.offsets[lo + 1]);
        Some(ProcId(lo as u32))
    }
}

/// Derive hierarchical fractions for every node of `tree`: each leaf gets
/// `c` proportional to its compute speed, each cluster the sum of its
/// children — satisfying the model's requirement that children partition
/// their cluster's fraction. Returns the `(node, c)` assignments; apply
/// with [`MachineTree::set_fractions`].
pub(crate) fn hierarchical_fractions(tree: &MachineTree) -> Vec<(crate::NodeIdx, f64)> {
    let total: f64 = tree
        .leaves()
        .iter()
        .map(|&l| tree.node(l).params().speed)
        .sum();
    let mut out = Vec::with_capacity(tree.nodes().count());
    for node in tree.nodes() {
        let c = if node.is_proc() {
            node.params().speed / total
        } else {
            tree.subtree_leaves(node.idx())
                .iter()
                .map(|&l| tree.node(l).params().speed)
                .sum::<f64>()
                / total
        };
        out.push((node.idx(), c));
    }
    out
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the fractions")]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    #[test]
    fn apportion_sums_exactly() {
        for n in [0u64, 1, 7, 100, 1001] {
            for w in [vec![1.0, 2.0, 3.0], vec![0.5; 7], vec![1.0]] {
                let shares = apportion(n, &w);
                assert_eq!(shares.iter().sum::<u64>(), n, "n={n}, w={w:?}");
            }
        }
    }

    #[test]
    fn apportion_is_proportional() {
        let shares = apportion(100, &[3.0, 1.0]);
        assert_eq!(shares, vec![75, 25]);
    }

    #[test]
    fn apportion_zero_weights_fall_back_to_equal() {
        assert_eq!(apportion(4, &[0.0, 0.0]), vec![2, 2]);
    }

    #[test]
    fn equal_partition_matches_paper_unbalanced() {
        let p = Partition::equal(10, 4).unwrap();
        assert_eq!(p.shares(), &[3, 3, 2, 2]);
        assert_eq!(p.range(ProcId(0)), 0..3);
        assert_eq!(p.range(ProcId(3)), 8..10);
    }

    #[test]
    fn balanced_gives_fast_machines_more() {
        let p = Partition::balanced(1000, &[1.0, 0.5, 0.25]).unwrap();
        assert!(p.share(ProcId(0)) > p.share(ProcId(1)));
        assert!(p.share(ProcId(1)) > p.share(ProcId(2)));
        assert_eq!(p.shares().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn balanced_for_tree_uses_leaf_speeds() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap();
        let p = Partition::balanced_for(&t, 300).unwrap();
        assert_eq!(p.shares(), &[200, 100]);
    }

    #[test]
    fn comm_aware_penalizes_slow_nics() {
        // Two machines with the same compute speed; the one with the
        // 4x-slower NIC gets half the share (sqrt(1/4) = 1/2).
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (4.0, 1.0)]).unwrap();
        let p = Partition::comm_aware_for(&t, 300).unwrap();
        assert_eq!(p.shares(), &[200, 100]);
        // Compute-only balancing would split evenly.
        let b = Partition::balanced_for(&t, 300).unwrap();
        assert_eq!(b.shares(), &[150, 150]);
    }

    #[test]
    fn owner_inverts_ranges() {
        let p = Partition::balanced(100, &[1.0, 3.0, 1.0]).unwrap();
        for item in 0..100 {
            let owner = p.owner(item).unwrap();
            assert!(p.range(owner).contains(&item));
        }
        assert_eq!(p.owner(100), None);
    }

    #[test]
    fn degenerate_partitions_rejected() {
        assert!(Partition::equal(10, 0).is_err());
        assert!(Partition::balanced(10, &[]).is_err());
        assert!(Partition::balanced(10, &[0.0, 0.0]).is_err());
        assert!(Partition::balanced(10, &[-1.0, 2.0]).is_err());
    }

    #[test]
    fn hierarchical_fractions_validate() {
        let mut t = TreeBuilder::two_level(
            1.0,
            10.0,
            &[(1.0, vec![(1.0, 1.0), (2.0, 0.5)]), (1.0, vec![(2.0, 0.5)])],
        )
        .unwrap();
        let fr = hierarchical_fractions(&t);
        t.set_fractions(&fr);
        t.validate().expect("fractions are consistent");
        // Root fraction is 1.
        let root_c = t.node(t.root()).params().c.unwrap();
        assert!((root_c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractions_of_zero_n() {
        let p = Partition::equal(0, 3).unwrap();
        assert_eq!(p.fractions(), vec![0.0, 0.0, 0.0]);
    }
}
