//! Machine-file linting: the paper's Table-1 parameter rules and §4
//! design rules as exhaustive, span-tagged diagnostics.
//!
//! Unlike `MachineTree::validate()`, which fails fast on the first
//! broken invariant, the linter reports *every* violation at once, and
//! adds two rules validation does not enforce: the coordinator of each
//! cluster must be the communication-fastest machine in its subtree,
//! and a declared machine class `k` must match the tree height.

use crate::violation::Violation;
use hbsp_core::{Level, MachineTree};

/// A lint finding, optionally anchored to a source position in the
/// machine file (1-based line and column of the offending node).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What is wrong.
    pub violation: Violation,
    /// Where in the file, when known.
    pub span: Option<(u32, u32)>,
}

/// Lint a machine tree against the model's invariants. The tree may be
/// unvalidated (see `hbsp_core::topology::parse_unvalidated`); every
/// broken invariant is reported, not just the first.
pub fn lint_machine(tree: &MachineTree, declared_k: Option<Level>) -> Vec<Violation> {
    let mut out = Vec::new();
    if tree.g() <= 0.0 || !tree.g().is_finite() {
        out.push(Violation::InvalidG { g: tree.g() });
    }
    if tree.num_procs() == 0 {
        out.push(Violation::EmptyMachine);
    }

    let mut min_leaf_r = f64::INFINITY;
    for node in tree.nodes() {
        let id = node.machine_id();
        let p = node.params();
        if p.r < 1.0 || !p.r.is_finite() {
            out.push(Violation::InvalidR { id, r: p.r });
        }
        if node.is_proc() {
            min_leaf_r = min_leaf_r.min(p.r);
            // Only where r and g are each finite: otherwise InvalidR or
            // InvalidG already names the defect.
            let (r, g) = (p.r, tree.g());
            if r.is_finite() && g.is_finite() && !(r * g).is_finite() {
                out.push(Violation::WordCostOverflow { id, r, g });
            }
        }
        if p.l_sync < 0.0 || !p.l_sync.is_finite() {
            out.push(Violation::InvalidL { id, l: p.l_sync });
        }
        if !(p.speed > 0.0 && p.speed <= 1.0) {
            out.push(Violation::InvalidSpeed { id, speed: p.speed });
        }
        if let Some(c) = p.c {
            if !(0.0..=1.0).contains(&c) {
                out.push(Violation::InvalidFraction { id, c });
            }
        }
        if !node.is_proc() && node.num_children() == 0 {
            out.push(Violation::EmptyCluster { id });
        }
    }
    if min_leaf_r.is_finite() && (min_leaf_r - 1.0).abs() > 1e-9 {
        out.push(Violation::NonUnitFastestR { min_r: min_leaf_r });
    }

    // Table 1: children fractions partition their cluster's share.
    for node in tree.nodes() {
        if node.is_proc() || node.num_children() == 0 {
            continue;
        }
        // `None` when some child has no fraction: nothing to check.
        let Some(sum) = node
            .children()
            .iter()
            .map(|&c| tree.node(c).params().c)
            .sum::<Option<f64>>()
        else {
            continue;
        };
        let expected = node.params().c.unwrap_or(1.0);
        if (sum - expected).abs() > 1e-6 {
            out.push(Violation::FractionSum {
                id: node.machine_id(),
                sum,
                expected,
            });
        }
    }

    // §4: the coordinator (the representative acting for the cluster in
    // level-i communication) must be the fastest machine in its subtree.
    for node in tree.nodes() {
        if node.is_proc() || node.num_children() == 0 {
            continue;
        }
        let rep_r = tree.node(node.representative()).params().r;
        let min_r = tree
            .subtree_leaves(node.idx())
            .iter()
            .map(|&l| tree.node(l).params().r)
            .fold(f64::INFINITY, f64::min);
        if min_r.is_finite() && rep_r > min_r + 1e-9 {
            out.push(Violation::CoordinatorNotFastest {
                id: node.machine_id(),
                rep_r,
                min_r,
            });
        }
    }

    if let Some(declared) = declared_k {
        if declared != tree.height() {
            out.push(Violation::HeightMismatch {
                declared,
                actual: tree.height(),
            });
        }
    }
    out
}

/// [`lint_machine`] with source spans attached: `spans[i]` is the
/// 1-based `(line, column)` where node `i` (in arena order) was
/// declared, as produced by `hbsp_core::topology::parse_unvalidated`.
pub fn lint_with_spans(
    tree: &MachineTree,
    declared_k: Option<Level>,
    spans: &[(u32, u32)],
) -> Vec<Diagnostic> {
    lint_machine(tree, declared_k)
        .into_iter()
        .map(|violation| {
            let span = violation_node(&violation)
                .and_then(|id| tree.resolve(id).ok())
                .and_then(|idx| spans.get(idx.index()).copied());
            Diagnostic { violation, span }
        })
        .collect()
}

fn violation_node(v: &Violation) -> Option<hbsp_core::MachineId> {
    match v {
        Violation::InvalidR { id, .. }
        | Violation::WordCostOverflow { id, .. }
        | Violation::InvalidL { id, .. }
        | Violation::InvalidSpeed { id, .. }
        | Violation::InvalidFraction { id, .. }
        | Violation::FractionSum { id, .. }
        | Violation::EmptyCluster { id }
        | Violation::CoordinatorNotFastest { id, .. } => Some(*id),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{NodeParams, TreeBuilder};

    #[test]
    fn valid_machine_lints_clean() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (10.0, vec![(1.5, 0.8)]),
            ],
        )
        .unwrap();
        assert!(lint_machine(&t, Some(2)).is_empty());
        assert_eq!(
            lint_machine(&t, Some(3)),
            vec![Violation::HeightMismatch {
                declared: 3,
                actual: 2
            }]
        );
    }

    #[test]
    fn linter_reports_every_violation_at_once() {
        // Build an invalid tree without validate() by skipping it.
        let mut b = TreeBuilder::new(-1.0);
        let root = b.cluster("c", NodeParams::cluster(-5.0));
        b.child_proc(root, "a", NodeParams::proc(2.0, 1.0));
        b.child_proc(root, "b", NodeParams::proc(3.0, 2.0));
        let t = b.build_unvalidated().unwrap();
        let v = lint_machine(&t, None);
        assert!(v.contains(&Violation::InvalidG { g: -1.0 }), "{v:?}");
        assert!(
            v.iter().any(|x| matches!(x, Violation::InvalidL { .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::InvalidSpeed { .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::NonUnitFastestR { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn coordinator_not_fastest_is_caught() {
        // "slow" has the higher speed (so it becomes representative) but
        // the worse communication rate r — §4 says make the fastest
        // machine the coordinator.
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("lan", NodeParams::cluster(100.0));
        b.child_proc(root, "slowlink", NodeParams::proc(3.0, 1.0));
        b.child_proc(root, "fastlink", NodeParams::proc(1.0, 0.5));
        let t = b.build().unwrap();
        let v = lint_machine(&t, None);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::CoordinatorNotFastest { .. })),
            "{v:?}"
        );
    }
}
