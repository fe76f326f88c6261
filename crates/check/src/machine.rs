//! Machine-file linting: the paper's Table-1 parameter rules and §4
//! design rules as exhaustive, span-tagged diagnostics.
//!
//! The Table-1 rules live in `hbsp-core`, in one walk:
//! `MachineTree::defects` reports every broken invariant, and
//! `MachineTree::validate()` is its first finding. The lint wraps each
//! defect as a [`Violation::Machine`] and adds the one rule validation
//! does not enforce: the coordinator of each cluster must be the
//! communication-fastest machine in its subtree.

use crate::violation::Violation;
use hbsp_core::topology::ParsedMachine;
use hbsp_core::{MachineTree, ModelError};

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
pub fn lint_machine(tree: &MachineTree) -> Vec<Violation> {
    lint(tree.defects(), tree)
}

/// [`lint_machine`] of a parsed file, with its declared `k` checked
/// ([`ParsedMachine::defects`]) and source spans attached: a finding
/// that names a machine points at the line and column where that node
/// was declared.
pub fn lint_with_spans(parsed: &ParsedMachine) -> Vec<Diagnostic> {
    let tree = &parsed.tree;
    lint(parsed.defects(), tree)
        .into_iter()
        .map(|violation| {
            let node = match &violation {
                Violation::Machine(e) => e.machine(),
                Violation::CoordinatorNotFastest { id, .. } => Some(*id),
                _ => None,
            };
            let span = node
                .and_then(|id| tree.resolve(id).ok())
                .and_then(|idx| parsed.spans.get(idx.index()).copied());
            Diagnostic { violation, span }
        })
        .collect()
}

/// `defects`, then §4's rule: the coordinator (the representative
/// acting for the cluster in level-i communication) must be the fastest
/// machine in its subtree.
fn lint(defects: Vec<ModelError>, tree: &MachineTree) -> Vec<Violation> {
    let mut out: Vec<Violation> = defects.into_iter().map(Violation::Machine).collect();
    for node in tree.nodes().filter(|n| n.num_children() > 0) {
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
    out
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
        assert!(lint_machine(&t).is_empty());
        let declared = |k| ParsedMachine {
            tree: t.clone(),
            declared_k: Some(k),
            spans: Vec::new(),
        };
        assert!(lint_with_spans(&declared(2)).is_empty());
        assert_eq!(
            lint_with_spans(&declared(3)),
            vec![Diagnostic {
                violation: Violation::Machine(ModelError::HeightMismatch {
                    declared: 3,
                    actual: 2
                }),
                span: None
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
        let v = lint_machine(&t);
        let has = |want: fn(&ModelError) -> bool| {
            v.iter()
                .any(|x| matches!(x, Violation::Machine(e) if want(e)))
        };
        let invalid_g = Violation::Machine(ModelError::InvalidG { g: -1.0 });
        assert!(v.contains(&invalid_g), "{v:?}");
        assert!(has(|e| matches!(e, ModelError::InvalidL { .. })), "{v:?}");
        assert!(
            has(|e| matches!(e, ModelError::InvalidSpeed { .. })),
            "{v:?}"
        );
        assert!(has(|e| matches!(e, ModelError::NoUnitR { .. })), "{v:?}");
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
        let v = lint_machine(&t);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::CoordinatorNotFastest { .. })),
            "{v:?}"
        );
    }
}
