//! Job-graph validation for the multi-tenant scheduler.
//!
//! A job graph is a DAG over jobs `0..num_jobs` whose edges are
//! `blocked_by` constraints: `(job, dep)` means `job` may not start
//! until `dep` has completed. The scheduler drains the graph by
//! repeatedly admitting ready jobs onto disjoint carved sub-trees, so
//! two structural properties must hold before anything runs:
//!
//! 1. **The graph is acyclic** ([`verify_dag`]) — a cycle (or a
//!    self-edge, or an edge to a nonexistent job) means some job can
//!    never become ready and the drain loop would stall forever.
//! 2. **Concurrent claims are leaf-disjoint** ([`verify_claims`]) — two
//!    jobs running in the same batch must not share a physical
//!    processor, or one leaf would execute two supersteps at once.
//!
//! [`lint_carved`] closes the loop with the Table-1 machine linter: a
//! sub-tree carved out of a valid shared tree must itself be a valid
//! HBSP^k machine (fastest `r = 1` after renormalization, fractions
//! partitioning, coordinator fastest).

use crate::machine::lint_machine;
use crate::violation::Violation;
use hbsp_core::{MachineTree, NodeIdx};

/// Validate the `blocked_by` graph of a job set: self-dependencies,
/// edges to nonexistent jobs, and cycles.
///
/// `deps` lists edges `(job, dep)` meaning `job` is blocked by `dep`.
/// Cycles are looked for on the well-formed subset of edges: each
/// strongly connected component of more than one job (Tarjan's
/// algorithm) is reported as one concrete cycle, so two disjoint cycles
/// give two violations. A cycle is where a walk from its component's
/// smallest job, following the smallest successor inside the
/// component, first repeats a job; cycles come sorted.
pub fn verify_dag(num_jobs: usize, deps: &[(usize, usize)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut blocked_by = vec![Vec::new(); num_jobs];
    for &(job, dep) in deps {
        if job >= num_jobs || dep >= num_jobs {
            out.push(Violation::DependencyOutOfRange { job, dep, num_jobs });
        } else if job == dep {
            out.push(Violation::SelfDependency { job });
        } else {
            blocked_by[job].push(dep);
        }
    }
    for b in &mut blocked_by {
        b.sort_unstable();
    }
    let components = cyclic_components(&blocked_by);
    let mut comp = vec![usize::MAX; num_jobs];
    for (c, members) in components.iter().enumerate() {
        members.iter().for_each(|&m| comp[m] = c);
    }
    let mut seen_at = vec![usize::MAX; num_jobs];
    let mut cycles: Vec<Vec<usize>> = (components.iter().enumerate())
        .map(|(c, members)| {
            // Every member waits on another member, so the walk stays
            // inside the component until it repeats a job.
            let (mut path, mut cur) = (Vec::new(), members[0]);
            loop {
                if seen_at[cur] != usize::MAX {
                    break path.split_off(seen_at[cur]);
                }
                seen_at[cur] = path.len();
                path.push(cur);
                match blocked_by[cur].iter().find(|&&d| comp[d] == c) {
                    Some(&next) => cur = next,
                    None => break path,
                }
            }
        })
        .collect();
    cycles.sort_unstable();
    out.extend(
        cycles
            .into_iter()
            .map(|cycle| Violation::DependencyCycle { cycle }),
    );
    out
}

/// The strongly connected components of more than one node of the
/// graph `succ`, each sorted (Tarjan's algorithm, iterative so that a
/// long chain of jobs cannot overflow the stack).
fn cyclic_components(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSEEN: usize = usize::MAX;
    let n = succ.len();
    let (mut index, mut low, mut on_stack) = (vec![UNSEEN; n], vec![0; n], vec![false; n]);
    let (mut stack, mut frames, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, i)) = frames.last() {
            if i == 0 {
                (index[v], low[v]) = (next, next);
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(i) {
                let top = frames.len() - 1;
                frames[top].1 += 1;
                if index[w] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let mut members = Vec::new();
                while let Some(m) = stack.pop() {
                    on_stack[m] = false;
                    members.push(m);
                    if m == v {
                        break;
                    }
                }
                if members.len() > 1 {
                    members.sort_unstable();
                    out.push(members);
                }
            }
        }
    }
    out
}

/// Check that a batch of concurrent claims — `(job, claimed node)`
/// pairs against one shared tree — is leaf-disjoint.
///
/// Reports [`Violation::ClaimOutOfRange`] for claims naming foreign
/// nodes and [`Violation::ClaimOverlap`] (with one witness leaf) for
/// every pair of claims whose sub-trees intersect.
pub fn verify_claims(tree: &MachineTree, claims: &[(usize, NodeIdx)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let num_nodes = tree.nodes().count();
    let mut owner: Vec<Option<usize>> = vec![None; tree.num_procs()];
    let mut leaves = Vec::new();
    for &(job, idx) in claims {
        if idx.index() >= num_nodes {
            out.push(Violation::ClaimOutOfRange {
                job,
                idx: idx.index(),
                num_nodes,
            });
            continue;
        }
        tree.subtree_leaves_into(idx, &mut leaves);
        // Every subtree leaf is a processor, so none is skipped.
        for pid in leaves.iter().filter_map(|&leaf| tree.node(leaf).proc_id()) {
            match owner[pid.rank()] {
                Some(job_a) if job_a != job => out.push(Violation::ClaimOverlap {
                    job_a,
                    job_b: job,
                    leaf: pid,
                }),
                _ => owner[pid.rank()] = Some(job),
            }
        }
    }
    out
}

/// Lint the machine that carving `idx` out of `parent` would produce.
///
/// A carved sub-tree is renormalized exactly like
/// `MachineTree::degrade` (fastest leaf back to `r = 1`, `g` scaled to
/// preserve absolute cost, fractions re-derived), so a clean parent
/// must yield a clean carve; any finding here is a carving bug, not a
/// user error. No class `k` is asserted: in an unbalanced tree the
/// node's level only bounds the carved height from above.
pub fn lint_carved(parent: &MachineTree, idx: NodeIdx) -> Vec<Violation> {
    let num_nodes = parent.nodes().count();
    if idx.index() >= num_nodes {
        return vec![Violation::ClaimOutOfRange {
            job: 0,
            idx: idx.index(),
            num_nodes,
        }];
    }
    let carved = parent.carve(idx);
    lint_machine(&carved.tree, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn campus_like() -> MachineTree {
        // Two clusters of two under one root: the smallest tree with
        // carvable disjoint sub-trees.
        TreeBuilder::two_level(
            1.0,
            50.0,
            &[
                (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (10.0, vec![(1.5, 0.8), (3.0, 0.4)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn clean_dag_passes() {
        // Fork-join: 0 fans out to 1..3, 4 joins them.
        let deps = [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3)];
        assert!(verify_dag(5, &deps).is_empty());
    }

    #[test]
    fn self_dependency_is_reported() {
        let v = verify_dag(2, &[(1, 1)]);
        assert_eq!(v, vec![Violation::SelfDependency { job: 1 }]);
        assert!(v[0].is_fatal());
    }

    #[test]
    fn dangling_dependency_is_reported() {
        let v = verify_dag(2, &[(0, 7)]);
        assert_eq!(
            v,
            vec![Violation::DependencyOutOfRange {
                job: 0,
                dep: 7,
                num_jobs: 2
            }]
        );
    }

    #[test]
    fn cycle_is_reported_with_members() {
        // 0 -> 1 -> 2 -> 0 (blocked_by), plus an innocent job 3
        // downstream of the cycle that must not be named as the cycle.
        let v = verify_dag(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::DependencyCycle { cycle } => {
                let mut sorted = cycle.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, vec![0, 1, 2]);
            }
            other => panic!("expected DependencyCycle, got {other:?}"),
        }
        // Two disjoint cycles, 0 <-> 1 and 2 <-> 3: each is named.
        let v = verify_dag(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        assert_eq!(
            v,
            vec![
                Violation::DependencyCycle { cycle: vec![0, 1] },
                Violation::DependencyCycle { cycle: vec![2, 3] },
            ]
        );
    }

    #[test]
    fn two_node_cycle_detected() {
        let v = verify_dag(2, &[(0, 1), (1, 0)]);
        assert!(matches!(&v[0], Violation::DependencyCycle { cycle } if cycle.len() == 2));
    }

    #[test]
    fn disjoint_claims_pass() {
        let tree = campus_like();
        let clusters = tree.level_nodes(1).unwrap().to_vec();
        let claims = [(0usize, clusters[0]), (1usize, clusters[1])];
        assert!(verify_claims(&tree, &claims).is_empty());
    }

    #[test]
    fn overlapping_claims_name_the_shared_leaf() {
        let tree = campus_like();
        let clusters = tree.level_nodes(1).unwrap().to_vec();
        // Job 1 claims the root, which contains job 0's cluster.
        let claims = [(0usize, clusters[0]), (1usize, tree.root())];
        let v = verify_claims(&tree, &claims);
        assert!(!v.is_empty());
        assert!(v.iter().all(|x| matches!(
            x,
            Violation::ClaimOverlap {
                job_a: 0,
                job_b: 1,
                ..
            }
        )));
    }

    #[test]
    fn foreign_claim_is_out_of_range() {
        let tree = campus_like();
        let v = verify_claims(&tree, &[(3, NodeIdx::from_index(999))]);
        assert_eq!(
            v,
            vec![Violation::ClaimOutOfRange {
                job: 3,
                idx: 999,
                num_nodes: tree.nodes().count()
            }]
        );
    }

    #[test]
    fn carved_subtree_lints_clean() {
        let tree = campus_like();
        for &c in tree.level_nodes(1).unwrap() {
            assert!(
                lint_carved(&tree, c).is_empty(),
                "carving a cluster of a valid tree must lint clean"
            );
        }
    }
}
