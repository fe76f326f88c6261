//! Every collective has one executable form — its lowering interpreted
//! by [`ScheduleProgram`] — and this file pins that form from three
//! sides:
//!
//! 1. **Cost equivalence** — [`hbsp::collectives::predict`]'s
//!    schedule-derived reports equal the pre-refactor closed forms
//!    (§4.2–4.4, duplicated verbatim in [`legacy`] below) bit for bit.
//!    The machines use dyadic `r` values and small `n`, so every float
//!    product in both derivations is exact and `==` is meaningful.
//!
//! 2. **Frozen goldens** — simulated time and message count of every
//!    plan variant on the shipped machines equal the values the
//!    hand-written SPMD programs produced at the last commit that
//!    carried them ([`GOLDEN`]).
//!
//! 3. **Engine and schedule agreement** — on random machines, for every
//!    kind and strategy, the interpreter delivers exactly one message
//!    per scheduled transfer and ends in identical states at identical
//!    model times on the simulator and the threaded runtime.
//!
//! (That results match sequential semantics under every plan is
//! `tests/collectives_correctness.rs`.)

mod common;

use common::arb_machine;
use hbsp::collectives::broadcast::BroadcastPlan;
use hbsp::collectives::gather::GatherPlan;
use hbsp::collectives::plan::{PhasePolicy, RootPolicy, Strategy as PlanStrategy, WorkloadPolicy};
use hbsp::collectives::predict;
use hbsp::collectives::reduce::ReduceOp;
use hbsp::collectives::schedule::{self, seeded_inits, ScheduleProgram};
use hbsp::collectives::{allgather, alltoall, broadcast, gather, reduce, scan, scatter};
use hbsp::collectives::{rank_plans, CollectiveKind};
use hbsp::core::{topology, CostReport, MachineTree, ProcId};
use hbsp::prelude::*;
use hbsp_sim::SimOutcome;
use proptest::prelude::*;
use std::sync::Arc;

/// The pre-refactor closed-form predictions, copied verbatim from the
/// deleted `predict.rs` implementations so the schedule-derived costs
/// have a fixed reference to match.
mod legacy {
    use hbsp::collectives::plan::WorkloadPolicy;
    use hbsp::core::{CostReport, Level, MachineTree, NodeIdx, Partition, ProcId, SuperstepCost};

    fn fractions(tree: &MachineTree, n: u64, workload: WorkloadPolicy) -> Vec<u64> {
        match workload {
            WorkloadPolicy::Equal => Partition::equal(n, tree.num_procs()),
            WorkloadPolicy::Balanced => Partition::balanced_for(tree, n),
            WorkloadPolicy::CommAware => Partition::comm_aware_for(tree, n),
        }
        .expect("non-empty machine")
        .shares()
        .to_vec()
    }

    fn r_of(tree: &MachineTree, pid: ProcId) -> f64 {
        tree.leaf(pid).params().r
    }

    fn l_of(tree: &MachineTree, node: NodeIdx) -> f64 {
        tree.node(node).params().l_sync
    }

    fn step(tree: &MachineTree, level: Level, h: f64, l: f64) -> SuperstepCost {
        SuperstepCost {
            level,
            w: 0.0,
            h,
            comm: tree.g() * h,
            sync: l,
        }
    }

    pub fn gather_flat(
        tree: &MachineTree,
        n: u64,
        root: ProcId,
        workload: WorkloadPolicy,
    ) -> CostReport {
        let shares = fractions(tree, n, workload);
        let mut h: f64 = 0.0;
        for (j, &x) in shares.iter().enumerate() {
            let pid = ProcId(j as u32);
            if pid != root {
                h = h.max(r_of(tree, pid) * x as f64);
            }
        }
        let received = n - shares[root.rank()];
        h = h.max(r_of(tree, root) * received as f64);
        let mut rep = CostReport::new();
        rep.push(step(tree, tree.height(), h, l_of(tree, tree.root())));
        rep
    }

    pub fn gather_hierarchical(tree: &MachineTree, n: u64, workload: WorkloadPolicy) -> CostReport {
        let shares = fractions(tree, n, workload);
        let k = tree.height();
        let mut rep = CostReport::new();
        for level in 1..=k {
            let mut h: f64 = 0.0;
            let mut l_max: f64 = 0.0;
            for &cluster in tree.level_nodes(level).expect("level exists") {
                let node = tree.node(cluster);
                if node.is_proc() {
                    continue;
                }
                let rep_pid = tree.node(node.representative()).proc_id().unwrap();
                let mut received = 0u64;
                for &child in node.children() {
                    let child_rep = tree
                        .node(tree.node(child).representative())
                        .proc_id()
                        .unwrap();
                    let child_total: u64 = tree
                        .subtree_leaves(child)
                        .iter()
                        .map(|&l| shares[tree.node(l).proc_id().unwrap().rank()])
                        .sum();
                    if child_rep != rep_pid {
                        h = h.max(r_of(tree, child_rep) * child_total as f64);
                        received += child_total;
                    }
                }
                h = h.max(r_of(tree, rep_pid) * received as f64);
                l_max = l_max.max(l_of(tree, cluster));
            }
            rep.push(step(tree, level, h, l_max));
        }
        rep
    }

    pub fn broadcast_one_phase(tree: &MachineTree, n: u64, root: ProcId) -> CostReport {
        let p = tree.num_procs();
        let mut h = r_of(tree, root) * (n as f64) * (p as f64 - 1.0);
        for pid in (0..p).map(|j| ProcId(j as u32)) {
            if pid != root {
                h = h.max(r_of(tree, pid) * n as f64);
            }
        }
        let mut rep = CostReport::new();
        rep.push(step(tree, tree.height(), h, l_of(tree, tree.root())));
        rep
    }

    pub fn broadcast_two_phase(
        tree: &MachineTree,
        n: u64,
        root: ProcId,
        workload: WorkloadPolicy,
    ) -> CostReport {
        let shares = fractions(tree, n, workload);
        let p = tree.num_procs();
        let l = l_of(tree, tree.root());
        let sent: u64 = n - shares[root.rank()];
        let mut h1 = r_of(tree, root) * sent as f64;
        for (j, &share) in shares.iter().enumerate() {
            let pid = ProcId(j as u32);
            if pid != root {
                h1 = h1.max(r_of(tree, pid) * share as f64);
            }
        }
        let mut h2: f64 = 0.0;
        for (j, &share) in shares.iter().enumerate() {
            let pid = ProcId(j as u32);
            let out = share * (p as u64 - 1);
            let inc = n - share;
            h2 = h2.max(r_of(tree, pid) * out.max(inc) as f64);
        }
        let mut rep = CostReport::new();
        rep.push(step(tree, tree.height(), h1, l));
        rep.push(step(tree, tree.height(), h2, l));
        rep
    }
}

// ---------------------------------------------------------------------
// Dyadic machine generators: every `r` and speed is an exact binary
// fraction, so `r·x` products commute and associate without rounding and
// the closed-form vs schedule-derived reports can be compared with `==`.

fn dyadic_proc() -> impl Strategy<Value = (f64, f64)> {
    (
        prop_oneof![
            Just(1.0f64),
            Just(1.5),
            Just(2.0),
            Just(2.5),
            Just(3.0),
            Just(4.0)
        ],
        prop_oneof![Just(1.0f64), Just(0.75), Just(0.5), Just(0.25), Just(0.125)],
    )
}

fn dyadic_flat_machine() -> impl Strategy<Value = MachineTree> {
    proptest::collection::vec(dyadic_proc(), 1..=8).prop_map(|mut procs| {
        procs[0].0 = 1.0;
        TreeBuilder::flat(1.0, 100.0, &procs).expect("valid dyadic flat machine")
    })
}

fn dyadic_hbsp2_machine() -> impl Strategy<Value = MachineTree> {
    proptest::collection::vec(
        (
            prop_oneof![Just(25.0f64), Just(50.0), Just(100.0)],
            proptest::collection::vec(dyadic_proc(), 1..=3),
        ),
        1..=3,
    )
    .prop_map(|mut clusters| {
        clusters[0].1[0].0 = 1.0;
        TreeBuilder::two_level(1.0, 1000.0, &clusters).expect("valid dyadic hbsp2 machine")
    })
}

fn dyadic_hbsp3_machine() -> impl Strategy<Value = MachineTree> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(dyadic_proc(), 1..=3), 1..=2),
        1..=2,
    )
    .prop_map(|mut campuses| {
        campuses[0][0][0].0 = 1.0;
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("wan", NodeParams::cluster(5000.0));
        for (ci, lans) in campuses.into_iter().enumerate() {
            let campus = b.child_cluster(root, format!("campus{ci}"), NodeParams::cluster(500.0));
            for (li, procs) in lans.into_iter().enumerate() {
                let lan = b.child_cluster(campus, format!("c{ci}l{li}"), NodeParams::cluster(50.0));
                for (pi, (r, speed)) in procs.into_iter().enumerate() {
                    b.child_proc(lan, format!("c{ci}l{li}p{pi}"), NodeParams::proc(r, speed));
                }
            }
        }
        b.build().expect("valid dyadic hbsp3 machine")
    })
}

fn dyadic_machine() -> impl Strategy<Value = MachineTree> {
    prop_oneof![
        dyadic_flat_machine(),
        dyadic_hbsp2_machine(),
        dyadic_hbsp3_machine()
    ]
}

#[track_caller]
fn assert_reports_equal(got: &CostReport, want: &CostReport, what: &str) {
    assert_eq!(
        got.num_steps(),
        want.num_steps(),
        "{what}: step count differs"
    );
    for (i, (g, w)) in got.steps().iter().zip(want.steps()).enumerate() {
        assert_eq!(g.level, w.level, "{what}: step {i} level");
        assert_eq!(g.w, w.w, "{what}: step {i} w");
        assert_eq!(g.h, w.h, "{what}: step {i} h");
        assert_eq!(g.comm, w.comm, "{what}: step {i} comm");
        assert_eq!(g.sync, w.sync, "{what}: step {i} sync");
    }
}

const WORKLOADS: [WorkloadPolicy; 3] = [
    WorkloadPolicy::Equal,
    WorkloadPolicy::Balanced,
    WorkloadPolicy::CommAware,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite 3a: pricing the lowered schedule reproduces the §4.2–4.4
    /// closed forms bit for bit — the refactor moved the derivation, not
    /// the numbers.
    #[test]
    fn schedule_costs_match_the_closed_forms(
        m in dyadic_machine(),
        n in 1u64..3000,
        root_sel in 0usize..64,
    ) {
        let root = ProcId((root_sel % m.num_procs()) as u32);
        for workload in WORKLOADS {
            assert_reports_equal(
                &predict::gather_flat(&m, n, root, workload),
                &legacy::gather_flat(&m, n, root, workload),
                "gather_flat",
            );
            assert_reports_equal(
                &predict::gather_hierarchical(&m, n, workload),
                &legacy::gather_hierarchical(&m, n, workload),
                "gather_hierarchical",
            );
            assert_reports_equal(
                &predict::broadcast_two_phase(&m, n, root, workload),
                &legacy::broadcast_two_phase(&m, n, root, workload),
                "broadcast_two_phase",
            );
        }
        assert_reports_equal(
            &predict::broadcast_one_phase(&m, n, root),
            &legacy::broadcast_one_phase(&m, n, root),
            "broadcast_one_phase",
        );
    }
}

// ---------------------------------------------------------------------
// Frozen goldens.

/// `(kind/variant, machine, total_time.to_bits(), messages_delivered)`,
/// measured from the hand-written `SpmdProgram`s at the last commit
/// that carried them; that commit asserted legacy == interpreter ==
/// golden for every row but `alltoall/hier`.
///
/// `alltoall/hier` freezes the interpreter's value instead: the legacy
/// program fanned stage-3 pieces out in message-arrival order while the
/// schedule posts them per member — identical traffic, slightly
/// different NIC pipelining — so the two agreed only to within 1 %.
///
/// The testbed's speeds pass through `ln`/`exp` (`bytemark`'s geometric
/// mean), so its bits are those of the libm the table was frozen on.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("gather/flat/Equal", "campus", 0x40f029fe147ae148, 7),
    ("gather/hier/Equal", "campus", 0x40f121b4a3d70a3d, 7),
    ("gather/flat/Balanced", "campus", 0x40f0116f5c28f5c3, 7),
    ("gather/hier/Balanced", "campus", 0x40f0878851eb851f, 7),
    ("gather/flat/Equal", "grid3", 0x411ec8ff0a3d70a4, 8),
    ("gather/hier/Equal", "grid3", 0x41216edb2e147ae1, 8),
    ("gather/flat/Balanced", "grid3", 0x411eca82b851eb85, 8),
    ("gather/hier/Balanced", "grid3", 0x41215e3670a3d70a, 8),
    ("gather/flat/Equal", "testbed10", 0x40c00f8f5c28f5c2, 9),
    ("gather/hier/Equal", "testbed10", 0x40b58f599999999a, 9),
    ("gather/flat/Balanced", "testbed10", 0x40bec6147ae147ad, 9),
    ("gather/hier/Balanced", "testbed10", 0x40b559a666666666, 9),
    ("broadcast/flat-one/Equal", "campus", 0x40fe482ccccccccc, 7),
    ("broadcast/flat-two/Equal", "campus", 0x41021a5e66666666, 63),
    ("broadcast/hier-one-one/Equal", "campus", 0x40f865a3d70a3d70, 7),
    ("broadcast/hier-one-two/Equal", "campus", 0x40f7f2b0a3d70a3e, 31),
    ("broadcast/hier-two-one/Equal", "campus", 0x41039eab70a3d70a, 9),
    ("broadcast/hier-two-two/Equal", "campus", 0x41036531d70a3d71, 33),
    ("broadcast/flat-one/Balanced", "campus", 0x40fe482ccccccccc, 7),
    ("broadcast/flat-two/Balanced", "campus", 0x41016b7333333333, 63),
    ("broadcast/hier-one-one/Balanced", "campus", 0x40f865a3d70a3d70, 7),
    ("broadcast/hier-one-two/Balanced", "campus", 0x40f77d53d70a3d71, 31),
    ("broadcast/hier-two-one/Balanced", "campus", 0x410387b28f5c28f6, 9),
    ("broadcast/hier-two-two/Balanced", "campus", 0x4103138a8f5c28f6, 33),
    ("broadcast/flat-one/Equal", "grid3", 0x4120d10ee147ae14, 8),
    ("broadcast/flat-two/Equal", "grid3", 0x412f430028f5c28c, 80),
    ("broadcast/hier-one-one/Equal", "grid3", 0x4122611acccccccd, 8),
    ("broadcast/hier-one-two/Equal", "grid3", 0x41244cebf0a3d70c, 24),
    ("broadcast/hier-two-one/Equal", "grid3", 0x4130d6c6ee147ae2, 10),
    ("broadcast/hier-two-two/Equal", "grid3", 0x4131ccaf80000000, 26),
    ("broadcast/flat-one/Balanced", "grid3", 0x4120d10ee147ae14, 8),
    ("broadcast/flat-two/Balanced", "grid3", 0x412f3c53cccccccd, 80),
    ("broadcast/hier-one-one/Balanced", "grid3", 0x4122611acccccccd, 8),
    ("broadcast/hier-one-two/Balanced", "grid3", 0x41244ebec7ae147c, 24),
    ("broadcast/hier-two-one/Balanced", "grid3", 0x4130d5e711eb851f, 10),
    ("broadcast/hier-two-two/Balanced", "grid3", 0x4131ccb90f5c28f6, 26),
    ("broadcast/flat-one/Equal", "testbed10", 0x40f3aaa000000000, 9),
    ("broadcast/flat-two/Equal", "testbed10", 0x40e475d333333331, 99),
    ("broadcast/hier-one-one/Equal", "testbed10", 0x40e4d9f333333333, 9),
    ("broadcast/hier-one-two/Equal", "testbed10", 0x40e4d9f333333333, 9),
    ("broadcast/hier-two-one/Equal", "testbed10", 0x40e2984ccccccccc, 99),
    ("broadcast/hier-two-two/Equal", "testbed10", 0x40e2984ccccccccc, 99),
    ("broadcast/flat-one/Balanced", "testbed10", 0x40f3aaa000000000, 9),
    ("broadcast/flat-two/Balanced", "testbed10", 0x40e5286666666666, 99),
    ("broadcast/hier-one-one/Balanced", "testbed10", 0x40e4d9f333333333, 9),
    ("broadcast/hier-one-two/Balanced", "testbed10", 0x40e4d9f333333333, 9),
    ("broadcast/hier-two-one/Balanced", "testbed10", 0x40e368accccccccc, 99),
    ("broadcast/hier-two-two/Balanced", "testbed10", 0x40e368accccccccc, 99),
    ("scatter/Equal", "campus", 0x40f0b0e000000000, 7),
    ("scatter/Balanced", "campus", 0x40f0552000000000, 7),
    ("scatter/Equal", "grid3", 0x411ee3570a3d70a4, 8),
    ("scatter/Balanced", "grid3", 0x411ed7731eb851ec, 8),
    ("scatter/Equal", "testbed10", 0x40c42d3333333333, 9),
    ("scatter/Balanced", "testbed10", 0x40c1c6cccccccccc, 9),
    ("allgather/flat/Equal", "campus", 0x40f383dccccccccd, 56),
    ("allgather/flat/Balanced", "campus", 0x40f281c666666666, 56),
    ("allgather/flat/Equal", "grid3", 0x411fa2a947ae147b, 72),
    ("allgather/flat/Balanced", "grid3", 0x411fa1347ae147ae, 72),
    ("allgather/flat/Equal", "testbed10", 0x40ded50cccccccce, 90),
    ("allgather/flat/Balanced", "testbed10", 0x40e0b6b333333334, 90),
    ("alltoall/flat", "campus", 0x40ed992000000000, 56),
    ("alltoall/hier", "campus", 0x40f0002000000000, 74),
    ("alltoall/flat", "grid3", 0x411e8edb33333333, 72),
    ("alltoall/hier", "grid3", 0x411edc607ae147ae, 90),
    ("alltoall/flat", "testbed10", 0x40a5be0000000000, 90),
    ("alltoall/hier", "testbed10", 0x40ba7f0000000000, 90),
    ("reduce/flat/Sum", "campus", 0x40ee14db99d5dced, 7),
    ("reduce/hier/Sum", "campus", 0x40eed923d70a3d71, 7),
    ("reduce/flat/Min", "campus", 0x40ee14db99d5dced, 7),
    ("reduce/hier/Min", "campus", 0x40eed923d70a3d71, 7),
    ("reduce/flat/Max", "campus", 0x40ee14db99d5dced, 7),
    ("reduce/hier/Max", "campus", 0x40eed923d70a3d71, 7),
    ("reduce/flat/Sum", "grid3", 0x411e9d96fe898232, 8),
    ("reduce/hier/Sum", "grid3", 0x412130b8f13579be, 8),
    ("reduce/flat/Min", "grid3", 0x411e9d96fe898232, 8),
    ("reduce/hier/Min", "grid3", 0x412130b8f13579be, 8),
    ("reduce/flat/Max", "grid3", 0x411e9d96fe898232, 8),
    ("reduce/hier/Max", "grid3", 0x412130b8f13579be, 8),
    ("reduce/flat/Sum", "testbed10", 0x40af5ee147ae147b, 9),
    ("reduce/hier/Sum", "testbed10", 0x40aa3d999999999a, 9),
    ("reduce/flat/Min", "testbed10", 0x40af5ee147ae147b, 9),
    ("reduce/hier/Min", "testbed10", 0x40aa3d999999999a, 9),
    ("reduce/flat/Max", "testbed10", 0x40af5ee147ae147b, 9),
    ("reduce/hier/Max", "testbed10", 0x40aa3d999999999a, 9),
    ("scan/Sum", "campus", 0x40ef20be7e7e7e7e, 28),
    ("scan/Sum", "grid3", 0x411ec10777777778, 36),
    ("scan/Sum", "testbed10", 0x40bfb53333333334, 45),
];

fn golden_machines() -> Vec<(&'static str, MachineTree)> {
    let file = |name: &str| {
        let path = format!("{}/machines/{name}.hbsp", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("shipped machine file exists");
        topology::parse(&text).expect("shipped machine file is valid")
    };
    vec![
        ("campus", file("campus")),
        ("grid3", file("grid3")),
        (
            "testbed10",
            hbsp::bench::testbed(10).expect("testbed builds"),
        ),
    ]
}

const GOLDEN_WORKLOADS: [WorkloadPolicy; 2] = [WorkloadPolicy::Equal, WorkloadPolicy::Balanced];
const GOLDEN_ROOT: RootPolicy = RootPolicy::Rank(1);
const PHASES: [(PhasePolicy, &str); 2] = [
    (PhasePolicy::OnePhase, "one"),
    (PhasePolicy::TwoPhase, "two"),
];

fn golden_items() -> Vec<u32> {
    (0..3001u32).map(|i| i.wrapping_mul(2654435761)).collect()
}

fn golden_vectors(p: usize) -> Vec<Vec<u32>> {
    (0..p)
        .map(|i| (0..64).map(|j| (i * 131 + j * 7) as u32).collect())
        .collect()
}

fn golden_blocks(p: usize) -> Vec<Vec<Vec<u32>>> {
    (0..p)
        .map(|i| {
            (0..p)
                .map(|j| vec![(i * p + j) as u32; (i + 2 * j) % 5])
                .collect()
        })
        .collect()
}

/// Measure every variant of `kind` on the three golden machines and
/// compare, row by row and in order, with `kind`'s slice of [`GOLDEN`].
fn check_golden(kind: &str, measure: impl Fn(&Executor) -> Vec<(String, SimOutcome)>) {
    let want: Vec<_> = GOLDEN
        .iter()
        .filter(|row| row.0.split('/').next() == Some(kind))
        .collect();
    let mut got = Vec::new();
    for (machine, tree) in golden_machines() {
        for (variant, sim) in measure(&Executor::simulator(Arc::new(tree))) {
            got.push((
                format!("{kind}/{variant}"),
                machine,
                sim.total_time.to_bits(),
                sim.messages_delivered,
            ));
        }
    }
    let rendered: String = got
        .iter()
        .map(|(l, m, t, n)| format!("    (\"{l}\", \"{m}\", {t:#018x}, {n}),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "{kind}: measured rows:\n{rendered}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            (g.0.as_str(), g.1, g.2, g.3),
            *w,
            "{kind}: measured rows:\n{rendered}"
        );
    }
}

#[test]
fn golden_gather() {
    check_golden("gather", |exec| {
        let items = golden_items();
        let mut rows = Vec::new();
        for workload in GOLDEN_WORKLOADS {
            for (name, plan) in [
                ("flat", GatherPlan::fast_root().with_root(GOLDEN_ROOT)),
                ("hier", GatherPlan::hierarchical()),
            ] {
                let plan = plan.with_workload(workload);
                let run = gather::run(exec, &items, plan).expect("gather runs");
                rows.push((format!("{name}/{workload:?}"), run.sim));
            }
        }
        rows
    });
}

#[test]
fn golden_broadcast() {
    check_golden("broadcast", |exec| {
        let items = golden_items();
        let mut rows = Vec::new();
        for workload in GOLDEN_WORKLOADS {
            let mut plans = Vec::new();
            for (phase, name) in PHASES {
                let plan = BroadcastPlan {
                    root: GOLDEN_ROOT,
                    strategy: PlanStrategy::Flat,
                    top_phase: phase,
                    cluster_phase: phase,
                    workload,
                };
                plans.push((format!("flat-{name}"), plan));
            }
            for (top_phase, top) in PHASES {
                for (cluster_phase, cluster) in PHASES {
                    let plan = BroadcastPlan {
                        root: RootPolicy::Fastest,
                        strategy: PlanStrategy::Hierarchical,
                        top_phase,
                        cluster_phase,
                        workload,
                    };
                    plans.push((format!("hier-{top}-{cluster}"), plan));
                }
            }
            for (name, plan) in plans {
                let run = broadcast::run(exec, &items, plan).expect("broadcast runs");
                rows.push((format!("{name}/{workload:?}"), run.sim));
            }
        }
        rows
    });
}

#[test]
fn golden_scatter() {
    check_golden("scatter", |exec| {
        let items = golden_items();
        GOLDEN_WORKLOADS
            .into_iter()
            .map(|workload| {
                let run = scatter::run(exec, &items, GOLDEN_ROOT, workload).expect("scatter runs");
                (format!("{workload:?}"), run.sim)
            })
            .collect()
    });
}

#[test]
fn golden_allgather() {
    check_golden("allgather", |exec| {
        let items = golden_items();
        GOLDEN_WORKLOADS
            .into_iter()
            .map(|workload| {
                let run = allgather::run(exec, &items, workload, PlanStrategy::Flat)
                    .expect("allgather runs");
                (format!("flat/{workload:?}"), run.sim)
            })
            .collect()
    });
}

#[test]
fn golden_alltoall() {
    check_golden("alltoall", |exec| {
        let blocks = golden_blocks(exec.tree().num_procs());
        let flat = alltoall::run(exec, blocks.clone(), PlanStrategy::Flat).expect("alltoall runs");
        let hier = alltoall::run(exec, blocks, PlanStrategy::Hierarchical).expect("alltoall runs");
        vec![
            ("flat".to_string(), flat.sim),
            ("hier".to_string(), hier.sim),
        ]
    });
}

#[test]
fn golden_reduce() {
    check_golden("reduce", |exec| {
        let vectors = golden_vectors(exec.tree().num_procs());
        let mut rows = Vec::new();
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            for (name, root, strategy) in [
                ("flat", GOLDEN_ROOT, PlanStrategy::Flat),
                ("hier", RootPolicy::Fastest, PlanStrategy::Hierarchical),
            ] {
                let run =
                    reduce::run(exec, vectors.clone(), op, root, strategy).expect("reduce runs");
                rows.push((format!("{name}/{op:?}"), run.sim));
            }
        }
        rows
    });
}

#[test]
fn golden_scan() {
    check_golden("scan", |exec| {
        let vectors = golden_vectors(exec.tree().num_procs());
        let run = scan::run(exec, vectors, ReduceOp::Sum).expect("scan runs");
        vec![("Sum".to_string(), run.sim)]
    });
}

// ---------------------------------------------------------------------
// Engine and schedule agreement on random machines.

/// Every default plan for `kind` — flat and, where the kind has one,
/// hierarchical — staged with seeded data: the programs the scheduler,
/// the adaptive executor and the benchmark run.
fn staged_plans(
    m: &MachineTree,
    kind: CollectiveKind,
    n: u64,
    seed: u64,
) -> Vec<(PlanStrategy, ScheduleProgram)> {
    let plans = rank_plans(m, kind, n).expect("machine has processors");
    plans
        .into_iter()
        .map(|plan| {
            let (init, op) = seeded_inits(m, &plan, n, seed);
            let prog = ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op);
            (plan.strategy, prog)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The interpreter delivers exactly one message per scheduled
    /// transfer, for every kind and strategy.
    #[test]
    fn messages_delivered_equal_scheduled_transfers(
        m in arb_machine(),
        n in 0u64..600,
        seed in any::<u64>(),
    ) {
        let sim = Executor::simulator(Arc::new(m.clone()));
        for kind in CollectiveKind::ALL {
            for (strategy, prog) in staged_plans(&m, kind, n, seed) {
                let scheduled: usize =
                    prog.schedule().steps.iter().map(|s| s.transfers.len()).sum();
                let (outcome, _) = schedule::execute(&sim, &prog).expect("sim run");
                prop_assert_eq!(
                    outcome.sim.messages_delivered, scheduled as u64, "{} {:?}", kind, strategy
                );
            }
        }
    }

    /// One schedule, two engines: for every kind and strategy the
    /// interpreter produces identical model times and final states on
    /// the simulator and the threaded runtime (each threaded run spawns
    /// real OS threads, so the case count stays small).
    #[test]
    fn interpreter_agrees_across_engines(
        m in arb_machine(),
        kind in 0usize..CollectiveKind::ALL.len(),
        n in 0u64..600,
        seed in any::<u64>(),
    ) {
        let kind = CollectiveKind::ALL[kind];
        let tree = Arc::new(m);
        for (strategy, prog) in staged_plans(&tree, kind, n, seed) {
            let (sim_out, sim_states) =
                schedule::execute(&Executor::simulator(Arc::clone(&tree)), &prog)
                    .expect("sim run");
            let (thr_out, thr_states) =
                schedule::execute(&Executor::threads(Arc::clone(&tree)), &prog)
                    .expect("threaded run");
            prop_assert_eq!(
                sim_out.total_time(), thr_out.total_time(), "{} {:?}", kind, strategy
            );
            prop_assert_eq!(&sim_states, &thr_states, "{} {:?}", kind, strategy);
        }
    }
}
