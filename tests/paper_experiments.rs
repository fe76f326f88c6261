//! End-to-end smoke of every paper experiment at reduced scale, via the
//! facade crate — what a user reproducing the paper would run.

use hbsp::bench::figures;
use hbsp::bench::{
    broadcast_balance_improvement, broadcast_crossover, broadcast_root_improvement,
    gather_balance_improvement, gather_root_improvement, hbsp2_amortization, hbsp2_phase_study,
    model_accuracy,
};

const PS: [usize; 3] = [2, 6, 10];
const KBS: [usize; 2] = [100, 400];

#[test]
fn e1_figure_3a() {
    let pts = gather_root_improvement(&PS, &KBS).unwrap();
    assert_eq!(pts.len(), PS.len() * KBS.len());
    // Shape: inverted at p=2, increasing with p, flat in n.
    let f = |p: usize, kb: usize| pts.iter().find(|x| x.p == p && x.kb == kb).unwrap().factor;
    assert!(f(2, 100) < 1.0);
    assert!(f(6, 100) > 1.3);
    assert!(f(10, 100) > f(6, 100));
    assert!((f(10, 100) - f(10, 400)).abs() / f(10, 100) < 0.05);
    // And the table renders every point.
    let table = figures::improvement_table("Figure 3(a)", &pts);
    assert!(table.contains("Figure 3(a)"));
    assert_eq!(table.lines().count(), 3 + KBS.len());
}

#[test]
fn e2_figure_3b() {
    let pts = gather_balance_improvement(&PS, &KBS).unwrap();
    for pt in &pts {
        assert!(
            (0.9..1.25).contains(&pt.factor),
            "balanced gather is nearly a wash everywhere: {pt:?}"
        );
    }
}

#[test]
fn e3_e4_figure_4() {
    for pt in broadcast_root_improvement(&PS, &KBS).unwrap() {
        assert!(
            (0.9..1.45).contains(&pt.factor),
            "root choice ~neutral: {pt:?}"
        );
    }
    for pt in broadcast_balance_improvement(&PS, &KBS).unwrap() {
        assert!(
            (0.85..1.15).contains(&pt.factor),
            "balance ~neutral: {pt:?}"
        );
    }
}

#[test]
fn e5_params_table_is_complete() {
    // Table 1 instantiation: every model symbol is queryable.
    let tree = hbsp::bench::hbsp2_testbed(60_000.0).unwrap();
    assert!(tree.g() > 0.0);
    assert_eq!(tree.height(), 2);
    let m1 = tree.machines_on_level(1).unwrap();
    assert_eq!(m1, 2);
    for level in 0..=tree.height() {
        for &idx in tree.level_nodes(level).unwrap() {
            let node = tree.node(idx);
            let p = node.params();
            assert!(p.r >= 1.0);
            assert!(p.l_sync >= 0.0);
            assert!(p.speed > 0.0 && p.speed <= 1.0);
        }
    }
}

#[test]
fn e6_crossover() {
    let rows = broadcast_crossover(&[2, 4, 8], 100).unwrap();
    assert!(rows.iter().all(|r| r.winners_agree()));
    let last = rows.last().unwrap();
    assert!(last.two_sim < last.one_sim, "two-phase wins at p=8");
    let first = &rows[0];
    assert!(
        first.one_sim < first.two_sim,
        "one-phase wins at p=2 on this testbed"
    );
}

#[test]
fn e7_hbsp2_phases() {
    let rows = hbsp2_phase_study(&[1_000.0, 100_000.0], 100).unwrap();
    assert_eq!(rows.len(), 2);
    // Larger L_{2,0} penalizes the extra super²-step of the two-phase
    // variant relative to one-phase.
    let gap = |r: &hbsp::bench::Hbsp2PhaseRow| r.two_sim - r.one_sim;
    assert!(gap(&rows[1]) > gap(&rows[0]));
    // The §4.4 predictions: the two-phase super²-steps carry 2L.
    assert!(rows[1].two_pred > rows[1].one_pred);
}

#[test]
fn e8_amortization() {
    let rows = hbsp2_amortization(&[25, 100, 400], 60_000.0).unwrap();
    assert!(rows[0].overhead() > rows[1].overhead());
    assert!(rows[1].overhead() > rows[2].overhead());
    for r in &rows {
        assert!(r.hier_top_msgs < r.flat_top_msgs);
    }
}

#[test]
fn e11_bsp_vs_hbsp_configuration() {
    // §6: performance comes from root selection + workload distribution
    // alone. The gap must grow with p.
    use hbsp::collectives::plan::{RootPolicy, WorkloadPolicy};
    use hbsp::lib::Executor;
    use std::sync::Arc;
    let items = hbsp::bench::input_kb(100);
    let mut improvements = Vec::new();
    for p in [2usize, 6, 10] {
        let exec = Executor::simulator(Arc::new(hbsp::bench::testbed(p).unwrap()));
        let sort = |workload, root| hbsp::apps::sort::run(&exec, &items, workload, root).unwrap();
        let bsp = sort(WorkloadPolicy::Equal, RootPolicy::Rank(p as u32 - 1));
        let aware = sort(WorkloadPolicy::Balanced, RootPolicy::Fastest);
        assert_eq!(bsp.sorted, aware.sorted);
        improvements.push(bsp.time / aware.time);
    }
    assert!(improvements[0] > 1.0);
    assert!(improvements[2] > improvements[0], "{improvements:?}");
    assert!(improvements[2] > 1.4, "{improvements:?}");
}

#[test]
fn e9_model_accuracy() {
    let rows = model_accuracy(6, 100).unwrap();
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(
            r.ratio() > 0.5 && r.ratio() < 5.0,
            "{}: simulated/predicted = {}",
            r.op,
            r.ratio()
        );
    }
    let table = figures::accuracy_table(&rows);
    assert!(table.contains("gather"));
}
