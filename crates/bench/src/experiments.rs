//! Drivers for every experiment in the reproduction (see DESIGN.md's
//! experiment index E1–E9).

use crate::testbed::{hbsp2_testbed, input_kb, testbed};
use hbsp_collectives::broadcast::{self, BroadcastPlan};
use hbsp_collectives::gather::{self, lower_gather, GatherPlan};
use hbsp_collectives::plan::{PhasePolicy, WorkloadPolicy};
use hbsp_collectives::predict;
use hbsp_collectives::schedule::{stage, ScheduleProgram, Staging};
use hbsp_collectives::CollectiveError;
use hbsp_core::{CostReport, Level, MachineTree, ModelError, SuperstepCost};
use hbsplib::Executor;
use std::sync::Arc;

/// The simulator on a testbed: what every experiment measures on.
#[expect(
    clippy::expect_used,
    reason = "the testbeds build at every p in 1..=10 and every campus L >= 0 \
              (testbed::tests::testbed_validates_at_every_p, hbsp2_testbed_shape)"
)]
fn simulator(built: Result<MachineTree, ModelError>) -> Executor {
    Executor::simulator(Arc::new(built.expect("testbed builds")))
}

/// One point of a Figure-3/4-style plot: processor count, problem size
/// (KB), and the improvement factor `T_A / T_B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigurePoint {
    /// Number of processors.
    pub p: usize,
    /// Problem size in KB (4-byte integers).
    pub kb: usize,
    /// Improvement factor.
    pub factor: f64,
}

fn sweep(
    ps: &[usize],
    kbs: &[usize],
    mut f: impl FnMut(&Executor, &[u32]) -> Result<f64, CollectiveError>,
) -> Result<Vec<FigurePoint>, CollectiveError> {
    let mut out = Vec::with_capacity(ps.len() * kbs.len());
    for &p in ps {
        let exec = simulator(testbed(p));
        for &kb in kbs {
            let items = input_kb(kb);
            out.push(FigurePoint {
                p,
                kb,
                factor: f(&exec, &items)?,
            });
        }
    }
    Ok(out)
}

/// **E1 / Figure 3(a)** — gather improvement from rooting at `P_f`
/// instead of `P_s`: the factor `T_s / T_f` with equal workloads.
pub fn gather_root_improvement(
    ps: &[usize],
    kbs: &[usize],
) -> Result<Vec<FigurePoint>, CollectiveError> {
    sweep(ps, kbs, |exec, items| {
        let tf = gather::run(exec, items, GatherPlan::fast_root())?.time;
        let ts = gather::run(exec, items, GatherPlan::slow_root())?.time;
        Ok(ts / tf)
    })
}

/// **E2 / Figure 3(b)** — gather improvement from balanced workloads:
/// `T_u / T_b` with the fastest root (`T_u = T_f`).
pub fn gather_balance_improvement(
    ps: &[usize],
    kbs: &[usize],
) -> Result<Vec<FigurePoint>, CollectiveError> {
    sweep(ps, kbs, |exec, items| {
        let tu = gather::run(exec, items, GatherPlan::fast_root())?.time;
        let tb = gather::run(exec, items, GatherPlan::balanced())?.time;
        Ok(tu / tb)
    })
}

/// **E3 / Figure 4(a)** — broadcast improvement from rooting at `P_f`:
/// `T_s / T_f`, two-phase, equal workloads.
pub fn broadcast_root_improvement(
    ps: &[usize],
    kbs: &[usize],
) -> Result<Vec<FigurePoint>, CollectiveError> {
    sweep(ps, kbs, |exec, items| {
        let tf = broadcast::run(exec, items, BroadcastPlan::two_phase())?.time;
        let ts = broadcast::run(exec, items, BroadcastPlan::slow_root())?.time;
        Ok(ts / tf)
    })
}

/// **E4 / Figure 4(b)** — broadcast improvement from balanced
/// first-phase pieces: `T_u / T_b`.
pub fn broadcast_balance_improvement(
    ps: &[usize],
    kbs: &[usize],
) -> Result<Vec<FigurePoint>, CollectiveError> {
    sweep(ps, kbs, |exec, items| {
        let tu = broadcast::run(exec, items, BroadcastPlan::two_phase())?.time;
        let tb = broadcast::run(exec, items, BroadcastPlan::balanced())?.time;
        Ok(tu / tb)
    })
}

/// One row of the §4.4 crossover study (E6): simulated and predicted
/// times for one- and two-phase broadcast at a given `p`.
#[derive(Debug, Clone, Copy)]
pub struct CrossoverRow {
    /// Number of processors.
    pub p: usize,
    /// Slowest participant's `r`.
    pub r_s: f64,
    /// Simulated one-phase time.
    pub one_sim: f64,
    /// Simulated two-phase time.
    pub two_sim: f64,
    /// Predicted one-phase time (§4.4 formula).
    pub one_pred: f64,
    /// Predicted two-phase time (§4.4 formula).
    pub two_pred: f64,
}

impl CrossoverRow {
    /// True when the simulation and the model agree on the winner.
    pub fn winners_agree(&self) -> bool {
        (self.one_sim < self.two_sim) == (self.one_pred < self.two_pred)
    }
}

/// **E6** — flat one- vs two-phase broadcast across processor counts
/// (§4.4's `g·n·m` vs `g·n(1 + r_s) + 2L` crossover).
pub fn broadcast_crossover(ps: &[usize], kb: usize) -> Result<Vec<CrossoverRow>, CollectiveError> {
    let items = input_kb(kb);
    let n = items.len() as u64;
    let mut rows = Vec::new();
    for &p in ps {
        let exec = simulator(testbed(p));
        let tree = exec.tree();
        let root = tree.fastest_proc();
        let one_sim = broadcast::run(&exec, &items, BroadcastPlan::one_phase())?.time;
        let two_sim = broadcast::run(&exec, &items, BroadcastPlan::two_phase())?.time;
        let one_pred = predict::broadcast_one_phase(tree, n, root).total();
        let two_pred = predict::broadcast_two_phase(tree, n, root, WorkloadPolicy::Equal).total();
        let r_s = tree.leaf(tree.slowest_proc()).params().r;
        rows.push(CrossoverRow {
            p,
            r_s,
            one_sim,
            two_sim,
            one_pred,
            two_pred,
        });
    }
    Ok(rows)
}

/// One row of the §4.4 HBSP^2 top-level study (E7).
#[derive(Debug, Clone, Copy)]
pub struct Hbsp2PhaseRow {
    /// Campus barrier cost `L_{2,0}`.
    pub l2: f64,
    /// Simulated hierarchical broadcast, one-phase top.
    pub one_sim: f64,
    /// Simulated hierarchical broadcast, two-phase top.
    pub two_sim: f64,
    /// Predicted super²-step cost, one-phase.
    pub one_pred: f64,
    /// Predicted super²-step cost, two-phase.
    pub two_pred: f64,
}

/// §4.4's closed form for the *top-level* super²-step of a one-phase
/// hierarchical broadcast: the root coordinator ships the full array to
/// the `m − 1` other coordinators. Kept here (not in
/// `hbsp_collectives::predict`) because it prices only the top phase of
/// the operation — an analysis device for E7, not a whole schedule.
pub fn hbsp2_top_one_phase(tree: &MachineTree, n: u64) -> CostReport {
    let (root_r, slowest_coord_r, m, l) = top_level_params(tree);
    let h = (root_r * n as f64 * (m as f64 - 1.0)).max(slowest_coord_r * n as f64);
    let mut rep = CostReport::new();
    rep.push(top_step(tree, tree.height(), h, l));
    rep
}

/// §4.4's closed form for the top-level super²-steps of a two-phase
/// hierarchical broadcast: scatter pieces to the coordinators, then
/// all-gather among them.
pub fn hbsp2_top_two_phase(tree: &MachineTree, n: u64) -> CostReport {
    let (root_r, slowest_coord_r, m, l) = top_level_params(tree);
    let piece = n as f64 / m as f64;
    let h1 = (root_r * (n as f64 - piece)).max(slowest_coord_r * piece);
    let h2 = slowest_coord_r * n as f64;
    let mut rep = CostReport::new();
    rep.push(top_step(tree, tree.height(), h1, l));
    rep.push(top_step(tree, tree.height(), h2, l));
    rep
}

fn top_level_params(tree: &MachineTree) -> (f64, f64, usize, f64) {
    let k = tree.height();
    assert!(k >= 1, "top-level analysis needs a cluster machine");
    let root = tree.node(tree.root());
    let root_r = root.params().r;
    let mut slowest = root_r;
    for &child in root.children() {
        let rep_leaf = tree.node(child).representative();
        slowest = slowest.max(tree.node(rep_leaf).params().r);
    }
    (root_r, slowest, root.num_children(), root.params().l_sync)
}

fn top_step(tree: &MachineTree, level: Level, h: f64, l: f64) -> SuperstepCost {
    SuperstepCost {
        level,
        w: 0.0,
        h,
        comm: tree.g() * h,
        sync: l,
    }
}

/// **E7** — HBSP^2 one- vs two-phase super²-step distribution over a
/// range of campus barrier costs.
pub fn hbsp2_phase_study(l2s: &[f64], kb: usize) -> Result<Vec<Hbsp2PhaseRow>, CollectiveError> {
    let items = input_kb(kb);
    let n = items.len() as u64;
    let mut rows = Vec::new();
    for &l2 in l2s {
        let exec = simulator(hbsp2_testbed(l2));
        let hier = |top| broadcast::run(&exec, &items, BroadcastPlan::hierarchical(top));
        let one_sim = hier(PhasePolicy::OnePhase)?.time;
        let two_sim = hier(PhasePolicy::TwoPhase)?.time;
        let one_pred = hbsp2_top_one_phase(exec.tree(), n).total();
        let two_pred = hbsp2_top_two_phase(exec.tree(), n).total();
        rows.push(Hbsp2PhaseRow {
            l2,
            one_sim,
            two_sim,
            one_pred,
            two_pred,
        });
    }
    Ok(rows)
}

/// One row of the §4.3 amortization study (E8).
#[derive(Debug, Clone, Copy)]
pub struct AmortizationRow {
    /// Problem size (KB).
    pub kb: usize,
    /// HBSP^2 hierarchical gather time.
    pub hier: f64,
    /// Flat gather time on the same machine, for reference.
    pub flat: f64,
    /// The model's HBSP^1 lower bound `g·n` (§4.2's balanced-gather
    /// cost without any hierarchy overhead).
    pub ideal: f64,
    /// Messages that crossed the campus (level-2) links, hierarchical.
    pub hier_top_msgs: u64,
    /// Messages that crossed the campus links, flat.
    pub flat_top_msgs: u64,
}

impl AmortizationRow {
    /// Hierarchy overhead multiple: simulated HBSP^2 gather time over
    /// the `g·n` ideal. §4.3 says this must fall toward a constant as
    /// `n` grows (the `L` terms and extra super²-step amortize).
    pub fn overhead(&self) -> f64 {
        self.hier / self.ideal
    }
}

/// **E8** — §4.3: "efficient algorithm execution in this environment
/// implies that the size of the problem must outweigh the cost of
/// performing the extra level of communication and synchronization".
/// Sweeps `n` on the HBSP^2 testbed: the hierarchical gather's overhead
/// over the `g·n` ideal must shrink as `n` grows, and the hierarchy
/// must cross the campus links with fewer messages than the flat
/// gather.
pub fn hbsp2_amortization(kbs: &[usize], l2: f64) -> Result<Vec<AmortizationRow>, CollectiveError> {
    let exec = simulator(hbsp2_testbed(l2));
    let mut rows = Vec::new();
    for &kb in kbs {
        let items = input_kb(kb);
        let hier_run = gather::run(&exec, &items, GatherPlan::hierarchical())?;
        let flat_run = gather::run(&exec, &items, GatherPlan::fast_root())?;
        let top = |run: &gather::GatherRun| -> u64 {
            run.sim
                .steps
                .iter()
                .map(|s| s.traffic.get(2).map_or(0, |t| t.messages))
                .sum()
        };
        rows.push(AmortizationRow {
            kb,
            hier: hier_run.time,
            flat: flat_run.time,
            ideal: exec.tree().g() * items.len() as f64,
            hier_top_msgs: top(&hier_run),
            flat_top_msgs: top(&flat_run),
        });
    }
    Ok(rows)
}

/// **E10 (extension)** — gather improvement from *communication-aware*
/// balancing: `T_u / T_c` where `T_c` uses `c_j` from the geometric
/// mean of compute and communication speed. The paper's §5.2 blames
/// Figure 3(b)'s flatness on the compute-only `c_j` of the
/// second-fastest machine; weighting by both abilities (the model
/// text's actual instruction) should recover a real benefit.
pub fn gather_comm_aware_improvement(
    ps: &[usize],
    kbs: &[usize],
) -> Result<Vec<FigurePoint>, CollectiveError> {
    sweep(ps, kbs, |exec, items| {
        let tu = gather::run(exec, items, GatherPlan::fast_root())?.time;
        let comm_aware = GatherPlan::fast_root().with_workload(WorkloadPolicy::CommAware);
        let tc = gather::run(exec, items, comm_aware)?.time;
        Ok(tu / tc)
    })
}

/// One row of the barrier-scope ablation.
#[derive(Debug, Clone, Copy)]
pub struct BarrierAblationRow {
    /// Rounds of cluster-local exchange performed.
    pub rounds: usize,
    /// Total time with level-1 (cluster-scoped) barriers.
    pub scoped: f64,
    /// Total time with global (level-k) barriers.
    pub global: f64,
}

/// **Ablation** — why level-scoped barriers exist: a program that exchanges
/// only within clusters, synchronized either per cluster
/// (`SyncScope::Level(1)`, each cluster paying its own `L_{1,j}`) or
/// globally (every step paying `L_{2,0}` and waiting for the slowest
/// cluster). The paper's super^i-step notion is exactly this scoping.
pub fn barrier_scope_ablation(
    rounds_list: &[usize],
    l2: f64,
) -> Result<Vec<BarrierAblationRow>, CollectiveError> {
    use hbsp_core::{ProcEnv, SpmdContext, SpmdProgram, StepOutcome, SyncScope};

    /// Ring exchange within each level-1 cluster for `rounds` steps.
    struct ClusterRing {
        rounds: usize,
        scope_level: u32,
    }
    impl SpmdProgram for ClusterRing {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _state: &mut (),
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            use hbsplib::TreeEnquiry;
            if step == self.rounds {
                return StepOutcome::Done;
            }
            let members = env.tree.cluster_members(env.pid, 1);
            let me = members.iter().position(|&m| m == env.pid);
            if let Some(me) = me.filter(|_| members.len() > 1) {
                let next = members[(me + 1) % members.len()];
                ctx.send(next, 0, &[0u8; 512]);
            }
            ctx.charge(200.0);
            StepOutcome::Continue(SyncScope::Level(self.scope_level))
        }
    }

    let exec = simulator(hbsp2_testbed(l2));
    let mut rows = Vec::new();
    for &rounds in rounds_list {
        let ring = |scope_level| {
            exec.run(&ClusterRing {
                rounds,
                scope_level,
            })
        };
        rows.push(BarrierAblationRow {
            rounds,
            scoped: ring(1)?.0.total_time(),
            global: ring(2)?.0.total_time(),
        });
    }
    Ok(rows)
}

/// One row of the model-accuracy study (E9).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Operation label.
    pub op: &'static str,
    /// Model-predicted time (§4 formulas).
    pub predicted: f64,
    /// Simulated time.
    pub simulated: f64,
}

/// Price the gather program that actually runs with the generic
/// [`hbsplib::predict_program`] and compare against the closed forms —
/// the two prediction paths must agree (up to the few header words per
/// message the closed forms don't count).
pub fn model_evaluator_agreement(p: usize, kb: usize) -> Result<Vec<(f64, f64)>, CollectiveError> {
    let tree = simulator(testbed(p)).tree().clone();
    let items = input_kb(kb);
    let n = items.len() as u64;
    let root = tree.fastest_proc();
    let mut pairs = Vec::new();
    for wl in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
        let closed = predict::gather_flat(&tree, n, root, wl).total();
        let (sched, _root) = lower_gather(&tree, n, GatherPlan::fast_root().with_workload(wl))?;
        let init = stage(&tree, Staging::Shares(&items, wl));
        let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);
        let evaluated = hbsplib::predict_program(tree.clone(), &prog)?.total();
        pairs.push((closed, evaluated));
    }
    Ok(pairs)
}

impl AccuracyRow {
    /// `simulated / predicted`.
    pub fn ratio(&self) -> f64 {
        self.simulated / self.predicted
    }
}

/// **E9** — predicted vs simulated time for the §4 collectives on the
/// `p`-machine testbed. The simulator's pack/unpack pipeline and
/// per-message overheads are *not* in the model, so ratios cluster
/// around a constant greater than 1; the claim under test is that the
/// model *ranks* designs correctly and tracks scale, not that it
/// predicts absolute microcosts.
pub fn model_accuracy(p: usize, kb: usize) -> Result<Vec<AccuracyRow>, CollectiveError> {
    let exec = simulator(testbed(p));
    let tree = exec.tree();
    let items = input_kb(kb);
    let n = items.len() as u64;
    let root = tree.fastest_proc();
    let rows = vec![
        AccuracyRow {
            op: "gather (fast root, equal)",
            predicted: predict::gather_flat(tree, n, root, WorkloadPolicy::Equal).total(),
            simulated: gather::run(&exec, &items, GatherPlan::fast_root())?.time,
        },
        AccuracyRow {
            op: "gather (fast root, balanced)",
            predicted: predict::gather_flat(tree, n, root, WorkloadPolicy::Balanced).total(),
            simulated: gather::run(&exec, &items, GatherPlan::balanced())?.time,
        },
        AccuracyRow {
            op: "broadcast (one-phase)",
            predicted: predict::broadcast_one_phase(tree, n, root).total(),
            simulated: broadcast::run(&exec, &items, BroadcastPlan::one_phase())?.time,
        },
        AccuracyRow {
            op: "broadcast (two-phase)",
            predicted: predict::broadcast_two_phase(tree, n, root, WorkloadPolicy::Equal).total(),
            simulated: broadcast::run(&exec, &items, BroadcastPlan::two_phase())?.time,
        },
    ];
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_KB: [usize; 2] = [100, 300];

    #[test]
    fn fig3a_shape_holds() {
        let pts = gather_root_improvement(&[2, 6, 10], &SMALL_KB).unwrap();
        // p = 2: inverted (slow root wins) — the paper's anomaly.
        for pt in pts.iter().filter(|pt| pt.p == 2) {
            assert!(pt.factor < 1.0, "p=2 should invert: {pt:?}");
        }
        // p >= 6: fast root wins, and the factor grows with p.
        let avg = |p: usize| {
            let v: Vec<f64> = pts
                .iter()
                .filter(|pt| pt.p == p)
                .map(|pt| pt.factor)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg(6) > 1.0, "p=6 factor {}", avg(6));
        assert!(
            avg(10) > avg(6),
            "factor grows with p: {} vs {}",
            avg(10),
            avg(6)
        );
        // Flat across problem sizes: spread within a few percent.
        for p in [6, 10] {
            let v: Vec<f64> = pts
                .iter()
                .filter(|pt| pt.p == p)
                .map(|pt| pt.factor)
                .collect();
            let spread = (v[0] - v[1]).abs() / v[0];
            assert!(spread < 0.1, "p={p} factor should be flat in n: {v:?}");
        }
    }

    #[test]
    fn fig3b_shape_holds() {
        let pts = gather_balance_improvement(&[2, 6, 10], &SMALL_KB).unwrap();
        // p = 2: balanced workloads help.
        for pt in pts.iter().filter(|pt| pt.p == 2) {
            assert!(pt.factor > 1.03, "p=2 balanced should help: {pt:?}");
        }
        // p >= 6: virtually no benefit (§5.2: the second-fastest
        // machine's c_j overestimates its network).
        for pt in pts.iter().filter(|pt| pt.p >= 6) {
            assert!(
                (0.85..1.15).contains(&pt.factor),
                "balanced gather should be a wash at p={}: {}",
                pt.p,
                pt.factor
            );
        }
    }

    #[test]
    fn e10_comm_aware_beats_compute_only_balancing() {
        let naive = gather_balance_improvement(&[6, 10], &SMALL_KB).unwrap();
        let aware = gather_comm_aware_improvement(&[6, 10], &SMALL_KB).unwrap();
        for (n, a) in naive.iter().zip(&aware) {
            assert!(
                a.factor >= n.factor - 1e-9,
                "comm-aware balancing should do at least as well: {a:?} vs {n:?}"
            );
        }
        // And at p=10 it should show a real benefit where compute-only
        // was a wash.
        let a10 = aware
            .iter()
            .filter(|pt| pt.p == 10)
            .map(|pt| pt.factor)
            .sum::<f64>()
            / 2.0;
        let n10 = naive
            .iter()
            .filter(|pt| pt.p == 10)
            .map(|pt| pt.factor)
            .sum::<f64>()
            / 2.0;
        assert!(a10 > n10, "comm-aware {a10} vs compute-only {n10}");
    }

    #[test]
    fn fig4_shapes_hold() {
        let root_pts = broadcast_root_improvement(&[4, 10], &SMALL_KB).unwrap();
        for pt in &root_pts {
            assert!(
                (0.8..1.45).contains(&pt.factor),
                "broadcast root choice is nearly neutral: {pt:?}"
            );
        }
        let bal_pts = broadcast_balance_improvement(&[4, 10], &SMALL_KB).unwrap();
        for pt in &bal_pts {
            assert!(
                (0.85..1.15).contains(&pt.factor),
                "broadcast balancing is a wash: {pt:?}"
            );
        }
    }

    #[test]
    fn crossover_agrees_with_model() {
        let rows = broadcast_crossover(&[2, 4, 8, 10], 200).unwrap();
        for row in &rows {
            assert!(
                row.winners_agree(),
                "model and simulation disagree at p={}",
                row.p
            );
        }
        // Two-phase wins from modest p on.
        assert!(rows.last().unwrap().two_sim < rows.last().unwrap().one_sim);
    }

    #[test]
    fn amortization_overhead_shrinks_with_n() {
        let rows = hbsp2_amortization(&[25, 100, 800], 60_000.0).unwrap();
        // Hierarchy always crosses the campus with fewer messages.
        for r in &rows {
            assert!(r.hier_top_msgs < r.flat_top_msgs, "{r:?}");
        }
        // The overhead multiple over the g·n ideal falls as n grows —
        // the barriers and the extra super²-step amortize (§4.3).
        assert!(rows[0].overhead() > rows[1].overhead());
        assert!(rows[1].overhead() > rows[2].overhead());
    }

    #[test]
    fn scoped_barriers_beat_global_barriers_for_cluster_local_work() {
        let rows = barrier_scope_ablation(&[1, 8], 40_000.0).unwrap();
        for r in &rows {
            assert!(
                r.scoped < r.global,
                "cluster-local sync must win for cluster-local work: {r:?}"
            );
        }
        // And the gap grows with the number of supersteps (each global
        // step pays L_{2,0}).
        let gap = |r: &BarrierAblationRow| r.global - r.scoped;
        assert!(gap(&rows[1]) > gap(&rows[0]) * 4.0);
    }

    #[test]
    fn evaluator_and_closed_forms_agree() {
        for (closed, evaluated) in model_evaluator_agreement(8, 100).unwrap() {
            assert!(
                (closed - evaluated).abs() / closed < 0.01,
                "closed {closed} vs evaluated {evaluated}"
            );
        }
    }

    #[test]
    fn traced_gather_runs_the_strategy_it_was_asked_for() {
        let recorder = Arc::new(hbsp_obs::Recorder::new());
        let exec = simulator(hbsp2_testbed(60_000.0)).probe(recorder.clone());
        let items = input_kb(10);
        let barriered = |plan| {
            let before = recorder.recorded();
            let out = gather::run(&exec, &items, plan).unwrap().sim;
            let traced = recorder.recorded() - before;
            assert_eq!(traced, out.num_steps() as u64, "every step was traced");
            out.num_steps() - 1 // the last step is the barrier-free drain
        };
        assert_eq!(barriered(GatherPlan::fast_root()), 1);
        assert_eq!(
            barriered(GatherPlan::hierarchical()),
            exec.tree().height() as usize,
            "one super^i-step per level"
        );
    }

    #[test]
    fn model_accuracy_is_stable_and_ranks_correctly() {
        let rows = model_accuracy(8, 200).unwrap();
        for r in &rows {
            assert!(
                r.ratio() > 0.5 && r.ratio() < 5.0,
                "{}: ratio {}",
                r.op,
                r.ratio()
            );
        }
        // The model must rank one- vs two-phase the same way the
        // simulator does.
        let one = rows.iter().find(|r| r.op.contains("one-phase")).unwrap();
        let two = rows.iter().find(|r| r.op.contains("two-phase")).unwrap();
        assert_eq!(
            one.predicted < two.predicted,
            one.simulated < two.simulated,
            "model preserves the design ranking"
        );
    }
}
