//! Multi-tenant job scheduler for HBSP^k machines: a DAG of collectives
//! (and custom programs) on one shared machine tree.
//!
//! The layers below this crate answer "how does *one* program run on
//! *one* machine": `hbsp-collectives` lowers and prices a collective,
//! `hbsplib`'s [`Executor`] drives it on either engine. This crate adds
//! the tenancy axis the paper's campus scenario implies — many users
//! share the machine tree, each holding a *sub-tree* of it:
//!
//! 1. **Submission.** Users [`Scheduler::submit`] [`Job`]s: a
//!    [`CollectiveKind`] plus size hint (auto-tuned per placement), or a
//!    pre-lowered [`JobWork::Custom`] schedule. `blocked_by` edges form
//!    a DAG; fork-join is the core topology.
//! 2. **Carving.** For each ready job the scheduler probes every
//!    sub-tree of the shared machine via [`MachineTree::carve`] — the
//!    exact renormalization `degrade` uses (unit-normalized r, `g`
//!    absorbing the factor, coordinator-fastest re-election) — and
//!    prices the job there with `best_plan` / `predict`, each node
//!    carved and each shape tuned once per belief, and lowered from that
//!    price. The job claims the cheapest adequate sub-tree whose leaves
//!    are still free; claims within a batch are leaf-disjoint by
//!    construction and re-checked with [`hbsp_check::verify_claims`].
//! 3. **Batched admission.** All claims of a round merge into *one*
//!    program on the shared tree (the `merge` module documents the
//!    shared-barrier containment argument): per superstep one shared
//!    barrier at the maximum claimed level, so co-scheduled tenants
//!    amortize synchronization instead of paying it serially. A round
//!    costs the *max* of its members, not the sum — the whole point of
//!    sharing the tree.
//! 4. **Draining.** Rounds repeat until the DAG is drained; the typed
//!    [`SchedReport`] carries per-job placements, predicted-vs-observed
//!    costs ([`hbsp_obs::DriftReport`] per batch), the causal span tree
//!    (batch → job → superstep) and the `hbsp_jobs_*` metric family.
//!
//! Determinism: job input data is generated from a splitmix-seeded
//! stream of the job's id, and both engines agree on virtual time, so a
//! job graph replays **bit-identically** on the [`Engine::Simulator`]
//! and [`Engine::Threads`], batched or serial.

pub mod job;
mod lower;
mod merge;
pub mod report;

pub use job::{Job, JobId, JobWork};
pub use report::{BatchReport, JobReport, SchedError, SchedReport};

/// Re-exported so job graphs can be described without importing
/// `hbsp_collectives` directly.
pub use hbsp_collectives::CollectiveKind;

use crate::lower::{lower_on, LoweredJob, Placements, Priced};
use hbsp_check::{verify_claims, verify_dag};
use hbsp_collectives::drift::predicted_steps;
use hbsp_collectives::reduce::ReduceOp;
use hbsp_collectives::schedule::ScheduleState;
use hbsp_collectives::ScheduleProgram;
use hbsp_core::{MachineTree, NodeIdx, ProcId};
use hbsp_obs::{CausalKind, JobMetrics};
use hbsp_sim::FaultPlan;
use hbsplib::{Action, AdaptiveConfig, ClosedLoop, Executor};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which engine drains the graph. Virtual-time outcomes are
/// bit-identical across the two; threads additionally reports wall
/// durations to any probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The event-driven simulator.
    #[default]
    Simulator,
    /// The threaded runtime (one OS thread per processor).
    Threads,
}

/// Knobs for one [`Scheduler::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Engine choice.
    pub engine: Engine,
    /// Admit one job per round instead of batching compatible ready
    /// jobs. Same placements, same per-job results — only the barrier
    /// sharing differs, which is what makes this the control arm of the
    /// batching experiment.
    pub serial: bool,
    /// Closed-loop adaptation threshold. The scheduler prices and
    /// lowers on the belief of an [`hbsplib::ClosedLoop`]; after any
    /// batch whose mean absolute per-step drift exceeds the threshold
    /// the loop re-calibrates the belief from that batch's telemetry,
    /// and the scheduler drops its placement cache and re-places the
    /// remaining jobs on the updated belief. `None` (default) is the
    /// open-loop scheduler: an infinite threshold.
    pub adapt: Option<f64>,
}

/// The multi-tenant scheduler: owns the shared [`MachineTree`] and the
/// submitted job graph; [`Scheduler::run`] drains it.
#[derive(Debug)]
pub struct Scheduler {
    tree: Arc<MachineTree>,
    jobs: Vec<Job>,
    faults: FaultPlan,
}

impl Scheduler {
    /// A scheduler owning `tree` with an empty job graph.
    pub fn new(tree: Arc<MachineTree>) -> Scheduler {
        Scheduler {
            tree,
            jobs: Vec::new(),
            faults: FaultPlan::new(),
        }
    }

    /// Inject a fault plan into every admitted batch program. Engine
    /// step indices restart at 0 for each batch, so the plan describes
    /// the *shape* of interference each round sees (e.g. a persistent
    /// straggler), not one global timeline.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The shared machine.
    pub fn tree(&self) -> &Arc<MachineTree> {
        &self.tree
    }

    /// Add a job to the graph. Ids are dense and ordered by submission;
    /// `blocked_by` edges may reference any id, validation happens at
    /// [`Scheduler::run`].
    pub fn submit(&mut self, job: Job) -> JobId {
        self.jobs.push(job);
        JobId(self.jobs.len() - 1)
    }

    /// The submitted jobs, in id order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Drain the job graph: repeatedly place every ready job on the
    /// cheapest adequate free sub-tree, merge the round's claims into
    /// one shared-barrier program, and execute it on the chosen engine.
    ///
    /// Virtual time is the scheduler's clock: each round advances it by
    /// the round's [`hbsplib::ExecOutcome::total_time`], and the
    /// report's `total_time` is the makespan of the whole graph.
    pub fn run(&self, opts: &RunOptions) -> Result<SchedReport, SchedError> {
        let n = self.jobs.len();
        let tree = &self.tree;
        let p = tree.num_procs();

        // Graph validation up front: nothing runs on a broken DAG.
        let edges: Vec<(usize, usize)> = (self.jobs.iter().enumerate())
            .flat_map(|(i, j)| j.blocked_by.iter().map(move |d| (i, d.0)))
            .collect();
        let violations = verify_dag(n, &edges);
        if !violations.is_empty() {
            return Err(SchedError::InvalidGraph(violations));
        }
        for (i, job) in self.jobs.iter().enumerate() {
            if let JobWork::Custom { schedule, .. } = &job.work {
                let steps = &schedule.steps;
                let body_ok = steps
                    .iter()
                    .enumerate()
                    .all(|(s, st)| (s + 1 == steps.len()) == st.scope.is_none());
                if steps.is_empty() || !body_ok {
                    return Err(SchedError::MalformedCustom { job: JobId(i) });
                }
            }
        }

        // Every node of the shared tree is a placement candidate: its
        // index and its leaves' global ranks, ascending, collected once
        // through a reused scratch buffer (`subtree_leaves_into`).
        let mut scratch = Vec::new();
        let candidates: Vec<(NodeIdx, Vec<ProcId>)> = (tree.nodes())
            .map(|node| {
                tree.subtree_leaves_into(node.idx(), &mut scratch);
                let pids = scratch.iter().filter_map(|&l| tree.node(l).proc_id());
                (node.idx(), pids.collect())
            })
            .collect();

        let exec = match opts.engine {
            Engine::Simulator => Executor::simulator(tree.clone()),
            Engine::Threads => Executor::threads(tree.clone()),
        }
        .faults(self.faults.clone());
        // Closed loop: placement prices and lowerings come from the
        // loop's belief tree; execution stays on the physical tree
        // (same shape and pids, so lowered programs transfer). The
        // open loop never moves the belief, so both price identically.
        let cfg = AdaptiveConfig {
            drift_threshold: opts.adapt.unwrap_or(f64::INFINITY),
            ..AdaptiveConfig::default()
        };
        let mut cl = ClosedLoop::new(&exec, cfg, CausalKind::Batch);
        let exec = exec.probe(cl.recorder());
        let mut metrics = JobMetrics::new();
        metrics.submitted(n as u64);

        let mut job_reports: Vec<JobReport> = Vec::with_capacity(n);
        let mut batches: Vec<BatchReport> = Vec::new();
        // Prices are pure functions of the job's shape and node on the
        // belief: repeated shapes carve, tune and price once.
        let mut placements = Placements::new(cl.belief().clone());
        let max_batch = if opts.serial { 1 } else { usize::MAX };
        // Ready counts: a job waits on its unfinished dependencies and is
        // ready, in submission order, once none is left.
        let mut waiting: Vec<usize> = self.jobs.iter().map(|j| j.blocked_by.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, d) in &edges {
            dependents[d].push(i);
        }
        let mut ready: BTreeSet<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();

        while !ready.is_empty() {
            // Claim phase: ready jobs in submission order each take the
            // cheapest adequate sub-tree whose leaves are still free.
            let mut free = vec![true; p];
            let mut free_leaves = p;
            let mut batch_op: Option<ReduceOp> = None;
            let mut lowered: Vec<LoweredJob> = Vec::new();
            for &i in &ready {
                if lowered.len() >= max_batch || free_leaves == 0 {
                    break;
                }
                let job = &self.jobs[i];
                // One ReduceOp per merged program: defer jobs that would
                // impose a different operator to a later round. Skip jobs
                // needing more leaves than are free — never in an empty
                // round, where every leaf is.
                let need = job.exact_procs().unwrap_or(job.min_procs);
                let clash = matches!((batch_op, job.op()), (Some(a), Some(b)) if a != b);
                if clash || (free_leaves < need.max(1) && !lowered.is_empty()) {
                    continue;
                }
                // Cheapest price, then fewest leaves, then lowest node.
                let mut best: Option<(Priced, NodeIdx, &[ProcId])> = None;
                for (idx, leaves) in &candidates {
                    let adequate = match job.exact_procs() {
                        None => leaves.len() >= job.min_procs,
                        Some(k) => leaves.len() == k,
                    };
                    if !adequate || !leaves.iter().all(|pid| free[pid.rank()]) {
                        continue;
                    }
                    let Some(priced) = placements.price(job, i, *idx) else {
                        continue;
                    };
                    let beats = best.as_ref().is_none_or(|(b, b_idx, b_leaves)| {
                        let tie = (leaves.len(), idx).cmp(&(b_leaves.len(), b_idx));
                        priced.cost.total_cmp(&b.cost).then(tie).is_lt()
                    });
                    if beats {
                        best = Some((priced.clone(), *idx, leaves));
                    }
                }
                match best {
                    Some((priced, idx, leaves)) => {
                        for pid in leaves {
                            free[pid.rank()] = false;
                        }
                        free_leaves -= leaves.len();
                        if batch_op.is_none() {
                            batch_op = job.op();
                        }
                        lowered.push(lower_on(priced, job, i, idx));
                    }
                    // An empty batch means every leaf is free and no op
                    // constraint is active — if the job still fits
                    // nowhere, no future round can do better.
                    None if lowered.is_empty() => {
                        return Err(SchedError::Unplaceable {
                            job: JobId(i),
                            name: job.name.clone(),
                            needed: need,
                            available: p,
                        });
                    }
                    None => {}
                }
            }

            // Defense in depth: the claim loop's free-leaf bookkeeping
            // should make this vacuous; a violation here is a scheduler
            // bug and must not reach tenant data.
            let claims: Vec<(usize, NodeIdx)> = lowered.iter().map(|l| (l.job, l.node)).collect();
            let overlaps = verify_claims(tree, &claims);
            if !overlaps.is_empty() {
                return Err(SchedError::ClaimOverlap(overlaps));
            }

            let (schedule, init) = merge::merge(tree, &lowered);
            let schedule = Arc::new(schedule);
            // Predictions come from the belief: batch drift then
            // measures how wrong the *current* belief is, which is
            // exactly the statistic the loop thresholds.
            let predicted = predicted_steps(cl.belief(), &schedule);
            let prog = ScheduleProgram::new(schedule, Arc::new(init), batch_op);
            let names = lowered.iter().map(|l| self.jobs[l.job].name.clone());
            let mut batch = cl
                .run(&exec, &prog, &predicted, names, |_| {
                    (batch_log(&batches), metrics.snapshot())
                })
                .map_err(|(e, bundle)| SchedError::Exec(e, bundle))?;
            let (start, end) = (batch.start, batch.end);

            for l in &lowered {
                let i = l.job;
                ready.remove(&i);
                for &d in &dependents[i] {
                    waiting[d] -= 1;
                    if waiting[d] == 0 {
                        ready.insert(d);
                    }
                }
                // Claims are leaf-disjoint: each state has one owner.
                let leaves = &l.priced.carved.leaves;
                let job_states: Vec<ScheduleState> = (leaves.iter())
                    .map(|pid| std::mem::take(&mut batch.states[pid.rank()]))
                    .collect();
                if job_states.iter().any(|s| s.error().is_some()) {
                    metrics.failed();
                } else {
                    metrics.completed(batch.outcome.total_time());
                }
                job_reports.push(JobReport {
                    id: JobId(i),
                    name: self.jobs[i].name.clone(),
                    batch: batches.len(),
                    node: l.node,
                    machine: tree.node(l.node).machine_id(),
                    leaves: leaves.clone(),
                    root: l.root.map(|r| leaves[r.rank()]),
                    predicted: l.priced.cost,
                    start,
                    end,
                    states: job_states,
                });
            }
            metrics.batch();

            // Detect → Replan: a drifty batch's telemetry moves the
            // belief, so every remaining job is re-priced and re-placed
            // on it, from a placement cache on the new belief.
            let replanned =
                !ready.is_empty() && cl.replan(&batch, "sched/re-place") == Action::Replan;
            if replanned {
                placements = Placements::new(cl.belief().clone());
            }
            batches.push(BatchReport {
                index: batches.len(),
                jobs: lowered.iter().map(|l| JobId(l.job)).collect(),
                start,
                end,
                predicted: batch.predicted,
                drift: batch.drift,
                replanned,
            });
        }

        // Every job of an acyclic graph ran, in some batch.
        job_reports.sort_unstable_by_key(|r| r.id);
        Ok(SchedReport {
            jobs: job_reports,
            batches,
            total_time: cl.clock(),
            metrics: metrics.snapshot(),
            replans: cl.replans(),
            belief: cl.belief().clone(),
            causal: cl.into_spans(),
        })
    }
}

/// One line per finished batch, for a failure bundle's decision log.
fn batch_log(batches: &[BatchReport]) -> String {
    (batches.iter())
        .map(|b| {
            format!(
                "batch={} jobs={} predicted={} observed={} replanned={}\n",
                b.index,
                b.jobs.len(),
                b.predicted,
                b.observed(),
                b.replanned
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_collectives::schedule::ProcInit;
    use hbsp_collectives::{CommSchedule, Role, ScheduleStep, Transfer, UnitId};
    use hbsp_core::{SyncScope, TreeBuilder};

    /// Two unequal LANs under a campus root, 4 processors.
    fn campus_like() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::two_level(
                1.0,
                50.0,
                &[
                    (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                    (10.0, vec![(1.5, 0.8), (3.0, 0.4)]),
                ],
            )
            .unwrap(),
        )
    }

    fn run(sched: &Scheduler, engine: Engine, serial: bool) -> SchedReport {
        sched
            .run(&RunOptions {
                engine,
                serial,
                adapt: None,
            })
            .expect("graph drains")
    }

    fn drain(sched: &Scheduler, engine: Engine, adapt: Option<f64>) -> SchedReport {
        sched
            .run(&RunOptions {
                engine,
                serial: false,
                adapt,
            })
            .expect("graph drains")
    }

    #[test]
    fn single_job_is_bit_identical_across_engines() {
        let mut s = Scheduler::new(campus_like());
        s.submit(Job::collective("g", CollectiveKind::Gather, 16).with_seed(7));
        let sim = run(&s, Engine::Simulator, false);
        let thr = run(&s, Engine::Threads, false);
        assert!(sim.clean() && thr.clean());
        assert_eq!(sim.jobs[0].states, thr.jobs[0].states);
        assert_eq!(sim.jobs[0].leaves, thr.jobs[0].leaves);
        assert_eq!(sim.total_time, thr.total_time);
        assert_eq!(sim.jobs[0].root, thr.jobs[0].root);
    }

    #[test]
    fn fork_join_runs_dependencies_in_earlier_batches() {
        let mut s = Scheduler::new(campus_like());
        let src = s.submit(Job::collective("fork", CollectiveKind::Broadcast, 8));
        let a = s.submit(Job::collective("a", CollectiveKind::Gather, 8).after(&[src]));
        let b = s.submit(Job::collective("b", CollectiveKind::Gather, 8).after(&[src]));
        let join = s.submit(Job::collective("join", CollectiveKind::Allgather, 8).after(&[a, b]));
        let rep = run(&s, Engine::Simulator, false);
        assert!(rep.clean());
        let batch = |id: JobId| rep.jobs[id.0].batch;
        assert!(batch(src) < batch(a));
        assert!(batch(src) < batch(b));
        assert!(batch(a) < batch(join));
        assert!(batch(b) < batch(join));
        // The two independent middle jobs share a round.
        assert_eq!(batch(a), batch(b));
        assert_eq!(rep.batches.len(), 3);
    }

    #[test]
    fn batching_beats_serial_and_preserves_results() {
        let mut s = Scheduler::new(campus_like());
        for i in 0..4 {
            s.submit(Job::collective(format!("g{i}"), CollectiveKind::Gather, 32).with_seed(i));
        }
        let batched = run(&s, Engine::Simulator, false);
        let serial = run(&s, Engine::Simulator, true);
        assert!(batched.clean() && serial.clean());
        assert_eq!(serial.batches.len(), 4);
        assert!(batched.batches.len() < serial.batches.len());
        assert!(
            batched.total_time < serial.total_time,
            "batched {} vs serial {}",
            batched.total_time,
            serial.total_time
        );
        // Admission policy changes the clock, not the answers.
        for (b, s) in batched.jobs.iter().zip(&serial.jobs) {
            assert_eq!(b.states, s.states);
        }
    }

    #[test]
    fn concurrent_claims_are_leaf_disjoint() {
        let mut s = Scheduler::new(campus_like());
        for i in 0..6 {
            s.submit(Job::collective(format!("g{i}"), CollectiveKind::Gather, 8).with_seed(i));
        }
        let rep = run(&s, Engine::Simulator, false);
        assert!(rep.clean());
        for batch in &rep.batches {
            let mut seen = std::collections::HashSet::new();
            for &id in &batch.jobs {
                for leaf in &rep.jobs[id.0].leaves {
                    assert!(seen.insert(*leaf), "leaf {leaf} claimed twice in a batch");
                }
            }
        }
    }

    /// A 2-processor hand-lowered program: rank 0 ships its unit to
    /// rank 1.
    fn ship_right(op: Option<ReduceOp>) -> Job {
        let uid = UnitId::new(0, 4);
        let mut sched = CommSchedule::new();
        let mut step = ScheduleStep::at(SyncScope::Level(1));
        step.transfers.push(Transfer {
            src: ProcId(0),
            dst: ProcId(1),
            words: 4,
            role: Role::Piece(uid),
        });
        sched.push(step);
        sched.push(ScheduleStep::drain());
        let mut init = vec![ProcInit::default(), ProcInit::default()];
        init[0].units.push((uid, vec![1, 2, 3, 4]));
        Job::custom("ship", sched, init, op)
    }

    #[test]
    fn custom_jobs_merge_and_run() {
        let mut s = Scheduler::new(campus_like());
        s.submit(ship_right(None));
        s.submit(Job::collective("g", CollectiveKind::Gather, 8));
        let rep = run(&s, Engine::Simulator, false);
        assert!(rep.clean());
        assert_eq!(rep.batches.len(), 1, "custom and collective share a round");
        let ship = &rep.jobs[0];
        assert_eq!(ship.leaves.len(), 2);
        assert_eq!(ship.states[1].unit(UnitId::new(0, 4)), vec![1, 2, 3, 4]);
    }

    #[test]
    fn conflicting_reduce_ops_defer_to_a_later_batch() {
        let mut s = Scheduler::new(campus_like());
        let r = s.submit(Job::collective("sum", CollectiveKind::Reduce, 8));
        let m = s.submit(ship_right(Some(ReduceOp::Min)));
        let rep = run(&s, Engine::Simulator, false);
        assert!(rep.clean());
        assert_ne!(
            rep.jobs[r.0].batch, rep.jobs[m.0].batch,
            "jobs with different reduce ops must not share a merged program"
        );
    }

    #[test]
    fn oversized_job_is_unplaceable() {
        let mut s = Scheduler::new(campus_like());
        s.submit(Job::collective("big", CollectiveKind::Gather, 8).with_min_procs(64));
        match s.run(&RunOptions::default()) {
            Err(SchedError::Unplaceable {
                needed, available, ..
            }) => {
                assert_eq!(needed, 64);
                assert_eq!(available, 4);
            }
            other => panic!("expected Unplaceable, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_graph_is_rejected() {
        let mut s = Scheduler::new(campus_like());
        let a = s.submit(Job::collective("a", CollectiveKind::Gather, 8));
        s.submit(Job::collective("b", CollectiveKind::Gather, 8).after(&[a, JobId(1)]));
        match s.run(&RunOptions::default()) {
            Err(SchedError::InvalidGraph(v)) => assert!(!v.is_empty()),
            other => panic!("expected InvalidGraph, got {other:?}"),
        }
    }

    /// Closed-loop re-placement: a persistent straggler on P0 makes
    /// the initially-cheapest sub-tree (the LAN holding the fastest
    /// processors) the wrong home for every broadcast in a chain. The
    /// open-loop scheduler keeps placing there; the adaptive scheduler
    /// re-calibrates after the first drifty batch, re-prices on the
    /// belief, and moves later jobs off the straggler.
    #[test]
    fn adaptive_rescheduling_moves_later_jobs_off_a_straggler() {
        let mut s = Scheduler::new(campus_like()).with_faults(FaultPlan::new().straggle_ramp(
            ProcId(0),
            0,
            4,
            12.0,
            0.0,
        ));
        let mut prev: Option<JobId> = None;
        for i in 0..4 {
            let mut job =
                Job::collective(format!("b{i}"), CollectiveKind::Broadcast, 256).with_seed(i);
            if let Some(p) = prev {
                job = job.after(&[p]);
            }
            prev = Some(s.submit(job));
        }
        let open = drain(&s, Engine::Simulator, None);
        let adapt = drain(&s, Engine::Simulator, Some(0.5));
        assert!(open.clean() && adapt.clean());
        assert_eq!(open.replans, 0);
        assert!(open.batches.iter().all(|b| !b.replanned));
        assert!(adapt.replans > 0, "report:\n{}", adapt.render_text());
        assert!(adapt.batches.iter().any(|b| b.replanned));
        assert!(
            adapt.total_time < open.total_time,
            "adaptive {} !< open-loop {}\n{}",
            adapt.total_time,
            open.total_time,
            adapt.render_text()
        );
        // The belief shift actually moved later work: some job after
        // the first re-plan occupies different leaves (or a different
        // root) than its open-loop twin.
        let moved = open
            .jobs
            .iter()
            .zip(&adapt.jobs)
            .any(|(o, a)| a.batch > 0 && (o.leaves != a.leaves || o.root != a.root));
        assert!(moved, "no job moved:\n{}", adapt.render_text());
        // The closed loop is engine-agnostic: bit-identical makespan
        // and the same re-plan count on the threaded runtime.
        let thr = drain(&s, Engine::Threads, Some(0.5));
        assert_eq!(thr.total_time, adapt.total_time);
        assert_eq!(thr.replans, adapt.replans);
        for (a, b) in adapt.jobs.iter().zip(&thr.jobs) {
            assert_eq!(a.leaves, b.leaves);
            assert_eq!(a.root, b.root);
            assert_eq!(a.states, b.states);
        }
    }

    #[test]
    fn causal_tree_nests_batches_jobs_and_steps() {
        let mut s = Scheduler::new(campus_like());
        let a = s.submit(Job::collective("a", CollectiveKind::Gather, 16));
        s.submit(Job::collective("b", CollectiveKind::Scan, 16).after(&[a]));
        let sim = run(&s, Engine::Simulator, false);
        let thr = run(&s, Engine::Threads, false);
        hbsp_obs::check_causal_spans(&sim.causal).unwrap();
        assert_eq!(sim.causal, thr.causal, "causal tree is engine-agnostic");
        let count = |k| sim.causal.iter().filter(|c| c.kind == k).count();
        assert_eq!(count(CausalKind::Batch), sim.batches.len());
        assert_eq!(count(CausalKind::Job), sim.jobs.len());
        assert!(count(CausalKind::Superstep) > 0);
        // Batch roots tile the makespan; everything else nests.
        assert!(sim
            .causal
            .iter()
            .all(|c| (c.kind == CausalKind::Batch) == c.parent.is_none()));
        hbsp_obs::validate_chrome_trace(&sim.chrome_trace()).unwrap();
    }

    #[test]
    fn engine_failure_attaches_a_postmortem_bundle() {
        let mut s = Scheduler::new(campus_like()).with_faults(FaultPlan::new().crash(ProcId(0), 0));
        let a = s.submit(Job::collective("a", CollectiveKind::Gather, 16));
        s.submit(Job::collective("b", CollectiveKind::Scan, 16).after(&[a]));
        let err = s.run(&RunOptions::default()).unwrap_err();
        let bundle = match &err {
            SchedError::Exec(_, b) => b,
            other => panic!("expected Exec with bundle, got {other:?}"),
        };
        assert_eq!(err.bundle().unwrap(), &**bundle);
        bundle.validate().unwrap();
        assert_eq!(bundle.engine, "sim");
        assert!(bundle.fault_plan.contains("crash"), "{}", bundle.fault_plan);
        // The dying batch is spanned even though it never completed.
        assert!(bundle
            .spans
            .iter()
            .any(|c| c.kind == hbsp_obs::CausalKind::Batch));
        let reparsed = hbsp_obs::PostmortemBundle::parse(&bundle.to_jsonl()).unwrap();
        assert_eq!(&reparsed, &**bundle);
        assert_eq!(
            bundle.to_jsonl(),
            include_str!("../../../tests/golden/postmortem_sched_batch.jsonl")
        );
    }

    #[test]
    fn report_carries_spans_metrics_and_drift() {
        let mut s = Scheduler::new(campus_like());
        let a = s.submit(Job::collective("a", CollectiveKind::Gather, 16));
        s.submit(Job::collective("b", CollectiveKind::Scan, 16).after(&[a]));
        let rep = run(&s, Engine::Simulator, false);
        assert!(rep.clean());
        // One job span per job, over its batch's window.
        let jobs = rep.causal.iter().filter(|c| c.kind == CausalKind::Job);
        let spans: Vec<_> = jobs.map(|c| (c.label.as_str(), c.start, c.end)).collect();
        let windows: Vec<_> = (rep.jobs.iter())
            .map(|j| (&*j.name, j.start, j.end))
            .collect();
        assert_eq!(spans, windows);
        assert!(windows.iter().all(|(_, start, end)| end > start));
        let completed = rep
            .metrics
            .iter()
            .find(|m| m.name == "hbsp_jobs_completed_total")
            .expect("jobs metric present");
        assert!(matches!(completed.value, hbsp_obs::MetricValue::Counter(2)));
        assert!(rep.batches.iter().all(|b| b.predicted > 0.0));
        assert!(rep.batches.iter().all(|b| b.drift.is_some()));
        let trace = rep.chrome_trace();
        let check = hbsp_obs::validate_chrome_trace(&trace).expect("job trace validates");
        assert_eq!(check.complete, rep.causal.len());
        assert!(trace.contains("\"name\":\"job:b\""), "{trace}");
        assert!(!rep.render_text().is_empty());
    }

    /// Every batch is priced step for step, free drain included, so
    /// its steps pair up with the prediction: a clean open-loop drain
    /// reports drift for every batch, and a threshold no drift reaches
    /// never re-plans.
    #[test]
    fn every_batch_has_drift_and_an_unreachable_threshold_never_replans() {
        let mut s = Scheduler::new(campus_like());
        let g = s.submit(Job::collective("g", CollectiveKind::Gather, 16));
        s.submit(Job::collective("b", CollectiveKind::Broadcast, 16).after(&[g]));
        let open = drain(&s, Engine::Simulator, None);
        assert_eq!(open.batches.len(), 2);
        assert!(open.batches.iter().all(|b| b.drift.is_some()));
        let never = drain(&s, Engine::Simulator, Some(f64::MAX));
        assert_eq!(never.replans, 0, "{}", never.render_text());
        assert!(never.batches.iter().all(|b| !b.replanned));
        for (o, a) in open.jobs.iter().zip(&never.jobs) {
            assert_eq!((o.batch, &o.leaves, o.root), (a.batch, &a.leaves, a.root));
        }
        assert_eq!(open.total_time, never.total_time);
    }
}
