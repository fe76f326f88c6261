//! The superstep settlement every engine runs: a [`Settlement`] takes one
//! superstep's contributions and posted messages and applies the fault
//! plan's network faults, the SPMD-discipline checks, scope confinement,
//! send intents and traffic accounting, the timing algebra, the barrier
//! release, the one place a superstep becomes a telemetry
//! [`StepRecord`], the step's [`StepStats`] and the delivery order. The
//! simulator's loop and the threaded runtime's leader section both call
//! it, so they compute a superstep the same way by construction.
//!
//! The settlement's steps are private to this module, so no engine can
//! run one of them on its own:
//!
//! ```compile_fail,E0603
//! use hbsp_sim::step::resolve_outcomes;
//! ```
//!
//! ```compile_fail,E0603
//! use hbsp_sim::step::analyze_into;
//! ```
//!
//! ```compile_fail,E0603
//! use hbsp_sim::step::delivery_order_into;
//! ```
//!
//! ```compile_fail,E0603
//! use hbsp_sim::step::emit_step_record;
//! ```

use crate::config::NetConfig;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::stats::{LevelTraffic, SimOutcome, StepStats};
use crate::timing::{
    barrier_release_into, superstep_timing_faulted_into, MsgTiming, SendIntent, StepTiming,
    TimingScratch,
};
use hbsp_core::{Level, MachineTree, MsgBatch, MsgView, ProcId, StepOutcome, SyncScope, Traffic};
use hbsp_obs::{ObsEvent, Probe, StepRecord, StepWall};

/// The validated, cost-relevant view of one superstep's communication.
#[derive(Debug, Clone, Default)]
pub struct StepAnalysis {
    /// Per-message send intents in posting order.
    pub intents: Vec<SendIntent>,
    /// Traffic bucketed by LCA level.
    pub traffic: Vec<LevelTraffic>,
    /// Observed heterogeneous h-relation of the step.
    pub hrelation: f64,
    /// Words each rank sent to and received from other ranks, the
    /// h-relation's terms.
    ranks: Vec<Traffic>,
}

/// What a [`Settlement`] reads of the engine it settles a superstep for.
#[derive(Clone, Copy)]
pub struct StepEnv<'a> {
    /// The machine.
    pub tree: &'a MachineTree,
    /// Its microcosts.
    pub cfg: &'a NetConfig,
    /// The scripted faults; the settlement applies the network ones
    /// (drops, truncations, straggles).
    pub faults: &'a FaultPlan,
    /// Where the step's [`StepRecord`] goes.
    pub probe: &'a dyn Probe,
    /// Virtual-time budget of a superstep (the simulator's
    /// `step_deadline`): a step whose slowest processor finishes more
    /// than this after its earliest release fails with
    /// [`SimError::BarrierTimeout`] naming the laggards, before it is
    /// recorded.
    pub deadline: Option<f64>,
}

/// A superstep's posted messages as an engine holds them: batches in pid
/// order whose messages, chained, are the step's pid-then-posting order
/// — the simulator's one shared [`MsgBatch`], or the threaded runtime's
/// outbox per sender.
pub trait Posted {
    /// Apply `step`'s drops and truncations ([`FaultPlan::corrupt_batch`])
    /// to every batch. Both rules key on the sender, so batch by batch is
    /// the same as all at once.
    fn corrupt(&mut self, faults: &FaultPlan, step: usize);
    /// The messages, in pid-then-posting order.
    fn messages(&self) -> impl Iterator<Item = MsgView<'_>>;
}

impl Posted for MsgBatch {
    fn corrupt(&mut self, faults: &FaultPlan, step: usize) {
        faults.corrupt_batch(step, self);
    }
    fn messages(&self) -> impl Iterator<Item = MsgView<'_>> {
        self.iter()
    }
}

/// One run's superstep accounting, settled step by step, and the
/// buffers it settles in. Its vectors are cleared and refilled, so once
/// they have grown to a program's steady-state traffic a superstep
/// allocates nothing per message — an engine that keeps a `Settlement`
/// between runs ([`Settlement::reset`]) keeps them grown.
#[derive(Default)]
pub struct Settlement {
    /// Virtual release times feeding the next step.
    starts: Vec<f64>,
    /// Accumulated per-step statistics.
    steps: Vec<StepStats>,
    delivered: u64,
    /// Charged work of the step being settled, by rank.
    work: Vec<f64>,
    /// Outcomes of the step being settled, by rank.
    outcomes: Vec<StepOutcome>,
    analysis: StepAnalysis,
    timing: StepTiming,
    timing_scratch: TimingScratch,
    /// Delivery permutation of the step's messages.
    order: Vec<usize>,
    /// The barrier's release times, swapped into `starts`.
    releases: Vec<f64>,
    /// The barrier's latest finish per cluster.
    cluster_max: Vec<f64>,
    emit: EmitScratch,
}

impl Settlement {
    /// Start a run on `p` processors: empty whatever a previous run
    /// left behind, keeping the allocations.
    pub fn reset(&mut self, p: usize) {
        self.starts.clear();
        self.starts.resize(p, 0.0);
        self.steps.clear();
        self.delivered = 0;
        self.work.clear();
        self.outcomes.clear();
    }

    /// Record the next rank's contribution to the step being settled —
    /// the work its body charged and its outcome. Ranks contribute in
    /// pid order.
    pub fn contribute(&mut self, work: f64, outcome: StepOutcome) {
        self.work.push(work);
        self.outcomes.push(outcome);
    }

    /// Settle superstep `step` from its contributions and `posted`:
    /// apply the network faults, check the SPMD discipline and every
    /// message, time the step with any scripted stragglers, check
    /// `env.deadline`, release the barrier, publish the [`StepRecord`]
    /// (with `wall`'s marks, asked for only when the probe is enabled)
    /// and record the [`StepStats`]. Then hand `deliver` each message
    /// the next superstep reads, as `(posted, dst rank, src rank, index
    /// in pid-then-posting order)`, in (arrival, posting index) order.
    ///
    /// Returns `Ok(true)` when this was the program's last superstep
    /// (every rank returned `Done`; nothing is delivered), and the
    /// typed error when the step breaks a rule; a run that failed is
    /// [`Settlement::reset`] before the next.
    pub fn settle<'w, P: Posted>(
        &mut self,
        env: &StepEnv<'_>,
        step: usize,
        posted: &mut P,
        wall: impl FnOnce() -> Option<StepWall<'w>>,
        mut deliver: impl FnMut(&P, usize, u32, usize),
    ) -> Result<bool, SimError> {
        let (tree, p) = (env.tree, env.tree.num_procs());
        posted.corrupt(env.faults, step);
        let scope = resolve_outcomes(step, &self.outcomes)?;
        analyze_into(tree, step, scope, posted.messages(), &mut self.analysis)?;
        let r_scale = env
            .faults
            .straggles_at(step)
            .then(|| env.faults.r_multipliers(step, p));
        #[expect(clippy::disallowed_methods, reason = "the settlement times the step")]
        superstep_timing_faulted_into(
            tree,
            env.cfg,
            &self.starts,
            &self.work,
            &self.analysis.intents,
            r_scale.as_deref(),
            &mut self.timing_scratch,
            &mut self.timing,
        );
        let finish = &self.timing.finish;
        let start_min = self.starts.iter().cloned().fold(f64::INFINITY, f64::min);
        if let Some(d) = env.deadline {
            let missing: Vec<ProcId> = (0..p)
                .filter(|&i| finish[i] > start_min + d)
                .map(|i| ProcId(i as u32))
                .collect();
            if !missing.is_empty() {
                if env.probe.enabled() {
                    env.probe.on_event(&ObsEvent::WatchdogFired {
                        step,
                        missing: &missing,
                    });
                }
                return Err(SimError::BarrierTimeout { missing, step });
            }
        }

        // The final step releases nobody: each processor's own finish
        // stands in for its release time.
        let released = match scope {
            Some(s) => {
                #[expect(clippy::disallowed_methods, reason = "the settlement's barrier")]
                barrier_release_into(tree, s, finish, &mut self.cluster_max, &mut self.releases);
                &self.releases
            }
            None => finish,
        };
        emit_step_record(
            env.probe,
            step,
            scope.map(SyncScope::level),
            &self.starts,
            &self.timing,
            released,
            &self.analysis,
            &self.work,
            env.probe.enabled().then(wall).flatten(),
            &mut self.emit,
        );
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.steps.push(StepStats {
            step,
            scope: scope.unwrap_or(SyncScope::global(tree)),
            start_min,
            finish_max: max(finish),
            release_max: max(released),
            traffic: self.analysis.traffic[..].into(),
            hrelation: self.analysis.hrelation,
            work_units: self.work.iter().sum(),
            w: (0..p)
                .map(|i| self.work[i] / tree.leaf(ProcId(i as u32)).params().speed)
                .fold(0.0, f64::max),
        });
        self.work.clear();
        self.outcomes.clear();
        if scope.is_none() {
            return Ok(true);
        }
        delivery_order_into(&self.timing.messages, &mut self.order);
        for &mi in &self.order {
            let intent = &self.analysis.intents[mi];
            deliver(posted, intent.dst.rank(), intent.src.0, mi);
        }
        self.delivered += self.order.len() as u64;
        std::mem::swap(&mut self.starts, &mut self.releases);
        Ok(false)
    }

    /// The run's outcome, once [`Settlement::settle`] has returned
    /// `Ok(true)`.
    pub fn outcome(&mut self) -> SimOutcome {
        let proc_finish = std::mem::take(&mut self.timing.finish);
        SimOutcome {
            total_time: proc_finish
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
            proc_finish,
            steps: std::mem::take(&mut self.steps),
            messages_delivered: self.delivered,
        }
    }
}

/// Check that all processors agreed on what happens after this
/// superstep. Returns the common scope, or `None` if everyone finished;
/// a processor that aborted fails the step first.
fn resolve_outcomes(step: usize, outcomes: &[StepOutcome]) -> Result<Option<SyncScope>, SimError> {
    assert!(!outcomes.is_empty());
    let mut done = 0;
    for (rank, o) in outcomes.iter().enumerate() {
        match *o {
            StepOutcome::Abort(reason) => {
                let pid = ProcId(rank as u32);
                return Err(SimError::ProgramAborted { pid, step, reason });
            }
            StepOutcome::Done => done += 1,
            StepOutcome::Continue(_) => {}
        }
    }
    if done == outcomes.len() {
        return Ok(None);
    }
    if done != 0 {
        return Err(SimError::TerminationMismatch { step });
    }
    let mut scope = None;
    for o in outcomes {
        if let StepOutcome::Continue(s) = o {
            match scope {
                None => scope = Some(*s),
                Some(prev) if prev != *s => {
                    return Err(SimError::ScopeMismatch {
                        step,
                        a: prev,
                        b: *s,
                    })
                }
                _ => {}
            }
        }
    }
    Ok(scope)
}

/// The deterministic delivery order of one superstep's messages, written
/// into `order` (cleared and refilled): by (arrival time, posting index).
///
/// Ordering uses [`f64::total_cmp`], never `partial_cmp(..).unwrap()`:
/// a NaN arrival would indicate an upstream timing bug, but it must
/// still produce a total, deterministic order rather than a panic — in
/// the threaded runtime this code runs inside the barrier's leader
/// section, where a panic would strand every other processor thread at
/// the barrier forever.
fn delivery_order_into(messages: &[MsgTiming], order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..messages.len());
    order.sort_by(|&a, &b| {
        messages[a]
            .arrival
            .total_cmp(&messages[b].arrival)
            .then(a.cmp(&b))
    });
}

/// Validate every message of a superstep against the machine and the
/// closing scope (`None` = final step, no confinement), writing the
/// cost-relevant analysis into `out`, whose vectors are cleared and
/// refilled. `msgs` are the step's messages in pid-then-posting order.
fn analyze_into<'a>(
    tree: &MachineTree,
    step: usize,
    scope: Option<SyncScope>,
    msgs: impl IntoIterator<Item = MsgView<'a>>,
    out: &mut StepAnalysis,
) -> Result<(), SimError> {
    let p = tree.num_procs();
    out.traffic.clear();
    out.traffic
        .resize(tree.height() as usize + 1, LevelTraffic::default());
    out.intents.clear();
    let msgs = msgs.into_iter();
    out.intents.reserve(msgs.size_hint().0);
    out.ranks.clear();
    out.ranks.resize(p, Traffic::default());
    for m in msgs {
        if m.dst.rank() >= p {
            return Err(SimError::NoSuchProc { step, dst: m.dst });
        }
        let src_leaf = tree.leaves()[m.src.rank()];
        let dst_leaf = tree.leaves()[m.dst.rank()];
        let lca_level = tree.node(tree.lca(src_leaf, dst_leaf)).level();
        if let Some(s) = scope {
            if m.src != m.dst && lca_level > s.level() {
                return Err(SimError::CrossClusterSend {
                    step,
                    src: m.src,
                    dst: m.dst,
                    scope: s,
                });
            }
        }
        let t = &mut out.traffic[lca_level as usize];
        t.words += m.words();
        t.messages += 1;
        if m.src != m.dst {
            out.ranks[m.src.rank()].sent += m.words();
            out.ranks[m.dst.rank()].received += m.words();
        }
        out.intents.push(SendIntent {
            src: m.src,
            dst: m.dst,
            words: m.words(),
        });
    }
    // `HRelation::h_on` over the leaves: a rank that moved nothing adds
    // `r · 0 = 0`, which leaves the maximum as it is (`r ≥ 1`).
    out.hrelation = (0..p)
        .map(|i| tree.leaf(ProcId(i as u32)).params().r * out.ranks[i].h() as f64)
        .fold(0.0, f64::max);
    Ok(())
}

/// Reusable buffers for assembling a [`StepRecord`]: an enabled probe
/// clears and refills these instead of allocating fresh vectors every
/// superstep.
#[derive(Default)]
struct EmitScratch {
    words: Vec<u64>,
    messages: Vec<u64>,
    sent: Vec<u64>,
}

/// Assemble and publish one superstep's [`StepRecord`] — the same
/// virtual-time schema from every engine; `wall` carries the threaded
/// runtime's wall-clock marks and is `None` on the simulator. When the
/// probe is disabled nothing is assembled at all, and when it is
/// enabled assembly refills `scratch`, so probe-on costs no
/// per-superstep allocation either.
#[allow(clippy::too_many_arguments)]
fn emit_step_record(
    probe: &dyn Probe,
    step: usize,
    barrier: Option<Level>,
    starts: &[f64],
    timing: &StepTiming,
    releases: &[f64],
    analysis: &StepAnalysis,
    work: &[f64],
    wall: Option<StepWall<'_>>,
    scratch: &mut EmitScratch,
) {
    if !probe.enabled() {
        return;
    }
    scratch.words.clear();
    scratch
        .words
        .extend(analysis.traffic.iter().map(|t| t.words));
    scratch.messages.clear();
    scratch
        .messages
        .extend(analysis.traffic.iter().map(|t| t.messages));
    scratch.sent.clear();
    scratch.sent.resize(starts.len(), 0);
    for intent in &analysis.intents {
        scratch.sent[intent.src.rank()] += intent.words;
    }
    probe.on_step(&StepRecord {
        step,
        barrier,
        starts,
        compute_done: &timing.compute_done,
        send_done: &timing.send_done,
        finish: &timing.finish,
        releases,
        words_by_level: &scratch.words,
        messages_by_level: &scratch.messages,
        hrelation: analysis.hrelation,
        work,
        sent_words: &scratch.sent,
        wall,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn analyze(
        tree: &MachineTree,
        step: usize,
        scope: Option<SyncScope>,
        msgs: &MsgBatch,
    ) -> Result<StepAnalysis, SimError> {
        let mut out = StepAnalysis::default();
        analyze_into(tree, step, scope, msgs, &mut out).map(|()| out)
    }

    fn delivery_order(messages: &[MsgTiming]) -> Vec<usize> {
        let mut order = Vec::new();
        delivery_order_into(messages, &mut order);
        order
    }

    #[test]
    fn resolve_agreement() {
        let all_go = vec![StepOutcome::Continue(SyncScope::Level(1)); 3];
        assert_eq!(
            resolve_outcomes(0, &all_go).unwrap(),
            Some(SyncScope::Level(1))
        );
        let all_done = vec![StepOutcome::Done; 3];
        assert_eq!(resolve_outcomes(0, &all_done).unwrap(), None);
    }

    #[test]
    fn resolve_rejects_mixed_termination() {
        let mixed = vec![
            StepOutcome::Done,
            StepOutcome::Continue(SyncScope::Level(1)),
        ];
        assert_eq!(
            resolve_outcomes(4, &mixed).unwrap_err(),
            SimError::TerminationMismatch { step: 4 }
        );
    }

    #[test]
    fn resolve_rejects_scope_disagreement() {
        let fight = vec![
            StepOutcome::Continue(SyncScope::Level(1)),
            StepOutcome::Continue(SyncScope::Level(2)),
        ];
        assert!(matches!(
            resolve_outcomes(0, &fight),
            Err(SimError::ScopeMismatch { .. })
        ));
    }

    #[test]
    fn analyze_counts_traffic_and_h() {
        let t = TreeBuilder::flat(1.0, 0.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap();
        let mut msgs = MsgBatch::new();
        msgs.push(ProcId(1), ProcId(0), 0, &[0; 40]); // 10 words, slow sender
        msgs.push(ProcId(0), ProcId(0), 0, &[0; 8]); // self-send
        let a = analyze(&t, 0, Some(SyncScope::Level(1)), &msgs).unwrap();
        assert_eq!(a.intents.len(), 2);
        assert_eq!(a.traffic[1].words, 10);
        assert_eq!(
            a.traffic[0].words, 2,
            "self-send recorded at the leaf's own level"
        );
        assert_eq!(a.hrelation, 20.0, "r=2 sender of 10 words dominates");
    }

    #[test]
    fn analyzed_h_is_the_hrelation_of_the_leaves() {
        let t = TreeBuilder::two_level(
            1.0,
            50.0,
            &[
                (5.0, vec![(1.0, 1.0), (1.5, 0.7)]),
                (7.0, vec![(2.5, 0.4), (3.0, 0.3), (1.2, 0.9)]),
            ],
        )
        .unwrap();
        let mut msgs = MsgBatch::new();
        let mut hr = hbsp_core::HRelation::new();
        for k in 0..40u32 {
            let (src, dst) = (ProcId(k * 7 % 5), ProcId(k * 3 % 5));
            let words = (k * 13 % 9) as usize;
            msgs.push(src, dst, 0, &vec![0; 4 * words]);
            if src != dst {
                let id = |q: ProcId| t.leaf(q).machine_id();
                hr.send(id(src), id(dst), words as u64);
            }
        }
        let a = analyze(&t, 0, None, &msgs).unwrap();
        assert_eq!(a.hrelation.to_bits(), hr.h_on(&t).to_bits());
    }

    /// Regression: arrival sorting once used `partial_cmp(..).unwrap()`,
    /// which panics on NaN — inside the threaded runtime's leader
    /// section that deadlocks the barrier. `total_cmp` must give a
    /// deterministic total order instead.
    #[test]
    fn delivery_order_is_total_even_with_nan_arrivals() {
        let t = |arrival| MsgTiming {
            arrival,
            unpack_done: 0.0,
        };
        let msgs = vec![t(5.0), t(f64::NAN), t(1.0), t(f64::NAN), t(-0.0)];
        let order = delivery_order(&msgs);
        // total_cmp sorts positive NaN above every number; equal keys
        // keep posting order.
        assert_eq!(order, vec![4, 2, 0, 1, 3]);
    }

    #[test]
    fn delivery_order_breaks_ties_by_posting_index() {
        let msgs = vec![
            MsgTiming {
                arrival: 3.0,
                unpack_done: 0.0,
            };
            4
        ];
        assert_eq!(delivery_order(&msgs), vec![0, 1, 2, 3]);
    }

    #[test]
    fn analyze_confines_to_scope() {
        let t = TreeBuilder::two_level(
            1.0,
            0.0,
            &[(0.0, vec![(1.0, 1.0)]), (0.0, vec![(2.0, 0.5)])],
        )
        .unwrap();
        let mut msgs = MsgBatch::new();
        msgs.push(ProcId(0), ProcId(1), 0, &[0; 4]);
        assert!(matches!(
            analyze(&t, 2, Some(SyncScope::Level(1)), &msgs),
            Err(SimError::CrossClusterSend { step: 2, .. })
        ));
        // Level-2 scope allows it; final step (None) allows it too.
        assert!(analyze(&t, 2, Some(SyncScope::Level(2)), &msgs).is_ok());
        assert!(analyze(&t, 2, None, &msgs).is_ok());
    }
}
