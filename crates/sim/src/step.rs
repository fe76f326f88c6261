//! Superstep analysis shared by the simulator and the threaded runtime:
//! SPMD-discipline checks, scope confinement, send intents, traffic
//! accounting, and the one place a superstep becomes a telemetry
//! [`StepRecord`].

use crate::error::SimError;
use crate::stats::LevelTraffic;
use crate::timing::{MsgTiming, SendIntent, StepTiming};
use hbsp_core::{HRelation, Level, MachineTree, MsgBatch, MsgView, StepOutcome, SyncScope};
use hbsp_obs::{Probe, StepRecord, StepWall};

/// The validated, cost-relevant view of one superstep's communication.
#[derive(Debug, Clone)]
pub struct StepAnalysis {
    /// Per-message send intents in posting order.
    pub intents: Vec<SendIntent>,
    /// Traffic bucketed by LCA level.
    pub traffic: Vec<LevelTraffic>,
    /// Observed heterogeneous h-relation of the step.
    pub hrelation: f64,
}

/// Check that all processors agreed on what happens after this
/// superstep. Returns the common scope, or `None` if everyone finished.
pub fn resolve_outcomes(
    step: usize,
    outcomes: &[StepOutcome],
) -> Result<Option<SyncScope>, SimError> {
    assert!(!outcomes.is_empty());
    let done = outcomes
        .iter()
        .filter(|o| matches!(o, StepOutcome::Done))
        .count();
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

/// The deterministic delivery order of one superstep's messages: by
/// (arrival time, posting index). Shared by the simulator and the
/// threaded runtime so both engines deliver bit-identically.
///
/// Ordering uses [`f64::total_cmp`], never `partial_cmp(..).unwrap()`:
/// a NaN arrival would indicate an upstream timing bug, but it must
/// still produce a total, deterministic order rather than a panic — in
/// the threaded runtime this code runs inside the barrier's leader
/// section, where a panic would strand every other processor thread at
/// the barrier forever.
pub fn delivery_order(messages: &[MsgTiming]) -> Vec<usize> {
    let mut order = Vec::new();
    delivery_order_into(messages, &mut order);
    order
}

/// [`delivery_order`] writing into a caller-owned buffer (cleared and
/// refilled), so the hot path allocates nothing once it has grown.
pub fn delivery_order_into(messages: &[MsgTiming], order: &mut Vec<usize>) {
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
/// closing scope (`None` = final step, no confinement), producing the
/// cost-relevant analysis.
pub fn analyze(
    tree: &MachineTree,
    step: usize,
    scope: Option<SyncScope>,
    msgs: &MsgBatch,
) -> Result<StepAnalysis, SimError> {
    let mut out = StepAnalysis {
        intents: Vec::new(),
        traffic: Vec::new(),
        hrelation: 0.0,
    };
    analyze_into(tree, step, scope, msgs, &mut out)?;
    Ok(out)
}

/// [`analyze`] writing into a caller-owned [`StepAnalysis`] whose
/// vectors are cleared and refilled, so a steady-state superstep
/// performs no per-message heap allocation. `msgs` are the step's
/// messages in pid-then-posting order, wherever they live: the
/// simulator's one shared batch, or the threaded runtime's `p` outboxes
/// chained.
pub fn analyze_into<'a>(
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
    let mut hr = HRelation::new();
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
            hr.send(
                tree.node(src_leaf).machine_id(),
                tree.node(dst_leaf).machine_id(),
                m.words(),
            );
        }
        out.intents.push(SendIntent {
            src: m.src,
            dst: m.dst,
            words: m.words(),
        });
    }
    out.hrelation = hr.h_on(tree);
    Ok(())
}

/// Reusable buffers for assembling a [`StepRecord`]: an enabled probe
/// clears and refills these instead of allocating fresh vectors every
/// superstep.
#[derive(Default)]
pub struct EmitScratch {
    words: Vec<u64>,
    messages: Vec<u64>,
    sent: Vec<u64>,
}

/// Assemble and publish one superstep's [`StepRecord`] — the same
/// virtual-time schema from both engines; `wall` carries the threaded
/// runtime's wall-clock marks and is `None` on the simulator. When the
/// probe is disabled nothing is assembled at all, and when it is
/// enabled assembly refills `scratch`, so probe-on costs no
/// per-superstep allocation either.
#[allow(clippy::too_many_arguments)]
pub fn emit_step_record(
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
    use hbsp_core::{ProcId, TreeBuilder};

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
