//! The superstep timing algebra.
//!
//! Pure functions computing when everything happens inside one
//! superstep. Every engine's virtual clock runs on them, through the
//! one superstep settlement (`crate::step::Settlement`), which is why
//! tests can assert the engines agree exactly.
//!
//! Within a superstep, processor `p` starting at `t_p`:
//!
//! 1. computes its charged work: `t_p + units_p / speed_p`;
//! 2. packs and injects each posted message serially (one NIC):
//!    per message `overhead + κ_send · r_p · g · words · bw(ℓ)`,
//!    where `ℓ` is the level of the sender/receiver LCA;
//! 3. each message then transits the shared medium of the cluster where
//!    sender and receiver meet (`medium_word_cost · g · words` per
//!    message, serialized per segment in sender-completion order — the
//!    testbed's shared Ethernet), then arrives after `latency(ℓ)`;
//! 4. the receiver unpacks arrivals in arrival order, after finishing
//!    its own compute + sends: per message `κ_recv · r_q · g · words ·
//!    bw(ℓ)`;
//! 5. the closing barrier releases each scope-level cluster at
//!    `max(member finish) + L_{i,j}`.
//!
//! Self-sends are local moves: delivered, but cost-free (the paper's
//! collectives never send to self; the engines still allow it).
//!
//! **Scheduling anomaly.** With the shared medium enabled, per-segment
//! FIFO arbitration makes timing *non-monotone*: adding work to one
//! processor delays its send, which can cede the wire to another
//! message and let an unrelated receiver finish *earlier* (the same
//! class of anomaly as Graham's multiprocessor scheduling anomalies).
//! This mirrors real shared Ethernet and is pinned by the property
//! tests; disable the medium (`medium_word_cost = 0`) for an
//! anomaly-free point-to-point fabric.
//!
//! [`superstep_timing`] prices one step on its own, and
//! [`barrier_release`] releases one barrier. A run's steps are timed
//! and released only by the settlement, so the forms it uses are
//! private to this crate:
//!
//! ```compile_fail,E0603
//! use hbsp_sim::timing::superstep_timing_faulted_into;
//! ```
//!
//! ```compile_fail,E0603
//! use hbsp_sim::timing::barrier_release_into;
//! ```

use crate::config::NetConfig;
use crate::event::TimeQueue;
use hbsp_core::{MachineTree, NodeIdx, ProcId, SyncScope};

/// One posted message, by cost-relevant fields only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendIntent {
    /// Sender rank.
    pub src: ProcId,
    /// Destination rank.
    pub dst: ProcId,
    /// Charged size in words.
    pub words: u64,
}

/// Per-message timing, in the order the sends were supplied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgTiming {
    /// When the message is fully on the wire plus link latency — i.e.
    /// when the receiver *could* start unpacking it.
    pub arrival: f64,
    /// When the receiver has finished unpacking it.
    pub unpack_done: f64,
}

/// Complete timing of one superstep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTiming {
    /// Per-processor compute completion.
    pub compute_done: Vec<f64>,
    /// Per-processor completion of all its sends (= compute_done when a
    /// processor sent nothing).
    pub send_done: Vec<f64>,
    /// Per-processor finish time (after unpacking everything it
    /// received).
    pub finish: Vec<f64>,
    /// Per-message timing, indexed like the input `sends` slice.
    pub messages: Vec<MsgTiming>,
}

/// Compute the timing of one fault-free superstep, in fresh buffers —
/// one step priced on its own; a run's steps are timed by the
/// settlement ([`crate::step::Settlement`]).
///
/// `starts[p]` is processor `p`'s release time from the previous
/// barrier; `work_units[p]` its charged computation (at fastest-machine
/// speed); `sends` every posted message in posting order (per-sender
/// order is what matters; the slice may interleave senders).
#[expect(clippy::disallowed_methods, reason = "one fault-free step on its own")]
pub fn superstep_timing(
    tree: &MachineTree,
    cfg: &NetConfig,
    starts: &[f64],
    work_units: &[f64],
    sends: &[SendIntent],
) -> StepTiming {
    let mut out = StepTiming::default();
    let mut scratch = TimingScratch::default();
    superstep_timing_faulted_into(
        tree,
        cfg,
        starts,
        work_units,
        sends,
        None,
        &mut scratch,
        &mut out,
    );
    out
}

/// Reusable internal buffers for [`superstep_timing_faulted_into`].
///
/// The settlement times every superstep through one of these, so the
/// hot path performs no heap allocation once the buffers have grown to
/// the step's message count.
#[derive(Default)]
pub(crate) struct TimingScratch {
    // (msg index, sender done, wire time, latency, segment node).
    posted: Vec<(usize, f64, f64, f64, usize)>,
    // (segment node, wire-free time); linear scan — a step touches only
    // a handful of distinct segments.
    wire_free: Vec<(usize, f64)>,
    // Per-destination arrival queues, drained every step.
    inbox: Vec<TimeQueue<(usize, f64)>>,
}

/// [`superstep_timing`] with transient per-processor `r` inflation
/// (fault injection's straggler model), writing into caller-owned
/// buffers: `r_scale[p]` multiplies processor `p`'s `r` for this
/// superstep only, scaling its pack and unpack word costs. `None` (or
/// all-ones) is the fault-free algebra, bit for bit.
///
/// `out`'s vectors are cleared and refilled; `scratch` is an opaque
/// bundle of internal buffers reused across calls.
#[allow(clippy::too_many_arguments)]
pub(crate) fn superstep_timing_faulted_into(
    tree: &MachineTree,
    cfg: &NetConfig,
    starts: &[f64],
    work_units: &[f64],
    sends: &[SendIntent],
    r_scale: Option<&[f64]>,
    scratch: &mut TimingScratch,
    out: &mut StepTiming,
) {
    let p = tree.num_procs();
    let scale = |pid: ProcId| r_scale.map_or(1.0, |s| s[pid.rank()]);
    assert_eq!(starts.len(), p);
    assert_eq!(work_units.len(), p);
    let g = tree.g();

    out.compute_done.clear();
    out.compute_done.extend((0..p).map(|i| {
        let leaf = tree.leaf(ProcId(i as u32));
        starts[i] + work_units[i] / leaf.params().speed
    }));

    // Phase 2: serial pack+post per sender. `send_done` doubles as the
    // per-sender cursor while posting.
    out.send_done.clear();
    out.send_done.extend_from_slice(&out.compute_done);
    out.messages.clear();
    out.messages.resize(
        sends.len(),
        MsgTiming {
            arrival: 0.0,
            unpack_done: 0.0,
        },
    );
    scratch.posted.clear();
    for (mi, s) in sends.iter().enumerate() {
        let src_leaf = tree.leaf(s.src);
        if s.src == s.dst {
            // Local move: available as soon as the sender computed it.
            out.messages[mi] = MsgTiming {
                arrival: out.compute_done[s.src.rank()],
                unpack_done: out.compute_done[s.src.rank()],
            };
            continue;
        }
        let dst_leaf = tree.leaf(s.dst);
        let segment = tree.lca(src_leaf.idx(), dst_leaf.idx());
        let level = tree.node(segment).level();
        let bw = cfg.bandwidth_factor(level);
        let send_cost = cfg.msg_overhead
            + cfg.send_word_cost * src_leaf.params().r * scale(s.src) * g * s.words as f64 * bw;
        let done = out.send_done[s.src.rank()] + send_cost;
        out.send_done[s.src.rank()] = done;
        let wire = cfg.medium_word_cost * g * s.words as f64 * bw;
        scratch
            .posted
            .push((mi, done, wire, cfg.latency(level), segment.index()));
    }

    // Phase 3: every message transits its segment's shared medium.
    // Each cluster's network is one wire: messages meeting at the same
    // LCA node serialize through it in sender-completion order (ties by
    // posting index), like the testbed's shared Ethernet.
    if scratch.inbox.len() < p {
        scratch.inbox.resize_with(p, TimeQueue::new);
    }
    // total_cmp, not partial_cmp().unwrap(): a NaN completion time is
    // an upstream bug, but it must not panic mid-coordination (in the
    // threaded runtime this algebra runs inside the barrier's leader
    // section, where a panic strands every other thread).
    scratch
        .posted
        .sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scratch.wire_free.clear();
    for &(mi, done, wire, latency, segment) in &scratch.posted {
        let s = &sends[mi];
        let at = match scratch
            .wire_free
            .iter()
            .position(|&(seg, _)| seg == segment)
        {
            Some(at) => at,
            None => {
                scratch.wire_free.push((segment, f64::NEG_INFINITY));
                scratch.wire_free.len() - 1
            }
        };
        let slot = &mut scratch.wire_free[at].1;
        let xmit_start = done.max(*slot);
        let xmit_done = xmit_start + wire;
        *slot = xmit_done;
        let arrival = xmit_done + latency;
        out.messages[mi].arrival = arrival;
        let dst_leaf = tree.leaf(s.dst);
        let level = tree
            .node(tree.lca(tree.leaf(s.src).idx(), dst_leaf.idx()))
            .level();
        let bw = cfg.bandwidth_factor(level);
        let unpack_cost =
            cfg.recv_word_cost * dst_leaf.params().r * scale(s.dst) * g * s.words as f64 * bw;
        scratch.inbox[s.dst.rank()].push(arrival, (mi, unpack_cost));
    }

    // Phase 4: unpack in arrival order after own compute+sends.
    out.finish.clear();
    out.finish.extend_from_slice(&out.send_done);
    for (q, queue) in scratch.inbox.iter_mut().enumerate().take(p) {
        while let Some((arrival, (mi, unpack_cost))) = queue.pop() {
            let start = out.finish[q].max(arrival);
            out.finish[q] = start + unpack_cost;
            out.messages[mi].unpack_done = out.finish[q];
        }
    }
}

/// Barrier release times: group processors by their `scope`-level
/// cluster; every member of a cluster restarts at
/// `max(member finish) + L_{i,j}`. A leaf sitting at or above the scope
/// level forms its own (zero-cost) singleton group.
pub fn barrier_release(tree: &MachineTree, scope: SyncScope, finish: &[f64]) -> Vec<f64> {
    let mut release = Vec::new();
    #[expect(clippy::disallowed_methods, reason = "the one-barrier form")]
    barrier_release_into(tree, scope, finish, &mut Vec::new(), &mut release);
    release
}

/// [`barrier_release`] into `release`, cleared and refilled, with each
/// cluster's latest finish kept in `cluster_max` (indexed by node), so
/// a settlement that keeps both releases a barrier without allocating.
pub(crate) fn barrier_release_into(
    tree: &MachineTree,
    scope: SyncScope,
    finish: &[f64],
    cluster_max: &mut Vec<f64>,
    release: &mut Vec<f64>,
) {
    assert_eq!(finish.len(), tree.num_procs());
    let anchor = |leaf: NodeIdx| tree.ancestor_at_level(leaf, scope.level()).unwrap_or(leaf);
    cluster_max.clear();
    cluster_max.resize(tree.nodes().count(), f64::NEG_INFINITY);
    for (&leaf, &f) in tree.leaves().iter().zip(finish) {
        let max = &mut cluster_max[anchor(leaf).index()];
        *max = max.max(f);
    }
    release.clear();
    release.extend(tree.leaves().iter().map(|&leaf| {
        let a = anchor(leaf);
        cluster_max[a.index()] + tree.node(a).params().l_sync
    }));
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the algebra itself")]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn two_proc(r1: f64) -> MachineTree {
        TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (r1, 1.0 / r1)]).unwrap()
    }

    #[test]
    fn compute_scales_with_speed() {
        let t = two_proc(2.0);
        let st = superstep_timing(&t, &NetConfig::ideal(), &[0.0, 0.0], &[100.0, 100.0], &[]);
        assert_eq!(st.compute_done, vec![100.0, 200.0]);
        assert_eq!(st.finish, vec![100.0, 200.0]);
    }

    #[test]
    fn send_costs_are_serial_per_sender() {
        let t = two_proc(1.0);
        let cfg = NetConfig::ideal();
        let sends = [
            SendIntent {
                src: ProcId(0),
                dst: ProcId(1),
                words: 10,
            },
            SendIntent {
                src: ProcId(0),
                dst: ProcId(1),
                words: 5,
            },
        ];
        let st = superstep_timing(&t, &cfg, &[0.0, 0.0], &[0.0, 0.0], &sends);
        // First send completes at 10, second at 15; ideal network has no
        // latency so arrivals match.
        assert_eq!(st.messages[0].arrival, 10.0);
        assert_eq!(st.messages[1].arrival, 15.0);
        assert_eq!(st.send_done[0], 15.0);
        // Receiver (idle otherwise) unpacks in order: 10→20, then 20+5=25
        // — wait: unpack of msg0 starts at max(0, 10) = 10, done 20;
        // msg1 arrival 15 < 20, starts at 20, done 25.
        assert_eq!(st.finish[1], 25.0);
    }

    #[test]
    fn slow_sender_pays_r() {
        let t = two_proc(4.0);
        let cfg = NetConfig::ideal();
        let sends = [SendIntent {
            src: ProcId(1),
            dst: ProcId(0),
            words: 10,
        }];
        let st = superstep_timing(&t, &cfg, &[0.0, 0.0], &[0.0, 0.0], &sends);
        assert_eq!(st.messages[0].arrival, 40.0, "r=4 sender: 4·1·10 words");
        // Fast receiver unpacks at r=1: 40 + 10 = 50.
        assert_eq!(st.finish[0], 50.0);
    }

    #[test]
    fn recv_asymmetry_makes_slow_receiver_cheaper_than_slow_sender() {
        // The p=2 gather anomaly in microcosm: moving n words *to* the
        // slow machine (it only unpacks: κ_recv·r·n) beats moving them
        // *from* it (pack+inject: κ_send·r·n), because κ_recv < κ_send.
        let t = two_proc(4.0);
        let cfg = NetConfig::pvm_like();
        let to_slow = [SendIntent {
            src: ProcId(0),
            dst: ProcId(1),
            words: 100,
        }];
        let from_slow = [SendIntent {
            src: ProcId(1),
            dst: ProcId(0),
            words: 100,
        }];
        let a = superstep_timing(&t, &cfg, &[0.0, 0.0], &[0.0, 0.0], &to_slow);
        let b = superstep_timing(&t, &cfg, &[0.0, 0.0], &[0.0, 0.0], &from_slow);
        let t_to_slow = a.finish.iter().cloned().fold(0.0, f64::max);
        let t_from_slow = b.finish.iter().cloned().fold(0.0, f64::max);
        assert!(
            t_to_slow < t_from_slow,
            "slow machine receiving ({t_to_slow}) beats slow machine sending ({t_from_slow})"
        );
    }

    #[test]
    fn self_send_is_free() {
        let t = two_proc(1.0);
        let sends = [SendIntent {
            src: ProcId(0),
            dst: ProcId(0),
            words: 1000,
        }];
        let st = superstep_timing(&t, &NetConfig::pvm_like(), &[5.0, 0.0], &[0.0, 0.0], &sends);
        assert_eq!(st.finish[0], 5.0, "no cost charged");
        assert_eq!(st.messages[0].arrival, 5.0);
    }

    #[test]
    fn latency_and_bandwidth_apply_by_lca_level() {
        let t = TreeBuilder::two_level(
            1.0,
            0.0,
            &[(0.0, vec![(1.0, 1.0), (1.0, 1.0)]), (0.0, vec![(1.0, 1.0)])],
        )
        .unwrap();
        let cfg = NetConfig::ideal()
            .with_latency(vec![0.0, 1.0, 100.0])
            .with_bandwidth_factors(vec![1.0, 1.0, 10.0]);
        // Intra-cluster: P0 -> P1 (LCA level 1).
        let intra = [SendIntent {
            src: ProcId(0),
            dst: ProcId(1),
            words: 10,
        }];
        let st = superstep_timing(&t, &cfg, &[0.0; 3], &[0.0; 3], &intra);
        assert_eq!(st.messages[0].arrival, 10.0 + 1.0);
        // Cross-cluster: P0 -> P2 (LCA level 2): 10 words × bw 10 on the
        // wire, plus 100 latency.
        let cross = [SendIntent {
            src: ProcId(0),
            dst: ProcId(2),
            words: 10,
        }];
        let st = superstep_timing(&t, &cfg, &[0.0; 3], &[0.0; 3], &cross);
        assert_eq!(st.messages[0].arrival, 100.0 + 100.0);
    }

    #[test]
    fn receiver_overlap_with_own_work() {
        let t = two_proc(1.0);
        let cfg = NetConfig::ideal();
        let sends = [SendIntent {
            src: ProcId(0),
            dst: ProcId(1),
            words: 10,
        }];
        // Receiver busy computing until t=100; message arrives at 10 but
        // unpacking starts at 100.
        let st = superstep_timing(&t, &cfg, &[0.0, 0.0], &[0.0, 100.0], &sends);
        assert_eq!(st.messages[0].arrival, 10.0);
        assert_eq!(st.finish[1], 110.0);
    }

    #[test]
    fn message_overhead_charged_per_message() {
        let t = two_proc(1.0);
        let cfg = NetConfig::ideal().with_msg_overhead(7.0);
        let sends = [
            SendIntent {
                src: ProcId(0),
                dst: ProcId(1),
                words: 0,
            },
            SendIntent {
                src: ProcId(0),
                dst: ProcId(1),
                words: 0,
            },
        ];
        let st = superstep_timing(&t, &cfg, &[0.0, 0.0], &[0.0, 0.0], &sends);
        assert_eq!(st.send_done[0], 14.0);
    }

    #[test]
    fn straggle_scale_inflates_send_and_unpack_only() {
        let t = two_proc(1.0);
        let cfg = NetConfig::ideal();
        let sends = [SendIntent {
            src: ProcId(0),
            dst: ProcId(1),
            words: 10,
        }];
        let faulted = |r_scale: &[f64]| {
            let mut st = StepTiming::default();
            let starts = [0.0, 0.0];
            superstep_timing_faulted_into(
                &t,
                &cfg,
                &starts,
                &[50.0, 0.0],
                &sends,
                Some(r_scale),
                &mut TimingScratch::default(),
                &mut st,
            );
            st
        };
        // P0's r is tripled for this step: send cost 30 instead of 10.
        let st = faulted(&[3.0, 1.0]);
        assert_eq!(st.compute_done, vec![50.0, 0.0], "compute unaffected");
        assert_eq!(st.messages[0].arrival, 80.0, "50 + 3·1·10 words");
        assert_eq!(st.finish[1], 90.0, "receiver unpacks at its own r");
        // All-ones scale is bit-identical to the fault-free algebra.
        let b = superstep_timing(&t, &cfg, &[0.0, 0.0], &[50.0, 0.0], &sends);
        assert_eq!(faulted(&[1.0, 1.0]), b);
    }

    #[test]
    fn global_barrier_waits_for_slowest() {
        let t = two_proc(2.0);
        let release = barrier_release(&t, SyncScope::Level(1), &[30.0, 70.0]);
        assert_eq!(release, vec![80.0, 80.0], "max finish 70 + L 10");
    }

    #[test]
    fn cluster_barrier_releases_clusters_independently() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[(5.0, vec![(1.0, 1.0), (1.0, 1.0)]), (7.0, vec![(1.0, 1.0)])],
        )
        .unwrap();
        let rel = barrier_release(&t, SyncScope::Level(1), &[10.0, 20.0, 50.0]);
        assert_eq!(rel, vec![25.0, 25.0, 57.0], "each cluster pays its own L");
        let global = barrier_release(&t, SyncScope::Level(2), &[10.0, 20.0, 50.0]);
        assert_eq!(
            global,
            vec![150.0, 150.0, 150.0],
            "global barrier: max + L_{{2,0}}"
        );
    }

    #[test]
    fn leaf_above_scope_level_is_singleton() {
        // Figure-2-like: a standalone leaf on level 1 barriers alone
        // under a level-1 scope.
        let mut b = TreeBuilder::new(1.0);
        let root = b.cluster("root", hbsp_core::NodeParams::cluster(100.0));
        let c = b.child_cluster(root, "c", hbsp_core::NodeParams::cluster(5.0));
        b.child_proc(c, "p0", hbsp_core::NodeParams::proc(1.0, 1.0));
        b.child_proc(c, "p1", hbsp_core::NodeParams::proc(1.0, 1.0));
        b.child_proc(root, "solo", hbsp_core::NodeParams::proc(2.0, 0.5));
        let t = b.build().unwrap();
        let rel = barrier_release(&t, SyncScope::Level(1), &[10.0, 20.0, 99.0]);
        assert_eq!(rel, vec![25.0, 25.0, 99.0], "solo leaf pays no barrier");
    }
}
