//! Schedule verification and conservative dataflow analysis.
//!
//! The checks operate on [`ScheduleView`], an engine-neutral projection
//! of a communication schedule: per-superstep barrier scope, work
//! charges, and `(src, dst, words, payload)` transfers. The producer
//! (`hbsp_collectives::verify`) converts its `CommSchedule` IR into this
//! view; keeping the view here lets the checker live below the crate
//! that defines the IR.

use crate::violation::Violation;
use hbsp_core::{Level, MachineTree, ProcId};
use std::collections::HashSet;

/// What a transfer carries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Addressable item ranges `(offset, len)` out of the collective's
    /// logical item space.
    Units(Vec<(u64, u64)>),
    /// A partial reduction result (dynamic length, combined on arrival).
    Partial,
}

/// One point-to-point transfer in a superstep.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferView {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// Words the cost model charges for this transfer.
    pub words: u64,
    /// The data carried.
    pub payload: Payload,
}

/// One superstep of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct StepView {
    /// Barrier level closing the step; `None` marks the final drain
    /// step (absorb-only, no barrier).
    pub scope: Option<Level>,
    /// Work charges `(processor, units at fastest-machine speed)`.
    pub work: Vec<(ProcId, f64)>,
    /// Transfers posted during the step, in posting order.
    pub transfers: Vec<TransferView>,
}

/// An engine-neutral projection of a communication schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleView {
    /// The supersteps in execution order.
    pub steps: Vec<StepView>,
    /// Per rank, true where its units are whole blocks, not ranges of
    /// one array (see [`cover`]); ranks past the end hold ranges.
    pub whole_blocks: Vec<bool>,
}

/// What one processor holds before the first superstep.
#[derive(Debug, Clone, Default)]
pub struct ProcHoldings {
    /// Item ranges `(offset, len)` the processor starts with.
    pub units: Vec<(u64, u64)>,
    /// True if the processor starts with a reduction accumulator.
    pub has_acc: bool,
}

/// Which of a rank's held units supply the unit `want = (offset, len)`:
/// `f(i, range)` gets, in item order, the index `i` into `units` (the
/// rank's unit ids, sorted and distinct; `held(i)` if it holds unit `i`
/// now) and the range of unit `i`'s items that comes next. The exact id
/// supplies all of it; otherwise, only where units are `ranges` of one
/// array, held units overlapping `want` supply it piece by piece (block
/// ids `src·p + dst` overlap as offsets without sharing words). Returns
/// whether `want` is covered (an empty unit always is). Allocates nothing.
pub fn cover(
    units: &[(u64, u64)],
    held: impl Fn(usize) -> bool,
    ranges: bool,
    want: (u64, u64),
    mut f: impl FnMut(usize, std::ops::Range<usize>),
) -> bool {
    if let Some(i) = units.binary_search(&want).ok().filter(|&i| held(i)) {
        f(i, 0..want.1 as usize);
        return true;
    }
    let (end, mut next) = (want.0 + want.1, want.0);
    // Blocks are not pieced together. Ranges come in ascending offsets:
    // once a unit starts past `next`, so does every later one.
    let pieces = if ranges { units } else { &[] };
    for (i, &(s, len)) in pieces.iter().enumerate() {
        if next == end || s > next {
            break;
        }
        let e = (s + len).min(end);
        if e > next && held(i) {
            f(i, (next - s) as usize..(e - s) as usize);
            next = e;
        }
    }
    next == end
}

/// Structural verification of a schedule against its target machine:
/// drain placement, rank bounds, scope containment and range, word
/// conservation, self-sends, duplicates, and work-charge validity.
///
/// Returns every violation found (empty = clean). Use
/// [`Violation::is_fatal`] to separate hard errors from lint findings.
pub fn verify_schedule(tree: &MachineTree, view: &ScheduleView) -> Vec<Violation> {
    let mut out = Vec::new();
    if view.steps.is_empty() {
        out.push(Violation::EmptySchedule);
        return out;
    }
    let nprocs = tree.num_procs();
    let height = tree.height();
    let last = view.steps.len() - 1;
    let in_range = |pid: ProcId| pid.rank() < nprocs;

    for (i, step) in view.steps.iter().enumerate() {
        match step.scope {
            None if i != last => out.push(Violation::MisplacedDrain { step: i }),
            None => {
                if let Some(t) = step.transfers.first() {
                    out.push(Violation::TransferInDrain {
                        step: i,
                        src: t.src,
                        dst: t.dst,
                    });
                }
            }
            Some(level) => {
                if i == last {
                    out.push(Violation::MissingDrain);
                }
                if level > height {
                    out.push(Violation::ScopeOutOfRange {
                        step: i,
                        scope: level,
                        height,
                    });
                }
            }
        }

        for &(pid, units) in &step.work {
            if !in_range(pid) {
                out.push(Violation::RankOutOfBounds {
                    step: i,
                    pid,
                    nprocs,
                });
            }
            if units < 0.0 || !units.is_finite() {
                out.push(Violation::InvalidWork {
                    step: i,
                    pid,
                    units,
                });
            }
        }

        let mut seen: HashSet<(usize, usize, u64, Payload)> = HashSet::new();
        for t in &step.transfers {
            let mut endpoints_ok = true;
            for pid in [t.src, t.dst] {
                if !in_range(pid) {
                    out.push(Violation::RankOutOfBounds {
                        step: i,
                        pid,
                        nprocs,
                    });
                    endpoints_ok = false;
                }
            }
            if let Payload::Units(units) = &t.payload {
                let carried: u64 = units.iter().map(|&(_, len)| len).sum();
                if carried != t.words {
                    out.push(Violation::WordMismatch {
                        step: i,
                        src: t.src,
                        dst: t.dst,
                        words: t.words,
                        payload: carried,
                    });
                }
            }
            if !seen.insert((t.src.rank(), t.dst.rank(), t.words, t.payload.clone())) {
                out.push(Violation::DuplicateTransfer {
                    step: i,
                    src: t.src,
                    dst: t.dst,
                });
            }
            if !endpoints_ok {
                continue;
            }
            if t.src == t.dst {
                out.push(Violation::SelfSend {
                    step: i,
                    pid: t.src,
                });
                continue;
            }
            if let Some(scope) = step.scope {
                if scope <= height {
                    let a = tree.leaves()[t.src.rank()];
                    let b = tree.leaves()[t.dst.rank()];
                    let crossing = tree.node(tree.lca(a, b)).level();
                    if crossing > scope {
                        out.push(Violation::ScopeEscape {
                            step: i,
                            src: t.src,
                            dst: t.dst,
                            crossing,
                            scope,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Matched-send/receive analysis under BSP delivery semantics:
/// starting from `init` (what each processor holds before step 0),
/// every transfer must send data its source holds at that superstep;
/// deliveries from step `i` become usable at step `i + 1`.
/// Partial-combine transfers need a source accumulator and a schedule
/// reduction operator (`has_op`). "Holds" is [`cover`], the rule the
/// engines' interpreter sends and reads by, on each rank's units as
/// `view.whole_blocks` says they are: per rank, as a merged batch runs
/// blocks and ranges on disjoint ranks.
pub fn verify_dataflow(
    tree: &MachineTree,
    view: &ScheduleView,
    init: &[ProcHoldings],
    has_op: bool,
) -> Vec<Violation> {
    let (got, nprocs) = (init.len(), tree.num_procs());
    if got != nprocs {
        return vec![Violation::InitMismatch {
            got,
            expected: nprocs,
        }];
    }
    let mut out = Vec::new();
    // Per rank, the unit ids it holds, sorted and distinct.
    let mut held: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
    let hold = |held: &mut Vec<(u64, u64)>, units: &[(u64, u64)]| {
        for &unit in units {
            if let Err(at) = held.binary_search(&unit) {
                held.insert(at, unit);
            }
        }
    };
    held.iter_mut()
        .zip(init)
        .for_each(|(held, h)| hold(held, &h.units));
    let ranges = |rank: usize| !view.whole_blocks.get(rank).copied().unwrap_or(false);
    let mut has_acc: Vec<bool> = init.iter().map(|h| h.has_acc).collect();
    let mut reported_no_op = false;

    // Deliveries queued during the current step, absorbed at the next.
    let mut pending: Vec<(usize, &Payload)> = Vec::new();

    for (i, step) in view.steps.iter().enumerate() {
        for (dst, payload) in pending.drain(..) {
            match payload {
                Payload::Units(units) => hold(&mut held[dst], units),
                Payload::Partial => has_acc[dst] = true,
            }
        }
        for t in &step.transfers {
            let (src, dst) = (t.src.rank(), t.dst.rank());
            if src >= nprocs || dst >= nprocs {
                continue; // already a RankOutOfBounds in verify_schedule
            }
            match &t.payload {
                Payload::Units(units) => {
                    for &(offset, len) in units {
                        if !cover(&held[src], |_| true, ranges(src), (offset, len), |_, _| ()) {
                            out.push(Violation::UnmatchedReceive {
                                step: i,
                                src: t.src,
                                dst: t.dst,
                                offset,
                                len,
                            });
                        }
                    }
                }
                Payload::Partial => {
                    if !has_op && !reported_no_op {
                        out.push(Violation::PartialWithoutOp { step: i });
                        reported_no_op = true;
                    }
                    if !has_acc[src] {
                        out.push(Violation::PartialWithoutAccumulator {
                            step: i,
                            pid: t.src,
                        });
                    }
                }
            }
            // Queue the delivery even when flagged, so one missing hop
            // does not cascade into spurious downstream findings.
            pending.push((dst, &t.payload));
        }
    }
    out
}

/// The heterogeneous h-relation a step's transfers imply, recomputed
/// from first principles: per processor the words it sends and receives
/// (self-sends are free local moves and excluded), scaled by its
/// communication slowness `r`, maximized over the machine. This is the
/// quantity the cost model should charge `g · h` for.
pub fn implied_hrelation(tree: &MachineTree, step: &StepView) -> f64 {
    let nprocs = tree.num_procs();
    let mut sent = vec![0u64; nprocs];
    let mut recv = vec![0u64; nprocs];
    for t in &step.transfers {
        if t.src == t.dst || t.src.rank() >= nprocs || t.dst.rank() >= nprocs {
            continue;
        }
        sent[t.src.rank()] += t.words;
        recv[t.dst.rank()] += t.words;
    }
    let mut h = 0.0f64;
    for (pid, &leaf) in tree.leaves().iter().enumerate() {
        let r = tree.node(leaf).params().r;
        h = h.max(r * sent[pid].max(recv[pid]) as f64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn flat3() -> MachineTree {
        TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)]).unwrap()
    }

    fn units(spans: &[(u64, u64)]) -> Payload {
        Payload::Units(spans.to_vec())
    }

    fn steps(steps: Vec<StepView>) -> ScheduleView {
        let whole_blocks = Vec::new();
        ScheduleView {
            steps,
            whole_blocks,
        }
    }

    fn holds(units: &[(u64, u64)]) -> ProcHoldings {
        let units = units.to_vec();
        ProcHoldings {
            units,
            has_acc: false,
        }
    }

    fn step(scope: Option<Level>, transfers: Vec<TransferView>) -> StepView {
        StepView {
            scope,
            work: vec![],
            transfers,
        }
    }

    fn xfer(src: u32, dst: u32, words: u64, payload: Payload) -> TransferView {
        TransferView {
            src: ProcId(src),
            dst: ProcId(dst),
            words,
            payload,
        }
    }

    #[test]
    fn clean_two_step_schedule_passes() {
        let t = flat3();
        let view = steps(vec![
            step(Some(1), vec![xfer(1, 0, 4, units(&[(4, 4)]))]),
            step(None, vec![]),
        ]);
        assert!(verify_schedule(&t, &view).is_empty());
        let init = [holds(&[(0, 4)]), holds(&[(4, 4)]), holds(&[])];
        assert!(verify_dataflow(&t, &view, &init, false).is_empty());
    }

    #[test]
    fn cover_walks_adjacent_spans_only_where_units_are_ranges() {
        let units = [(0, 4), (4, 4), (10, 2)];
        let walk = |ranges, want| {
            let mut seen = Vec::new();
            let ok = cover(&units, |_| true, ranges, want, |i, r| seen.push((i, r)));
            ok.then_some(seen)
        };
        assert_eq!(walk(true, (2, 4)), Some(vec![(0, 2..4), (1, 0..2)]));
        assert_eq!(walk(true, (4, 4)), Some(vec![(1, 0..4)]), "exact id");
        assert_eq!(walk(true, (7, 4)), None, "gap [8,10) is uncovered");
        assert_eq!(walk(true, (11, 0)), Some(vec![]), "empty units are covered");
        assert_eq!(walk(false, (0, 4)), Some(vec![(0, 0..4)]));
        assert_eq!(walk(false, (0, 8)), None, "blocks are not pieced together");
        let unheld = cover(&units, |i| i != 1, true, (4, 4), |_, _| ());
        assert!(!unheld, "a unit not held yet supplies nothing");
    }

    #[test]
    fn bsp_timing_data_sent_now_is_not_usable_now() {
        let t = flat3();
        // Step 0 sends [0,4) from 0 to 1; step 0 also has 1 forwarding
        // the same span — too early, it only lands at step 1.
        let view = steps(vec![
            step(
                Some(1),
                vec![
                    xfer(0, 1, 4, units(&[(0, 4)])),
                    xfer(1, 2, 4, units(&[(0, 4)])),
                ],
            ),
            step(None, vec![]),
        ]);
        let init = [holds(&[(0, 4)]), holds(&[]), holds(&[])];
        let v = verify_dataflow(&t, &view, &init, false);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::UnmatchedReceive { step: 0, .. })),
            "{v:?}"
        );
        // Moving the forward to step 1 is fine.
        let ok = steps(vec![
            step(Some(1), vec![xfer(0, 1, 4, units(&[(0, 4)]))]),
            step(Some(1), vec![xfer(1, 2, 4, units(&[(0, 4)]))]),
            step(None, vec![]),
        ]);
        assert!(verify_dataflow(&t, &ok, &init, false).is_empty());
    }

    #[test]
    fn implied_h_skips_self_sends_and_scales_by_r() {
        let t = flat3();
        let s = step(
            Some(1),
            vec![
                xfer(0, 2, 10, units(&[(0, 10)])),   // P2 (r=3) receives 10
                xfer(1, 1, 100, units(&[(0, 100)])), // self-send: free
            ],
        );
        assert_eq!(implied_hrelation(&t, &s), 30.0);
    }
}
