//! Schedule verification and conservative dataflow analysis.
//!
//! The checks read the schedule IR itself ([`CommSchedule`], defined in
//! `hbsp_core::schedule` beside the cost model that prices it): the
//! same steps, transfers and unit ids the collectives lower to and the
//! interpreter runs.

use crate::violation::Violation;
use hbsp_core::{
    step_hrelation, CommSchedule, MachineTree, ProcId, Role, ScheduleStep, SyncScope, Transfer,
    UnitId,
};
use std::collections::HashSet;

/// The schedule IR under its old name. Kept only for the frozen
/// benchmark surface (`benchmark/src/api.rs`) until the benchmark is
/// re-anchored (ROADMAP item 5).
pub type ScheduleView = CommSchedule;

/// What one processor holds before the first superstep.
#[derive(Debug, Clone, Default)]
pub struct ProcHoldings {
    /// Units the processor starts with.
    pub units: Vec<UnitId>,
    /// True if the processor starts with a reduction accumulator.
    pub has_acc: bool,
}

/// Which of a rank's held units supply the unit `want`: `f(i, range)`
/// gets, in item order, the index `i` into `units` (the rank's unit ids,
/// sorted and distinct; `held(i)` if it holds unit `i` now) and the
/// range of unit `i`'s items that comes next. The exact id supplies all
/// of it; otherwise, only where units are `ranges` of one array, held
/// units overlapping `want` supply it piece by piece (block ids
/// `src·p + dst` overlap as offsets without sharing words). Returns
/// whether `want` is covered (an empty unit always is). Allocates nothing.
pub fn cover(
    units: &[UnitId],
    held: impl Fn(usize) -> bool,
    ranges: bool,
    want: UnitId,
    mut f: impl FnMut(usize, std::ops::Range<usize>),
) -> bool {
    if let Some(i) = units.binary_search(&want).ok().filter(|&i| held(i)) {
        f(i, 0..want.len as usize);
        return true;
    }
    let (end, mut next) = (want.offset as u64 + want.len as u64, want.offset as u64);
    // Blocks are not pieced together. Ranges come in ascending offsets:
    // once a unit starts past `next`, so does every later one.
    let pieces = if ranges { units } else { &[] };
    for (i, u) in pieces.iter().enumerate() {
        let s = u.offset as u64;
        if next == end || s > next {
            break;
        }
        let e = (s + u.len as u64).min(end);
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
pub fn verify_schedule(tree: &MachineTree, schedule: &CommSchedule) -> Vec<Violation> {
    let mut out = Vec::new();
    if schedule.steps.is_empty() {
        out.push(Violation::EmptySchedule);
        return out;
    }
    let nprocs = tree.num_procs();
    let height = tree.height();
    let last = schedule.steps.len() - 1;
    let in_range = |pid: ProcId| pid.rank() < nprocs;

    for (i, step) in schedule.steps.iter().enumerate() {
        let scope = step.scope.map(SyncScope::level);
        match scope {
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

        let mut seen: HashSet<(usize, usize, u64, &Role)> = HashSet::new();
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
            if t.role != Role::Partial {
                let carried: u64 = t.role.units().iter().map(|u| u.len as u64).sum();
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
            if !seen.insert((t.src.rank(), t.dst.rank(), t.words, &t.role)) {
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
            if let Some(scope) = scope {
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
/// [`CommSchedule::whole_blocks`] says they are: per rank, as a merged
/// batch runs blocks and ranges on disjoint ranks.
pub fn verify_dataflow(
    tree: &MachineTree,
    schedule: &CommSchedule,
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
    let mut held: Vec<Vec<UnitId>> = vec![Vec::new(); nprocs];
    let hold = |held: &mut Vec<UnitId>, units: &[UnitId]| {
        for &unit in units {
            if let Err(at) = held.binary_search(&unit) {
                held.insert(at, unit);
            }
        }
    };
    held.iter_mut()
        .zip(init)
        .for_each(|(held, h)| hold(held, &h.units));
    let mut has_acc: Vec<bool> = init.iter().map(|h| h.has_acc).collect();
    let mut reported_no_op = false;

    // Deliveries queued during the current step, absorbed at the next.
    let mut pending: Vec<(usize, &Role)> = Vec::new();

    for (i, step) in schedule.steps.iter().enumerate() {
        for (dst, role) in pending.drain(..) {
            match role {
                Role::Partial => has_acc[dst] = true,
                role => hold(&mut held[dst], role.units()),
            }
        }
        for t in &step.transfers {
            let (src, dst) = (t.src.rank(), t.dst.rank());
            if src >= nprocs || dst >= nprocs {
                continue; // already a RankOutOfBounds in verify_schedule
            }
            let whole_block = schedule.holds_blocks(src);
            match &t.role {
                Role::Partial => {
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
                role => {
                    for &unit in role.units() {
                        if !cover(&held[src], |_| true, !whole_block, unit, |_, _| ()) {
                            out.push(Violation::UnmatchedReceive {
                                step: i,
                                src: t.src,
                                dst: t.dst,
                                unit,
                                whole_block,
                            });
                        }
                    }
                }
            }
            // Queue the delivery even when flagged, so one missing hop
            // does not cascade into spurious downstream findings.
            pending.push((dst, &t.role));
        }
    }
    out
}

/// The heterogeneous h-relation a step's transfers imply, recomputed
/// from first principles: per processor the words it sends and receives
/// (self-sends are free local moves and excluded), scaled by its
/// communication slowness `r`, maximized over the machine. This is the
/// quantity the cost model should charge `g · h` for.
pub fn implied_hrelation(tree: &MachineTree, step: &ScheduleStep) -> f64 {
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

/// h-relation consistency: per step, the h its transfers imply
/// ([`implied_hrelation`]) must be the h the cost model charges `g·h`
/// for ([`step_hrelation`], as `predict()` prices it). A step naming a
/// rank the machine lacks is [`verify_schedule`]'s finding, not this.
pub fn verify_hrelation(tree: &MachineTree, schedule: &CommSchedule) -> Vec<Violation> {
    let in_range = |t: &Transfer| t.src.rank().max(t.dst.rank()) < tree.num_procs();
    let mut out = Vec::new();
    for (step, s) in schedule.steps.iter().enumerate() {
        if !s.transfers.iter().all(in_range) {
            continue;
        }
        let (implied, charged) = (implied_hrelation(tree, s), step_hrelation(tree, s));
        let charged = charged.h_on(tree);
        if (implied - charged).abs() > 1e-9 * implied.abs().max(charged.abs()).max(1.0) {
            out.push(Violation::HRelationMismatch {
                step,
                implied,
                charged,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::TreeBuilder;

    fn flat3() -> MachineTree {
        TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.25)]).unwrap()
    }

    fn units(spans: &[(u32, u32)]) -> Role {
        Role::Bundle(spans.iter().map(|&(o, l)| UnitId::new(o, l)).collect())
    }

    fn steps(steps: Vec<ScheduleStep>) -> CommSchedule {
        CommSchedule {
            steps,
            ..CommSchedule::default()
        }
    }

    fn holds(spans: &[(u32, u32)]) -> ProcHoldings {
        let units = spans.iter().map(|&(o, l)| UnitId::new(o, l)).collect();
        ProcHoldings {
            units,
            has_acc: false,
        }
    }

    fn step(scope: Option<u32>, transfers: Vec<Transfer>) -> ScheduleStep {
        ScheduleStep {
            scope: scope.map(SyncScope::Level),
            work: vec![],
            transfers,
        }
    }

    fn xfer(src: u32, dst: u32, words: u64, role: Role) -> Transfer {
        Transfer {
            src: ProcId(src),
            dst: ProcId(dst),
            words,
            role,
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
        let units = [(0, 4), (4, 4), (10, 2)].map(|(o, l)| UnitId::new(o, l));
        let walk = |ranges, (o, l)| {
            let mut seen = Vec::new();
            let want = UnitId::new(o, l);
            let ok = cover(&units, |_| true, ranges, want, |i, r| seen.push((i, r)));
            ok.then_some(seen)
        };
        assert_eq!(walk(true, (2, 4)), Some(vec![(0, 2..4), (1, 0..2)]));
        assert_eq!(walk(true, (4, 4)), Some(vec![(1, 0..4)]), "exact id");
        assert_eq!(walk(true, (7, 4)), None, "gap [8,10) is uncovered");
        assert_eq!(walk(true, (11, 0)), Some(vec![]), "empty units are covered");
        assert_eq!(walk(false, (0, 4)), Some(vec![(0, 0..4)]));
        assert_eq!(walk(false, (0, 8)), None, "blocks are not pieced together");
        let unheld = cover(&units, |i| i != 1, true, UnitId::new(4, 4), |_, _| ());
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
