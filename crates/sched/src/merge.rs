//! Merging a batch of lowered jobs into one shared-tree program.
//!
//! Each lowered job's schedule is expressed in its carved machine's
//! local ranks; merging remaps every work charge and transfer through
//! `Carved::leaves` onto the shared tree and zips the jobs' supersteps
//! together, so the whole batch runs under **one barrier per step**
//! instead of one barrier sequence per tenant.
//!
//! Correctness of the shared barrier: merged step `s` closes at
//! `Level(max level of any active job's claimed node)`. A claim at
//! level `ℓ` is itself a level-`ℓ` cluster, every transfer of that job
//! stays inside it, and any node of the sub-tree sits at level `≤ ℓ` —
//! so each transfer's crossing level is contained by the merged scope,
//! and the engines' scope check accepts the merged program wherever it
//! accepted the tenants individually. Unit-id spaces may collide across
//! jobs, but stores are per-processor and concurrent claims are
//! leaf-disjoint, so no processor ever sees two tenants' units.

use crate::lower::LoweredJob;
use hbsp_collectives::schedule::ProcInit;
use hbsp_collectives::{CommSchedule, ScheduleStep, Transfer};
use hbsp_core::{MachineTree, SyncScope};

/// Zip the batch members into one program on `tree`: the schedule over
/// the shared tree and the holdings per shared-tree rank (idle
/// processors hold nothing), ready for `ScheduleProgram` with the
/// batch's one reduction operator.
pub(crate) fn merge(tree: &MachineTree, lowered: &[LoweredJob]) -> (CommSchedule, Vec<ProcInit>) {
    let p = tree.num_procs();
    let mut init = vec![ProcInit::default(); p];
    for l in lowered {
        for (rank, pi) in l.init.iter().enumerate() {
            init[l.priced.carved.leaves[rank].rank()] = pi.clone();
        }
    }

    // Every schedule ends with its drain; the merged body is as long as
    // the longest member body, followed by one shared drain.
    let body_of = |l: &LoweredJob| l.priced.schedule().num_steps().saturating_sub(1);
    let body = lowered.iter().map(body_of).max().unwrap_or(0);
    let mut schedule = CommSchedule::new();
    for s in 0..body {
        // `body` is the longest member body, so some member is active
        // at every body step and the loop never breaks early.
        let Some(scope) = lowered
            .iter()
            .filter(|l| s < body_of(l))
            .map(|l| tree.node(l.node).level())
            .max()
        else {
            break;
        };
        let mut step = ScheduleStep::at(SyncScope::Level(scope));
        for l in lowered {
            if s >= body_of(l) {
                continue;
            }
            let src = &l.priced.schedule().steps[s];
            for &(pid, units) in &src.work {
                step.work.push((l.priced.carved.leaves[pid.rank()], units));
            }
            for t in &src.transfers {
                step.transfers.push(Transfer {
                    src: l.priced.carved.leaves[t.src.rank()],
                    dst: l.priced.carved.leaves[t.dst.rank()],
                    words: t.words,
                    role: t.role.clone(),
                });
            }
        }
        schedule.push(step);
    }
    let mut drain = ScheduleStep::drain();
    for l in lowered {
        if let Some(last) = l.priced.schedule().steps.last() {
            for &(pid, units) in &last.work {
                drain.work.push((l.priced.carved.leaves[pid.rank()], units));
            }
        }
    }
    schedule.push(drain);
    (schedule, init)
}
