//! Personalized all-to-all (total exchange): processor `i` holds a
//! distinct block for every processor `j`; after the exchange, `j`
//! holds the blocks addressed to it from everyone.
//!
//! Two variants:
//!
//! * [`lower_alltoall`] — flat: every pair exchanges directly (one
//!   superstep, `p(p−1)` messages, every cross-cluster pair paying the
//!   top-level link);
//! * [`lower_alltoall_hier`] — staged: blocks bound for another
//!   cluster are first handed to the local coordinator, which bundles
//!   them into *one* message per destination cluster; the destination
//!   coordinator fans them out locally. Message count across the top
//!   level drops from `O(p²)` to `O(clusters²)` at the price of two
//!   extra supersteps and coordinator relay volume.

use crate::error::{shape, CollectiveError};
use crate::plan::Strategy;
use crate::schedule::{self, block_unit, CommSchedule, ScheduleStep, Staging, Transfer, UnitId};
use hbsp_core::{MachineTree, ProcId, SyncScope};
use hbsp_sim::SimOutcome;
use hbsplib::{Executor, TreeEnquiry};

/// Flat all-to-all as a schedule: one global superstep, every ordered
/// pair exchanging its block directly. `sizes[i][j]` is the word count
/// of the block `i → j`.
pub fn lower_alltoall(tree: &MachineTree, sizes: &[Vec<u64>]) -> CommSchedule {
    let p = tree.num_procs();
    let mut step = ScheduleStep::at(SyncScope::global(tree));
    for (i, row) in sizes.iter().enumerate().take(p) {
        for (j, &words) in row.iter().enumerate().take(p) {
            if i != j {
                let (src, dst) = (ProcId(i as u32), ProcId(j as u32));
                let block = block_unit(p, i, j, words as usize);
                step.transfers.push(Transfer::bundle(src, dst, vec![block]));
            }
        }
    }
    let mut sched = CommSchedule::new();
    sched.push(step);
    sched.push(ScheduleStep::drain());
    sched.whole_blocks = vec![true; p];
    sched
}

/// Staged hierarchical all-to-all as a schedule: local delivery +
/// hand-up to coordinators (super¹-step), one bundle per coordinator
/// pair (super²-step), local fan-out (super¹-step), drain.
pub fn lower_alltoall_hier(tree: &MachineTree, sizes: &[Vec<u64>]) -> CommSchedule {
    let p = tree.num_procs();
    let unit = |i: usize, j: usize| block_unit(p, i, j, sizes[i][j] as usize);
    let coords = tree.level_coordinators(1);
    let coord_of: Vec<ProcId> = (0..p)
        .map(|i| tree.coordinator_of(ProcId(i as u32), 1))
        .collect();
    let mut sched = CommSchedule::new();

    // Stage 1: local blocks direct, foreign blocks to my coordinator.
    let mut local = ScheduleStep::at(SyncScope::Level(1));
    for i in 0..p {
        let src = ProcId(i as u32);
        for j in 0..p {
            if i == j {
                continue;
            }
            let dst = ProcId(j as u32);
            let relay = if coord_of[i] == coord_of[j] {
                dst // same cluster: deliver directly
            } else {
                coord_of[i] // foreign: hand up (coordinators keep theirs)
            };
            if relay != src {
                let block = vec![unit(i, j)];
                local.transfers.push(Transfer::bundle(src, relay, block));
            }
        }
    }
    sched.push(local);

    // Stage 2: one bundle per ordered coordinator pair.
    let mut exchange = ScheduleStep::at(SyncScope::global(tree));
    for &c in &coords {
        let members = tree.cluster_members(c, 1);
        for &peer in &coords {
            if peer == c {
                continue;
            }
            let peer_members = tree.cluster_members(peer, 1);
            let uids: Vec<UnitId> = members
                .iter()
                .flat_map(|&m| {
                    peer_members
                        .iter()
                        .map(move |&q| (m.rank(), q.rank()))
                        .map(|(i, j)| unit(i, j))
                })
                .collect();
            if !uids.is_empty() {
                exchange.transfers.push(Transfer::bundle(c, peer, uids));
            }
        }
    }
    sched.push(exchange);

    // Stage 3: coordinators fan foreign blocks out to their members.
    let mut fanout = ScheduleStep::at(SyncScope::Level(1));
    for &c in &coords {
        let members = tree.cluster_members(c, 1);
        for &q in &members {
            if q == c {
                continue;
            }
            for (i, _) in coord_of.iter().enumerate().filter(|&(_, &ci)| ci != c) {
                let block = unit(i, q.rank());
                fanout.transfers.push(Transfer::bundle(c, q, vec![block]));
            }
        }
    }
    sched.push(fanout);
    sched.push(ScheduleStep::drain());
    sched.whole_blocks = vec![true; p];
    sched
}

/// Outcome of an all-to-all run.
#[derive(Debug, Clone)]
pub struct AllToAllRun {
    /// `received[j][i]` = block that `j` received from `i`.
    pub received: Vec<Vec<Vec<u32>>>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Run an all-to-all exchange of `blocks` (`blocks[i][j]` from `i` to
/// `j`) on `exec`'s machine and engine: direct pairwise exchange under
/// [`Strategy::Flat`], coordinator bundling under
/// [`Strategy::Hierarchical`].
pub fn run(
    exec: &Executor,
    mut blocks: Vec<Vec<Vec<u32>>>,
    strategy: Strategy,
) -> Result<AllToAllRun, CollectiveError> {
    let tree = exec.tree();
    let p = tree.num_procs();
    shape("rows of blocks", p, [blocks.len()])?;
    shape("blocks in a row", p, blocks.iter().map(Vec::len))?;
    let sizes: Vec<Vec<u64>> = blocks
        .iter()
        .map(|row| row.iter().map(|b| b.len() as u64).collect())
        .collect();
    let sched = match strategy {
        Strategy::Flat => lower_alltoall(tree, &sizes),
        Strategy::Hierarchical => lower_alltoall_hier(tree, &sizes),
    };
    // A processor's block for itself never travels: it is the input's.
    let mut own: Vec<Vec<u32>> = (0..p).map(|j| std::mem::take(&mut blocks[j][j])).collect();
    let (outcome, states) = schedule::run_staged(exec, sched, Staging::Blocks(blocks), None)?;
    let received = (0..p)
        .map(|j| {
            let from = |i| match i == j {
                true => Ok(std::mem::take(&mut own[j])),
                false => {
                    let uid = block_unit(p, i, j, sizes[i][j] as usize);
                    schedule::result_at(&states, ProcId(j as u32), Some(uid))
                }
            };
            (0..p).map(from).collect()
        })
        .collect::<Result<_, CollectiveError>>()?;
    Ok(AllToAllRun {
        received,
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall;
    use crate::schedule::sim;
    use hbsp_core::TreeBuilder;

    fn blocks(p: usize) -> Vec<Vec<Vec<u32>>> {
        (0..p)
            .map(|i| {
                (0..p)
                    .map(|j| {
                        (0..(i + 1) * (j + 1))
                            .map(|x| (i * 100 + j * 10 + x) as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn total_exchange_is_a_transpose() {
        let t = TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.3)])
            .unwrap();
        let b = blocks(4);
        let run = alltoall::run(&sim(&t), b.clone(), Strategy::Flat).unwrap();
        for (j, row) in run.received.iter().enumerate() {
            for (i, block) in row.iter().enumerate() {
                assert_eq!(block, &b[i][j], "block {i}->{j}");
            }
        }
        assert_eq!(run.sim.messages_delivered, 12, "p(p-1) messages");
    }

    #[test]
    fn works_on_hierarchical_machines() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (10.0, vec![(2.0, 0.4)]),
            ],
        )
        .unwrap();
        let b = blocks(3);
        let run = alltoall::run(&sim(&t), b.clone(), Strategy::Flat).unwrap();
        assert_eq!(run.received[2][0], b[0][2]);
    }

    #[test]
    fn hierarchical_alltoall_transposes() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (2.0, 0.5)]),
                (10.0, vec![(2.0, 0.4), (2.5, 0.35)]),
            ],
        )
        .unwrap();
        let b = blocks(4);
        let run = alltoall::run(&sim(&t), b.clone(), Strategy::Hierarchical).unwrap();
        for (j, row) in run.received.iter().enumerate() {
            for (i, block) in row.iter().enumerate() {
                assert_eq!(block, &b[i][j], "block {i}->{j}");
            }
        }
    }

    #[test]
    fn hierarchical_alltoall_sends_fewer_top_level_messages() {
        let t = TreeBuilder::two_level(
            1.0,
            100.0,
            &[
                (10.0, vec![(1.0, 1.0), (1.5, 0.7), (1.5, 0.6)]),
                (10.0, vec![(2.0, 0.5), (2.0, 0.45), (2.5, 0.4)]),
            ],
        )
        .unwrap();
        let b = blocks(6);
        let flat = alltoall::run(&sim(&t), b.clone(), Strategy::Flat).unwrap();
        let hier = alltoall::run(&sim(&t), b, Strategy::Hierarchical).unwrap();
        let top = |run: &AllToAllRun| -> u64 {
            run.sim
                .steps
                .iter()
                .map(|s| s.traffic.get(2).map_or(0, |t| t.messages))
                .sum()
        };
        // Flat: 9 cross-cluster pairs in each direction = 18 messages.
        // Hierarchical: one bundle each way = 2.
        assert_eq!(top(&hier), 2, "one bundle per coordinator pair");
        assert!(
            top(&flat) > top(&hier) * 4,
            "{} vs {}",
            top(&flat),
            top(&hier)
        );
    }

    #[test]
    fn hierarchical_alltoall_on_flat_machine() {
        // k = 1: the whole machine is one cluster; stage 1 delivers
        // everything directly and stages 2-3 are no-ops.
        let t = TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)]).unwrap();
        let b = blocks(3);
        let run = alltoall::run(&sim(&t), b.clone(), Strategy::Hierarchical).unwrap();
        for (j, row) in run.received.iter().enumerate() {
            for (i, block) in row.iter().enumerate() {
                assert_eq!(block, &b[i][j]);
            }
        }
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let t = TreeBuilder::homogeneous(1.0, 0.0, 3).unwrap();
        let err = alltoall::run(&sim(&t), blocks(2), Strategy::Flat).unwrap_err();
        let (what, want, got) = ("rows of blocks", 3, 2);
        assert_eq!(err, CollectiveError::Shape { what, want, got });
    }
}
