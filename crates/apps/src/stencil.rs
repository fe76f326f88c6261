//! Iterative 1-D Jacobi stencil (heat diffusion) with halo exchange —
//! the classic repeated-superstep SPMD pattern, here with
//! `c_j`-proportional domain decomposition so slow machines own
//! smaller subdomains.
//!
//! Each iteration is one superstep: exchange boundary cells with the
//! left/right neighbours, then relax `u[i] ← (u[i−1] + u[i+1]) / 2`
//! over the interior (charged one work unit per cell). Fixed boundary
//! conditions; after enough iterations the solution approaches the
//! linear steady state.

use hbsp_collectives::data::partition_for;
use hbsp_collectives::plan::WorkloadPolicy;
use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope};
use hbsp_sim::{SimError, SimOutcome};
use hbsplib::{codec, Executor};
use std::sync::Arc;

const TAG_HALO_LEFT: u32 = 0x4801; // carries my leftmost cell, to my left neighbour
const TAG_HALO_RIGHT: u32 = 0x4802; // carries my rightmost cell, to my right neighbour
const TAG_RESULT: u32 = 0x4803;

/// The stencil program.
pub struct Stencil {
    /// Initial global field (including the two fixed boundary cells).
    field: Arc<Vec<f64>>,
    iterations: usize,
    workload: WorkloadPolicy,
}

impl Stencil {
    /// Relax `field` for `iterations` sweeps, decomposing by
    /// `workload`. The first and last cells are fixed boundaries.
    pub fn new(field: Arc<Vec<f64>>, iterations: usize, workload: WorkloadPolicy) -> Self {
        assert!(field.len() >= 2, "need at least the two boundary cells");
        Stencil {
            field,
            iterations,
            workload,
        }
    }
}

/// Per-processor state: the owned slice plus halo cells.
#[derive(Debug, Default, Clone)]
pub struct StencilState {
    /// Owned interior cells.
    pub cells: Vec<f64>,
    /// Global index of `cells[0]` (1-based within the field, since
    /// index 0 is the left boundary).
    pub offset: usize,
    left_halo: f64,
    right_halo: f64,
    /// The *data* neighbours: owners of the adjacent interior cells
    /// (`None` when the adjacent cell is a fixed boundary). With
    /// heterogeneous shares a rank can own zero cells, so the data
    /// neighbour is not necessarily rank ± 1.
    left_neighbor: Option<ProcId>,
    right_neighbor: Option<ProcId>,
    /// The assembled final field (root only).
    pub result: Vec<f64>,
}

impl SpmdProgram for Stencil {
    type State = StencilState;

    fn init(&self, env: &ProcEnv) -> StencilState {
        // Everyone derives its own slice from the shared initial field —
        // deterministic, no scatter needed (mirrors applications whose
        // input is generated in place).
        let interior = (self.field.len() - 2) as u64;
        let part = partition_for(&env.tree, interior, self.workload);
        let range = part.range(env.pid);
        let offset = 1 + range.start as usize;
        let cells = self.field[offset..offset + (range.end - range.start) as usize].to_vec();
        let left_halo = self.field[offset - 1];
        let right_halo = self.field[offset + cells.len()];
        // Owners of the adjacent interior cells; every processor
        // evaluates the same deterministic partition, so both sides
        // agree on who exchanges with whom.
        let (left_neighbor, right_neighbor) = if cells.is_empty() {
            (None, None)
        } else {
            let left = if range.start > 0 {
                part.owner(range.start - 1)
            } else {
                None
            };
            let right = part.owner(range.end);
            (left, right)
        };
        StencilState {
            cells,
            offset,
            left_halo,
            right_halo,
            left_neighbor,
            right_neighbor,
            result: Vec::new(),
        }
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut StencilState,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step < self.iterations {
            // Absorb halos from the previous exchange.
            for m in ctx.messages() {
                let Some(v) = codec::read_f64s(m.payload).next() else {
                    continue;
                };
                match m.tag {
                    // The right neighbour sent its leftmost cell.
                    TAG_HALO_LEFT => state.right_halo = v,
                    // The left neighbour sent its rightmost cell.
                    TAG_HALO_RIGHT => state.left_halo = v,
                    _ => {}
                }
            }
            // Relax.
            if !state.cells.is_empty() {
                ctx.charge(state.cells.len() as f64);
                // In place: `left` carries the old value of cell i − 1.
                let n = state.cells.len();
                let mut left = state.left_halo;
                for i in 0..n {
                    let right = if i + 1 == n {
                        state.right_halo
                    } else {
                        state.cells[i + 1]
                    };
                    left = std::mem::replace(&mut state.cells[i], 0.5 * (left + right));
                }
            }
            // Exchange halos for the next sweep, with the *data*
            // neighbours (owners of the adjacent cells). Boundary-facing
            // sides keep their fixed halo.
            if let Some(left) = state.left_neighbor {
                let first = &state.cells[..1];
                ctx.send_with(&[left], TAG_HALO_LEFT, 8, &mut |w| w.f64s(first));
            }
            if let Some(right) = state.right_neighbor {
                // A rank with a data neighbour owns at least one cell.
                let last = state.cells.len().saturating_sub(1);
                let tail = &state.cells[last..];
                ctx.send_with(&[right], TAG_HALO_RIGHT, 8 * tail.len(), &mut |w| {
                    w.f64s(tail)
                });
            }
            return StepOutcome::Continue(SyncScope::global(&env.tree));
        }
        if step == self.iterations {
            // Gather the field at the fastest processor.
            let root = env.tree.fastest_proc();
            if env.pid != root {
                let cells = &state.cells;
                ctx.send_with(&[root], TAG_RESULT, 8 * (1 + cells.len()), &mut |w| {
                    w.f64s(&[state.offset as f64]);
                    w.f64s(cells);
                });
            }
            return StepOutcome::Continue(SyncScope::global(&env.tree));
        }
        // Final: root assembles.
        let root = env.tree.fastest_proc();
        if env.pid == root {
            let mut field = self.field.as_ref().clone();
            field[state.offset..state.offset + state.cells.len()].copy_from_slice(&state.cells);
            for m in ctx.messages() {
                if m.tag == TAG_RESULT {
                    crate::place(&mut field, m.payload);
                }
            }
            state.result = field;
        }
        StepOutcome::Done
    }
}

/// Outcome of a stencil run.
#[derive(Debug, Clone)]
pub struct StencilRun {
    /// The relaxed field (boundaries included).
    pub field: Vec<f64>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Relax `field` for `iterations` Jacobi sweeps on `exec`'s machine and
/// engine.
pub fn run(
    exec: &Executor,
    field: &[f64],
    iterations: usize,
    workload: WorkloadPolicy,
) -> Result<StencilRun, SimError> {
    let prog = Stencil::new(Arc::new(field.to_vec()), iterations, workload);
    let (outcome, mut states) = exec.run(&prog)?;
    let root = exec.tree().fastest_proc();
    Ok(StencilRun {
        field: std::mem::take(&mut states[root.rank()].result),
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

/// Sequential reference Jacobi.
pub fn reference_jacobi(field: &[f64], iterations: usize) -> Vec<f64> {
    let mut u = field.to_vec();
    let n = u.len();
    for _ in 0..iterations {
        let old = u.clone();
        for i in 1..n - 1 {
            u[i] = 0.5 * (old[i - 1] + old[i + 1]);
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sim, stencil};
    use hbsp_core::{MachineTree, TreeBuilder};

    fn machine() -> MachineTree {
        TreeBuilder::flat(1.0, 50.0, &[(1.0, 1.0), (1.5, 0.7), (2.5, 0.4), (3.0, 0.3)]).unwrap()
    }

    fn hot_rod(n: usize) -> Vec<f64> {
        // Left boundary hot, right cold, interior zero.
        let mut f = vec![0.0; n];
        f[0] = 100.0;
        f
    }

    #[test]
    fn matches_sequential_jacobi_exactly() {
        let t = machine();
        let field = hot_rod(64);
        for iters in [0usize, 1, 2, 7, 30] {
            let want = reference_jacobi(&field, iters);
            for wl in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
                let run = stencil::run(&sim(&t), &field, iters, wl).unwrap();
                for (a, b) in run.field.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-12, "iters={iters} {wl:?}");
                }
            }
        }
    }

    #[test]
    fn converges_toward_linear_steady_state() {
        let t = machine();
        let field = hot_rod(34);
        let run = stencil::run(&sim(&t), &field, 4000, WorkloadPolicy::Balanced).unwrap();
        // Steady state of u'' = 0 with u(0)=100, u(n-1)=0 is linear.
        let n = run.field.len();
        for (i, v) in run.field.iter().enumerate() {
            let expect = 100.0 * (1.0 - i as f64 / (n - 1) as f64);
            assert!((v - expect).abs() < 1.0, "cell {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn more_iterations_cost_more_time() {
        let t = machine();
        let field = hot_rod(1000);
        let t10 = stencil::run(&sim(&t), &field, 10, WorkloadPolicy::Balanced)
            .unwrap()
            .time;
        let t50 = stencil::run(&sim(&t), &field, 50, WorkloadPolicy::Balanced)
            .unwrap()
            .time;
        assert!(t50 > t10 * 3.0);
    }

    #[test]
    fn empty_middle_owner_still_correct() {
        // Speeds force the middle processor to own zero cells for tiny
        // fields — its neighbours must exchange with each other, not
        // with rank ± 1.
        let t = TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (5.0, 0.05), (1.0, 1.0)]).unwrap();
        let field = hot_rod(4); // 2 interior cells
        let want = reference_jacobi(&field, 12);
        let run = stencil::run(&sim(&t), &field, 12, WorkloadPolicy::Balanced).unwrap();
        for (a, b) in run.field.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{:?} vs {:?}", run.field, want);
        }
    }

    #[test]
    fn tiny_field_fewer_cells_than_procs() {
        let t = machine();
        let field = hot_rod(4); // 2 interior cells over 4 procs
        let want = reference_jacobi(&field, 5);
        let run = stencil::run(&sim(&t), &field, 5, WorkloadPolicy::Equal).unwrap();
        for (a, b) in run.field.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
