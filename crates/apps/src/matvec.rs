//! Dense matrix–vector multiply `y = A·x` on a heterogeneous cluster.
//!
//! The matrix is distributed by `c_j`-proportional *block rows* (faster
//! machines own more rows — the paper's second design rule applied to
//! a compute-bound kernel); the vector is broadcast; each processor
//! computes its row block locally (charged `rows × m` flops); the
//! result is gathered at `P_f`.

use hbsp_collectives::data::partition_for;
use hbsp_collectives::plan::WorkloadPolicy;
use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope};
use hbsp_sim::{SimError, SimOutcome};
use hbsplib::{codec, Executor};
use std::sync::Arc;

const TAG_ROWS: u32 = 0x4D01;
const TAG_X: u32 = 0x4D02;
const TAG_Y: u32 = 0x4D03;

/// A dense row-major matrix plus the input vector, held by the root.
pub struct MatVec {
    /// Row-major `n × m` matrix.
    a: Arc<Vec<f64>>,
    /// The `m`-vector.
    x: Arc<Vec<f64>>,
    n: usize,
    m: usize,
    workload: WorkloadPolicy,
}

impl MatVec {
    /// Multiply the `n × m` matrix `a` (row-major) by `x`.
    pub fn new(
        a: Arc<Vec<f64>>,
        x: Arc<Vec<f64>>,
        n: usize,
        m: usize,
        workload: WorkloadPolicy,
    ) -> Self {
        assert_eq!(a.len(), n * m, "matrix shape mismatch");
        assert_eq!(x.len(), m, "vector length mismatch");
        MatVec {
            a,
            x,
            n,
            m,
            workload,
        }
    }
}

/// Per-processor state: the owned rows, the vector, and (at the root)
/// the assembled result.
#[derive(Debug, Default, Clone)]
pub struct MatVecState {
    rows: Vec<f64>,
    row_offset: usize,
    x: Vec<f64>,
    /// `y`, assembled at the root after the final gather.
    pub y: Vec<f64>,
}

impl SpmdProgram for MatVec {
    type State = MatVecState;

    fn init(&self, _env: &ProcEnv) -> MatVecState {
        MatVecState::default()
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut MatVecState,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        let root = env.tree.fastest_proc();
        match step {
            // Scatter row blocks and the vector together.
            0 => {
                if env.pid == root {
                    let part = partition_for(&env.tree, self.n as u64, self.workload);
                    for j in 0..env.nprocs {
                        let q = ProcId(j as u32);
                        let range = part.range(q);
                        let rows =
                            &self.a[range.start as usize * self.m..range.end as usize * self.m];
                        if q == root {
                            state.rows = rows.to_vec();
                            state.row_offset = range.start as usize;
                            state.x = self.x.as_ref().clone();
                        } else {
                            let mut payload = Vec::with_capacity(rows.len() + 1);
                            payload.push(range.start as f64);
                            payload.extend_from_slice(rows);
                            ctx.send(q, TAG_ROWS, &codec::encode_f64s(&payload));
                            ctx.send(q, TAG_X, &codec::encode_f64s(&self.x));
                        }
                    }
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Local multiply, then send the partial y to the root.
            1 => {
                for m in ctx.messages() {
                    match m.tag {
                        TAG_ROWS => {
                            let payload = codec::decode_f64s(m.payload);
                            state.row_offset = payload[0] as usize;
                            state.rows = payload[1..].to_vec();
                        }
                        TAG_X => state.x = codec::decode_f64s(m.payload),
                        _ => {}
                    }
                }
                let rows = state.rows.len() / self.m.max(1);
                ctx.charge((rows * self.m) as f64 * 2.0); // mul+add per entry
                let mut y_part = Vec::with_capacity(rows + 1);
                y_part.push(state.row_offset as f64);
                for r in 0..rows {
                    let row = &state.rows[r * self.m..(r + 1) * self.m];
                    y_part.push(row.iter().zip(&state.x).map(|(a, b)| a * b).sum());
                }
                if env.pid == root {
                    state.y = vec![0.0; self.n];
                    let off = y_part[0] as usize;
                    state.y[off..off + y_part.len() - 1].copy_from_slice(&y_part[1..]);
                } else {
                    ctx.send(root, TAG_Y, &codec::encode_f64s(&y_part));
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Root assembles y.
            _ => {
                if env.pid == root {
                    for m in ctx.messages() {
                        if m.tag == TAG_Y {
                            let payload = codec::decode_f64s(m.payload);
                            let off = payload[0] as usize;
                            state.y[off..off + payload.len() - 1].copy_from_slice(&payload[1..]);
                        }
                    }
                }
                StepOutcome::Done
            }
        }
    }
}

/// Outcome of a matrix–vector multiply run.
#[derive(Debug, Clone)]
pub struct MatVecRun {
    /// The product `y = A·x`.
    pub y: Vec<f64>,
    /// Model execution time.
    pub time: f64,
    /// Full virtual-time outcome.
    pub sim: SimOutcome,
}

/// Multiply the row-major `n × m` matrix `a` by `x` on `exec`'s machine
/// and engine.
pub fn run(
    exec: &Executor,
    a: &[f64],
    x: &[f64],
    n: usize,
    m: usize,
    workload: WorkloadPolicy,
) -> Result<MatVecRun, SimError> {
    let prog = MatVec::new(Arc::new(a.to_vec()), Arc::new(x.to_vec()), n, m, workload);
    let (outcome, mut states) = exec.run(&prog)?;
    let root = exec.tree().fastest_proc();
    Ok(MatVecRun {
        y: std::mem::take(&mut states[root.rank()].y),
        time: outcome.total_time(),
        sim: outcome.sim,
    })
}

/// Binary-heap k-way merge of sorted `u32` runs (shared with the
/// sample sort).
pub fn kway_merge_u32(runs: Vec<Vec<u32>>) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| Reverse((r[0], i, 0)))
        .collect();
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse((v, run, pos))) = heap.pop() {
        out.push(v);
        if pos + 1 < runs[run].len() {
            heap.push(Reverse((runs[run][pos + 1], run, pos + 1)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matvec, sim};
    use hbsp_core::{MachineTree, TreeBuilder};

    fn machine() -> MachineTree {
        TreeBuilder::flat(1.0, 200.0, &[(1.0, 1.0), (2.0, 0.5), (3.0, 0.3)]).unwrap()
    }

    fn reference(a: &[f64], x: &[f64], n: usize, m: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                a[i * m..(i + 1) * m]
                    .iter()
                    .zip(x)
                    .map(|(p, q)| p * q)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn matches_sequential_multiply() {
        let (n, m) = (37, 23);
        let a: Vec<f64> = (0..n * m).map(|i| (i % 17) as f64 - 8.0).collect();
        let x: Vec<f64> = (0..m).map(|i| 0.5 + i as f64).collect();
        let want = reference(&a, &x, n, m);
        let t = machine();
        for wl in [
            WorkloadPolicy::Equal,
            WorkloadPolicy::Balanced,
            WorkloadPolicy::CommAware,
        ] {
            let run = matvec::run(&sim(&t), &a, &x, n, m, wl).unwrap();
            for (got, expect) in run.y.iter().zip(&want) {
                assert!((got - expect).abs() < 1e-9, "{wl:?}");
            }
        }
    }

    #[test]
    fn tiny_shapes() {
        let t = machine();
        // 1×1, 1×m, n×1, and fewer rows than processors.
        for (n, m) in [(1usize, 1usize), (1, 7), (7, 1), (2, 3)] {
            let a: Vec<f64> = (0..n * m).map(|i| i as f64).collect();
            let x: Vec<f64> = (0..m).map(|i| (i + 1) as f64).collect();
            let run = matvec::run(&sim(&t), &a, &x, n, m, WorkloadPolicy::Balanced).unwrap();
            assert_eq!(run.y, reference(&a, &x, n, m), "{n}x{m}");
        }
    }

    #[test]
    fn balanced_rows_beat_equal_rows() {
        let t = machine();
        let (n, m) = (600, 200);
        let a = vec![1.0; n * m];
        let x = vec![1.0; m];
        let eq = matvec::run(&sim(&t), &a, &x, n, m, WorkloadPolicy::Equal)
            .unwrap()
            .time;
        let bal = matvec::run(&sim(&t), &a, &x, n, m, WorkloadPolicy::Balanced)
            .unwrap()
            .time;
        assert!(bal < eq, "balanced {bal} vs equal {eq}");
    }

    #[test]
    fn kway_merge_merges() {
        let merged = kway_merge_u32(vec![vec![1, 4, 7], vec![], vec![2, 3, 9], vec![5]]);
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 7, 9]);
        assert!(kway_merge_u32(vec![]).is_empty());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        MatVec::new(
            Arc::new(vec![0.0; 5]),
            Arc::new(vec![0.0; 2]),
            2,
            2,
            WorkloadPolicy::Equal,
        );
    }
}
