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
use std::ops::Range;
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

/// Per-processor state: the root's own block of rows and, at the root,
/// the assembled result. The other ranks hold nothing: they multiply
/// straight from the root's message.
#[derive(Debug, Default, Clone)]
pub struct MatVecState {
    own: Range<usize>,
    /// `y`, assembled at the root after the final gather.
    pub y: Vec<f64>,
}

/// `row · x`, summed in row order.
fn dot(row: impl Iterator<Item = f64>, x: impl Iterator<Item = f64>) -> f64 {
    row.zip(x).map(|(a, b)| a * b).sum()
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
            // Scatter row blocks and the vector together, written from
            // `a` and `x` once each.
            0 => {
                if env.pid == root {
                    let part = partition_for(&env.tree, self.n as u64, self.workload);
                    for j in 0..env.nprocs {
                        let q = ProcId(j as u32);
                        let range = part.range(q);
                        let (lo, hi) = (range.start as usize, range.end as usize);
                        if q == root {
                            state.own = lo..hi;
                        } else {
                            let rows = &self.a[lo * self.m..hi * self.m];
                            ctx.send_with(q, TAG_ROWS, 8 * (1 + rows.len()), &mut |w| {
                                w.f64s(&[lo as f64]);
                                w.f64s(rows);
                            });
                            ctx.send_with(q, TAG_X, 8 * self.m, &mut |w| w.f64s(&self.x));
                        }
                    }
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Local multiply, then send the partial y to the root.
            1 => {
                if env.pid == root {
                    let own = state.own.clone();
                    ctx.charge((own.len() * self.m) as f64 * 2.0); // mul+add per entry
                    state.y = vec![0.0; self.n];
                    let rows = self.a[own.start * self.m..own.end * self.m].chunks(self.m.max(1));
                    for (y, row) in state.y[own].iter_mut().zip(rows) {
                        *y = dot(row.iter().copied(), self.x.iter().copied());
                    }
                } else {
                    // `[offset, y…]`, each row multiplied where it lies
                    // in the root's message.
                    let (mut rows, mut x): (&[u8], &[u8]) = (&[], &[]);
                    for m in ctx.messages() {
                        match m.tag {
                            TAG_ROWS => rows = m.payload,
                            TAG_X => x = m.payload,
                            _ => {}
                        }
                    }
                    let (head, rows) = rows.split_at(rows.len().min(8));
                    let mut y_part = vec![codec::read_f64s(head).next().unwrap_or(0.0)];
                    y_part.extend(
                        (rows.chunks_exact(8 * self.m.max(1)))
                            .map(|row| dot(codec::read_f64s(row), codec::read_f64s(x))),
                    );
                    ctx.charge(((y_part.len() - 1) * self.m) as f64 * 2.0);
                    ctx.send_with(root, TAG_Y, 8 * y_part.len(), &mut |w| w.f64s(&y_part));
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
            // Root assembles y.
            _ => {
                if env.pid == root {
                    for m in ctx.messages() {
                        if m.tag == TAG_Y {
                            crate::place(&mut state.y, m.payload);
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
