//! # hbsp-apps — heterogeneous applications on the HBSP^k stack
//!
//! The paper's conclusion calls for "designing HBSP^k applications that
//! can take advantage of our efficient heterogeneous communication
//! algorithms". This crate does exactly that: complete SPMD
//! applications written against `hbsplib` and the collectives, runnable
//! on either engine, with the model's two design rules applied
//! throughout (fastest machines coordinate; workloads follow `c_j`).
//! Each module has the program type and a `run` that executes it on an
//! [`hbsplib::Executor`] — `sort::run(&Executor::simulator(tree), ..)`,
//! or `Executor::threads(tree)` for one OS thread per processor — and
//! reads the answer out of the final states:
//!
//! * [`sort`] — heterogeneous parallel sample sort: balanced scatter,
//!   local sort, splitter selection at `P_f`, bucket exchange, local
//!   merge — ends with a globally sorted distributed array;
//! * [`matvec`] — dense matrix–vector multiply: `c_j`-proportional
//!   block-row distribution, all-gather of the vector, local compute,
//!   gather of the result;
//! * [`stencil`] — iterative 1-D Jacobi relaxation with halo exchange:
//!   the repeated-superstep pattern, with heterogeneous domain
//!   decomposition.

#![forbid(unsafe_code)]

pub mod matvec;
pub mod sort;
pub mod stencil;

pub use matvec::MatVecRun;
pub use sort::SampleSortRun;
pub use stencil::{reference_jacobi, StencilRun};

/// Copy a `[offset, values…]` payload of `f64`s into `out[offset..]`,
/// read where it lies: how matvec and the stencil gather their blocks.
///
/// # Panics
/// Panics if the block overruns `out`.
fn place(out: &mut [f64], payload: &[u8]) {
    let mut values = hbsplib::codec::read_f64s(payload);
    if let Some(offset) = values.next() {
        let offset = offset as usize;
        for (slot, v) in out[offset..offset + values.len()].iter_mut().zip(values) {
            *slot = v;
        }
    }
}

/// A program's pre-flight: the refusal its own input check gives, if
/// any, as the one finding. The program's first step returns the same
/// refusal as `StepOutcome::Abort` when it runs unchecked.
fn preflight(refusal: Option<&'static str>) -> Result<(), hbsp_core::PreflightError> {
    refusal.map_or(Ok(()), |reason| {
        Err(hbsp_core::PreflightError {
            violations: vec![reason.to_string()],
        })
    })
}

/// The simulator on a copy of `tree`: what the modules' tests run on.
#[cfg(test)]
fn sim(tree: &hbsp_core::MachineTree) -> hbsplib::Executor {
    hbsplib::Executor::simulator(std::sync::Arc::new(tree.clone()))
}
