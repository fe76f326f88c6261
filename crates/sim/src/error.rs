//! Simulation errors.

use hbsp_core::{ProcId, SyncScope};
use std::fmt;

/// Errors raised while executing a program on the simulator (or the
/// threaded runtime, which shares the same SPMD discipline).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Processors disagreed on the superstep's closing barrier scope.
    /// SPMD programs must request the same scope everywhere.
    ScopeMismatch {
        step: usize,
        a: SyncScope,
        b: SyncScope,
    },
    /// Some processors returned `Done` while others continued — SPMD
    /// programs must terminate together.
    TerminationMismatch { step: usize },
    /// A message crossed a cluster boundary in a superstep that ends
    /// with a cluster-local barrier; its delivery time would be
    /// undefined. Use a higher-level sync for cross-cluster traffic.
    CrossClusterSend {
        step: usize,
        src: ProcId,
        dst: ProcId,
        scope: SyncScope,
    },
    /// A destination rank outside `0..nprocs`.
    NoSuchProc { step: usize, dst: ProcId },
    /// The program exceeded the engine's superstep budget (runaway
    /// loop guard).
    StepLimit { limit: usize },
    /// A processor's superstep body panicked (threaded runtime only —
    /// the simulator lets panics propagate to the caller directly), or
    /// broke `send_with`'s promised length (`hbsp_core::FillLength`),
    /// which both engines report this way.
    ProgramPanicked { pid: ProcId, step: usize },
    /// A processor's body returned `StepOutcome::Abort`: the program
    /// refused its input (see `SpmdProgram::preflight`, which names the
    /// same defect before a run when checking is on).
    ProgramAborted {
        pid: ProcId,
        step: usize,
        reason: &'static str,
    },
    /// One or more processors never arrived at superstep `step`'s
    /// barrier before the watchdog deadline (a scripted stall, a hung
    /// body, or a `step_deadline` overrun). `missing` names the
    /// absent pids, sorted by rank.
    BarrierTimeout { missing: Vec<ProcId>, step: usize },
    /// One or more processors died at the start of superstep `step`
    /// (scripted via [`crate::FaultPlan`]): their bodies never ran and
    /// they will never contribute again. `pids` is sorted by rank.
    /// Recoverable by degrading the machine to the survivors.
    ProcCrashed { pids: Vec<ProcId>, step: usize },
    /// The leader section itself panicked while closing superstep
    /// `step` (threaded runtime only). The step is aborted and drained
    /// rather than wedging peers at the barrier.
    LeaderPanicked { step: usize },
    /// Graceful degradation was requested but the surviving machine is
    /// not a valid HBSP^k tree (e.g. a cluster lost all of its leaves).
    DegradeFailed { message: String },
    /// Microcost configuration failed validation.
    InvalidConfig,
    /// The fault plan names `pid`, but the machine has only `nprocs`
    /// processors; rejected before the first superstep.
    NoSuchFaultTarget { pid: ProcId, nprocs: usize },
    /// The program's static pre-flight check rejected it before any
    /// superstep ran (see `SpmdProgram::preflight`; toggled with the
    /// engines' `.check(bool)` builders).
    Preflight { message: String },
    /// The threaded runtime could not start a processor thread (the
    /// operating system refused the spawn); no superstep ran.
    Spawn { message: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScopeMismatch { step, a, b } => {
                write!(
                    f,
                    "superstep {step}: processors disagree on sync scope ({a:?} vs {b:?})"
                )
            }
            SimError::TerminationMismatch { step } => {
                write!(
                    f,
                    "superstep {step}: some processors finished while others continued"
                )
            }
            SimError::CrossClusterSend {
                step,
                src,
                dst,
                scope,
            } => write!(
                f,
                "superstep {step}: {src} -> {dst} crosses a cluster boundary under {scope:?}"
            ),
            SimError::NoSuchProc { step, dst } => {
                write!(f, "superstep {step}: no such processor {dst}")
            }
            SimError::StepLimit { limit } => {
                write!(f, "program exceeded the {limit}-superstep budget")
            }
            SimError::ProgramPanicked { pid, step } => {
                write!(f, "processor {pid} panicked during superstep {step}")
            }
            SimError::ProgramAborted { pid, step, reason } => {
                write!(f, "processor {pid} aborted superstep {step}: {reason}")
            }
            SimError::BarrierTimeout { missing, step } => {
                write!(f, "superstep {step}: barrier timed out waiting for ")?;
                fmt_pids(f, missing)
            }
            SimError::ProcCrashed { pids, step } => {
                write!(f, "superstep {step}: ")?;
                fmt_pids(f, pids)?;
                write!(f, " crashed")
            }
            SimError::LeaderPanicked { step } => {
                write!(f, "leader section panicked while closing superstep {step}")
            }
            SimError::DegradeFailed { message } => {
                write!(f, "cannot degrade machine: {message}")
            }
            SimError::InvalidConfig => write!(f, "invalid network configuration"),
            SimError::NoSuchFaultTarget { pid, nprocs } => write!(
                f,
                "fault plan names {pid}, but the machine has {nprocs} processors"
            ),
            SimError::Preflight { message } => {
                write!(f, "program rejected before execution: {message}")
            }
            SimError::Spawn { message } => {
                write!(f, "cannot start a processor thread: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

fn fmt_pids(f: &mut fmt::Formatter<'_>, pids: &[ProcId]) -> fmt::Result {
    for (i, pid) in pids.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{pid}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_step() {
        let e = SimError::CrossClusterSend {
            step: 3,
            src: ProcId(1),
            dst: ProcId(5),
            scope: SyncScope::Level(1),
        };
        let s = e.to_string();
        assert!(
            s.contains("superstep 3") && s.contains("P1") && s.contains("P5"),
            "{s}"
        );
    }

    #[test]
    fn fault_errors_name_every_absent_pid() {
        let e = SimError::BarrierTimeout {
            missing: vec![ProcId(2), ProcId(5)],
            step: 4,
        };
        let s = e.to_string();
        assert!(s.contains("superstep 4") && s.contains("P2, P5"), "{s}");

        let e = SimError::ProcCrashed {
            pids: vec![ProcId(1)],
            step: 0,
        };
        assert!(e.to_string().contains("P1 crashed"), "{e}");

        let e = SimError::DegradeFailed {
            message: "cluster `lan0` lost all of its processors".into(),
        };
        assert!(e.to_string().contains("lan0"), "{e}");
    }
}
