//! The error type shared by every collective entry point.

use crate::data::DecodeError;
use crate::plan::RankOutOfRange;
use hbsp_core::{ModelError, ProcId};
use hbsp_sim::SimError;
use std::fmt;

/// Why a collective run could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveError {
    /// The engine rejected the program (SPMD violation, step limit, …).
    Sim(SimError),
    /// The machine to run on does not build.
    Machine(ModelError),
    /// The plan named a root rank the machine does not have.
    Root(RankOutOfRange),
    /// The input has `got` of `what` where the collective needs `want`
    /// (one vector or row of blocks per processor, vectors of one length).
    Shape {
        /// What was counted.
        what: &'static str,
        /// The count the collective needs.
        want: usize,
        /// The count the input has.
        got: usize,
    },
    /// A processor received a malformed payload.
    Decode {
        /// The processor that failed to decode.
        pid: ProcId,
        /// What was wrong with the payload.
        error: DecodeError,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Sim(e) => write!(f, "engine error: {e}"),
            CollectiveError::Machine(e) => write!(f, "machine error: {e}"),
            CollectiveError::Root(e) => write!(f, "{e}"),
            CollectiveError::Shape { what, want, got } => {
                write!(f, "input has {got} {what}, the collective needs {want}")
            }
            CollectiveError::Decode { pid, error } => {
                write!(f, "processor {pid} received a malformed payload: {error}")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// `Ok` if every count of `what` in `counts` is `want`, else the first
/// that is not, as [`CollectiveError::Shape`].
pub(crate) fn shape(
    what: &'static str,
    want: usize,
    counts: impl IntoIterator<Item = usize>,
) -> Result<(), CollectiveError> {
    let got = counts.into_iter().find(|&got| got != want);
    got.map_or(Ok(()), |got| {
        Err(CollectiveError::Shape { what, want, got })
    })
}

impl From<SimError> for CollectiveError {
    fn from(e: SimError) -> Self {
        CollectiveError::Sim(e)
    }
}

impl From<ModelError> for CollectiveError {
    fn from(e: ModelError) -> Self {
        CollectiveError::Machine(e)
    }
}

impl From<RankOutOfRange> for CollectiveError {
    fn from(e: RankOutOfRange) -> Self {
        CollectiveError::Root(e)
    }
}
