//! Typed errors for machine construction and validation.

use crate::ids::{Level, MachineId};
use std::fmt;

/// Errors produced while building, parsing, or validating an HBSP^k
/// machine description.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A cluster node was declared with no children; clusters must contain
    /// at least one machine (a childless node is a processor, not a
    /// cluster).
    EmptyCluster { id: MachineId },
    /// A relative communication slowness `r < 1`. The fastest machine is
    /// normalized to `r = 1`, so every `r` must be at least 1.
    InvalidR { id: MachineId, r: f64 },
    /// No machine in the tree has `r = 1`; the model requires the fastest
    /// machine to be normalized to exactly 1.
    NoUnitR { min_r: f64 },
    /// A processor whose absolute per-word cost `r·g` is not finite:
    /// `r` and `g` are each in range, but their product overflows and has
    /// no meaning in the model.
    WordCostOverflow { id: MachineId, r: f64, g: f64 },
    /// A negative synchronization cost `L`.
    InvalidL { id: MachineId, l: f64 },
    /// A compute speed outside `(0, 1]` (1 = fastest machine).
    InvalidSpeed { id: MachineId, speed: f64 },
    /// A problem fraction `c` outside `[0, 1]`.
    InvalidFraction { id: MachineId, c: f64 },
    /// The fractions of the children of a cluster do not sum to (within
    /// tolerance) the fraction of the cluster itself.
    FractionSum {
        id: MachineId,
        sum: f64,
        expected: f64,
    },
    /// The global bandwidth indicator `g` must be positive.
    InvalidG { g: f64 },
    /// A `M_{i,j}` coordinate that does not exist in this tree.
    NoSuchMachine { id: MachineId },
    /// A level that exceeds the height `k` of the machine.
    NoSuchLevel { level: Level, height: Level },
    /// Parse error in the topology DSL.
    Parse {
        line: u32,
        col: u32,
        message: String,
    },
    /// A tree must have at least one processor.
    EmptyMachine,
    /// A machine file declared `k = N` but the tree has another height.
    HeightMismatch { declared: Level, actual: Level },
    /// Requested a partition over zero machines or with zero total speed.
    DegeneratePartition { reason: &'static str },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyCluster { id } => {
                write!(f, "cluster {id} has no children")
            }
            ModelError::InvalidR { id, r } => {
                write!(
                    f,
                    "machine {id} has r = {r}, but r must be >= 1 (fastest machine = 1)"
                )
            }
            ModelError::NoUnitR { min_r } => {
                write!(
                    f,
                    "no machine has r = 1 (minimum r found: {min_r}); \
                     normalize so the fastest machine has r = 1"
                )
            }
            ModelError::WordCostOverflow { id, r, g } => {
                write!(
                    f,
                    "machine {id} has r = {r:e}, and its per-word cost r·g with g = {g:e} is not finite"
                )
            }
            ModelError::InvalidL { id, l } => {
                write!(f, "machine {id} has negative synchronization cost L = {l}")
            }
            ModelError::InvalidSpeed { id, speed } => {
                write!(
                    f,
                    "machine {id} has compute speed {speed}, expected within (0, 1]"
                )
            }
            ModelError::InvalidFraction { id, c } => {
                write!(
                    f,
                    "machine {id} has problem fraction c = {c}, expected within [0, 1]"
                )
            }
            ModelError::FractionSum { id, sum, expected } => {
                write!(
                    f,
                    "children of {id} have fractions summing to {sum}, expected {expected}"
                )
            }
            ModelError::InvalidG { g } => write!(f, "bandwidth indicator g = {g} must be > 0"),
            ModelError::NoSuchMachine { id } => write!(f, "no machine {id} in this tree"),
            ModelError::NoSuchLevel { level, height } => {
                write!(f, "level {level} exceeds machine height k = {height}")
            }
            ModelError::Parse { line, col, message } => {
                write!(f, "topology parse error at {line}:{col}: {message}")
            }
            ModelError::EmptyMachine => write!(f, "machine tree has no processors"),
            ModelError::HeightMismatch { declared, actual } => {
                write!(
                    f,
                    "file declares k = {declared} but the machine tree has height {actual}"
                )
            }
            ModelError::DegeneratePartition { reason } => {
                write!(f, "degenerate partition request: {reason}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_offending_machine() {
        let e = ModelError::InvalidR {
            id: MachineId::new(0, 2),
            r: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("M_{0,2}"), "got: {s}");
        assert!(s.contains("0.5"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ModelError::EmptyMachine);
    }

    #[test]
    fn parse_error_reports_position() {
        let e = ModelError::Parse {
            line: 3,
            col: 14,
            message: "expected `{`".into(),
        };
        assert_eq!(e.to_string(), "topology parse error at 3:14: expected `{`");
    }
}
