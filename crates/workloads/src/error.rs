//! Error types for workload construction.

use std::error::Error;
use std::fmt;

/// Errors produced when building or calibrating workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The requested sparsity statistics are mutually inconsistent (e.g. a
    /// spike density that cannot be reached given the silent fraction and
    /// timestep count).
    InfeasibleProfile {
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// More timesteps than a packed spike word holds.
    TooManyTimesteps {
        /// Requested timestep count.
        timesteps: usize,
        /// The packed-word limit ([`loas_sparse::MAX_TIMESTEPS`]).
        max: usize,
    },
    /// A fraction parameter was outside `[0, 1]`.
    FractionOutOfRange {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InfeasibleProfile { reason } => {
                write!(f, "infeasible sparsity profile: {reason}")
            }
            WorkloadError::TooManyTimesteps { timesteps, max } => {
                write!(
                    f,
                    "workload t = {timesteps} is above the packed-word limit of {max}"
                )
            }
            WorkloadError::FractionOutOfRange { name, value } => {
                write!(f, "`{name}` must be a fraction in [0, 1], got {value}")
            }
        }
    }
}

impl Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameter() {
        let e = WorkloadError::FractionOutOfRange {
            name: "silent",
            value: 1.5,
        };
        assert!(e.to_string().contains("silent"));
    }
}
