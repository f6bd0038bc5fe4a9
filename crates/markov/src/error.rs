//! Error type shared by every solver in this crate.

use std::fmt;

/// Most `f64` entries one elimination may allocate: the band GTH
/// kernel (stationary and absorbing: MTTF, failure modes, DTMC
/// absorption) and dense LU check it before allocating. Every chain of
/// up to 2,048 states fits at any bandwidth (2,048 rows of 4,095 band
/// columns, 64 MiB); larger chains fit while their band is narrow
/// enough.
pub const MAX_ELIMINATION_ENTRIES: usize = 2048 * 4095;

/// [`MarkovError::ExceedsStorage`] unless `entries` fits
/// [`MAX_ELIMINATION_ENTRIES`].
pub(crate) fn check_storage(method: &'static str, entries: usize) -> Result<(), MarkovError> {
    if entries > MAX_ELIMINATION_ENTRIES {
        return Err(MarkovError::ExceedsStorage { method, entries });
    }
    Ok(())
}

/// Error returned by chain construction and by the numerical solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarkovError {
    /// The chain has no states.
    EmptyChain,
    /// A transition referenced a state id that does not exist.
    UnknownState {
        /// The offending state index.
        id: usize,
        /// Number of states in the chain.
        len: usize,
    },
    /// A transition rate was negative, NaN, or infinite.
    InvalidRate {
        /// Source state index of the offending transition.
        from: usize,
        /// Destination state index of the offending transition.
        to: usize,
        /// The offending rate.
        rate: f64,
    },
    /// A reward rate was negative, NaN, or infinite.
    InvalidReward {
        /// State index with the offending reward.
        state: usize,
        /// The offending reward.
        reward: f64,
    },
    /// A self-loop transition was supplied (diagonal entries are derived,
    /// never user-specified).
    SelfLoop {
        /// The offending state index.
        state: usize,
    },
    /// The chain is reducible: the stationary distribution is not unique
    /// (some state cannot reach, or be reached from, the rest).
    Reducible {
        /// A state in the unreachable/absorbing component, if identified.
        state: usize,
    },
    /// The linear system was singular to working precision.
    Singular,
    /// A probability was outside `[0, 1]` or a probability vector did not
    /// sum to 1.
    InvalidProbability {
        /// Human-readable description of what was invalid.
        what: String,
    },
    /// A requested analysis needs at least one state of a kind the chain
    /// does not have (for example MTTF with no absorbing states).
    MissingStates {
        /// Human-readable description of what is missing.
        what: String,
    },
    /// The power rung exhausted its iteration budget before
    /// reaching the convergence tolerance.
    NotConverged {
        /// Solver name, e.g. `"power"`.
        method: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual achieved at the last iterate.
        residual: f64,
        /// Convergence tolerance that was requested.
        tolerance: f64,
    },
    /// A solver exceeded its wall-clock budget before finishing.
    Timeout {
        /// Solver name, e.g. `"power"` or `"gth"`.
        method: &'static str,
        /// Iterations (or elimination steps) completed before the
        /// budget expired.
        iterations: usize,
        /// Wall-clock time spent, milliseconds.
        elapsed_ms: u64,
        /// The configured budget, milliseconds.
        budget_ms: u64,
    },
    /// The caller cancelled the solve mid-flight (explicitly or via a
    /// request deadline on its [`crate::ctmc::CancelToken`]). Unlike
    /// [`Timeout`](MarkovError::Timeout), this is not retryable: the
    /// fallback ladder aborts instead of trying the next rung.
    Cancelled {
        /// Solver name, e.g. `"gth"` or `"power"`.
        method: &'static str,
        /// Iterations (or elimination steps) completed before the
        /// cancellation was observed.
        iterations: usize,
    },
    /// An elimination would allocate more than
    /// [`MAX_ELIMINATION_ENTRIES`] `f64` entries, so it was refused
    /// before allocating. Retryable: the fallback ladder moves on to a
    /// rung whose storage fits (band GTH on a narrow-band chain). The
    /// absorbing solves (`"mttf"`, `"absorption"`) have no other rung,
    /// so for them it is final: the up states' band is too wide.
    ExceedsStorage {
        /// Solver name, e.g. `"lu"`, `"gth"` or `"mttf"`.
        method: &'static str,
        /// Entries the elimination would have allocated.
        entries: usize,
    },
    /// Every rung of the solver fallback ladder failed; carries the
    /// full attempt trail so diagnostics can show why *each* rung
    /// failed, not just the last (see `rascad-core`'s ladder).
    FallbackExhausted {
        /// One record per attempted rung, in attempt order.
        attempts: Vec<SolveAttempt>,
    },
    /// A partition offered for exact lumping violates the lumpability
    /// condition (members of a class disagree on rewards or on their
    /// aggregate rate into some other class).
    NotLumpable {
        /// Human-readable description of the violation.
        what: String,
    },
    /// An option passed to a solver was out of range.
    InvalidOption {
        /// Human-readable description of the bad option.
        what: String,
    },
    /// A matrix (or matrix/vector pair) had incompatible dimensions,
    /// e.g. a non-square generator passed to an elimination solver.
    DimensionMismatch {
        /// Human-readable description of the mismatched shapes.
        what: String,
    },
}

/// One failed rung of the solver fallback ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// Rung name: `"power"`, `"lu"`, or `"gth"`.
    pub method: &'static str,
    /// Iterations performed, when the rung iterates (or timed out
    /// mid-iteration); `None` for direct methods.
    pub iterations: Option<usize>,
    /// Residual at the point of failure, when the rung reports one.
    pub residual: Option<f64>,
    /// The rung's underlying error.
    pub error: Box<MarkovError>,
}

impl fmt::Display for SolveAttempt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.method)?;
        if let Some(i) = self.iterations {
            write!(f, " after {i} iterations")?;
        }
        if let Some(r) = self.residual {
            write!(f, " (residual {r:.3e})")?;
        }
        write!(f, ": {}", self.error)
    }
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::EmptyChain => write!(f, "chain has no states"),
            MarkovError::UnknownState { id, len } => {
                write!(f, "state id {id} out of range for chain with {len} states")
            }
            MarkovError::InvalidRate { from, to, rate } => {
                write!(f, "invalid rate {rate} on transition {from} -> {to}")
            }
            MarkovError::InvalidReward { state, reward } => {
                write!(f, "invalid reward {reward} on state {state}")
            }
            MarkovError::SelfLoop { state } => {
                write!(f, "self-loop transition on state {state}")
            }
            MarkovError::Reducible { state } => {
                write!(f, "chain is reducible (state {state} splits it)")
            }
            MarkovError::Singular => write!(f, "linear system is singular"),
            MarkovError::InvalidProbability { what } => {
                write!(f, "invalid probability: {what}")
            }
            MarkovError::MissingStates { what } => write!(f, "missing states: {what}"),
            MarkovError::NotConverged { method, iterations, residual, tolerance } => write!(
                f,
                "{method} iteration did not converge: residual {residual:.3e} after \
                 {iterations} iterations (tolerance {tolerance:.1e}; chain too stiff — use GTH)"
            ),
            MarkovError::Timeout { method, iterations, elapsed_ms, budget_ms } => write!(
                f,
                "{method} solve exceeded its wall-clock budget: {elapsed_ms} ms spent \
                 ({iterations} iterations) against a budget of {budget_ms} ms"
            ),
            MarkovError::Cancelled { method, iterations } => {
                write!(f, "{method} solve cancelled by the caller after {iterations} iterations")
            }
            MarkovError::ExceedsStorage { method, entries } => write!(
                f,
                "{method} elimination needs {entries} entries, over the storage bound of \
                 {MAX_ELIMINATION_ENTRIES}"
            ),
            MarkovError::FallbackExhausted { attempts } => {
                write!(f, "solver fallback ladder exhausted after {} rung(s)", attempts.len())?;
                for a in attempts {
                    write!(f, "; {a}")?;
                }
                Ok(())
            }
            MarkovError::NotLumpable { what } => {
                write!(f, "partition is not exactly lumpable: {what}")
            }
            MarkovError::InvalidOption { what } => write!(f, "invalid option: {what}"),
            MarkovError::DimensionMismatch { what } => {
                write!(f, "dimension mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            // The cause chain descends into the final rung's failure;
            // the Display above lists every earlier rung inline.
            MarkovError::FallbackExhausted { attempts } => {
                attempts.last().map(|a| a.error.as_ref() as _)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let cases = [
            MarkovError::EmptyChain,
            MarkovError::UnknownState { id: 3, len: 2 },
            MarkovError::InvalidRate { from: 0, to: 1, rate: -1.0 },
            MarkovError::InvalidReward { state: 0, reward: f64::NAN },
            MarkovError::SelfLoop { state: 1 },
            MarkovError::Reducible { state: 0 },
            MarkovError::Singular,
            MarkovError::InvalidProbability { what: "sum".into() },
            MarkovError::MissingStates { what: "absorbing".into() },
            MarkovError::NotConverged {
                method: "power",
                iterations: 100,
                residual: 1e-9,
                tolerance: 1e-14,
            },
            MarkovError::NotLumpable { what: "rewards differ".into() },
            MarkovError::InvalidOption { what: "epsilon".into() },
            MarkovError::DimensionMismatch { what: "3x2 generator".into() },
            MarkovError::Timeout { method: "power", iterations: 10, elapsed_ms: 31, budget_ms: 30 },
            MarkovError::Cancelled { method: "gth", iterations: 17 },
            MarkovError::ExceedsStorage { method: "lu", entries: 1 << 40 },
            MarkovError::FallbackExhausted {
                attempts: vec![SolveAttempt {
                    method: "gth",
                    iterations: None,
                    residual: None,
                    error: Box::new(MarkovError::Singular),
                }],
            },
        ];
        for c in cases {
            let s = c.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn not_converged_reports_residual_and_iterations() {
        let e = MarkovError::NotConverged {
            method: "power",
            iterations: 12345,
            residual: 2.5e-9,
            tolerance: 1e-14,
        };
        let s = e.to_string();
        assert!(s.contains("12345"), "{s}");
        assert!(s.contains("2.500e-9"), "{s}");
        assert!(s.contains("1.0e-14"), "{s}");
    }

    #[test]
    fn fallback_exhausted_lists_every_rung_and_chains_the_last() {
        use std::error::Error as _;
        let e = MarkovError::FallbackExhausted {
            attempts: vec![
                SolveAttempt {
                    method: "power",
                    iterations: Some(1_000),
                    residual: Some(3.2e-7),
                    error: Box::new(MarkovError::NotConverged {
                        method: "power",
                        iterations: 1_000,
                        residual: 3.2e-7,
                        tolerance: 1e-14,
                    }),
                },
                SolveAttempt {
                    method: "lu",
                    iterations: None,
                    residual: None,
                    error: Box::new(MarkovError::Singular),
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("2 rung(s)"), "{s}");
        assert!(s.contains("power after 1000 iterations"), "{s}");
        assert!(s.contains("3.200e-7"), "{s}");
        assert!(s.contains("lu: linear system is singular"), "{s}");
        // Cause chain descends into the final rung's error.
        assert_eq!(e.source().unwrap().to_string(), MarkovError::Singular.to_string());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MarkovError>();
    }
}
