//! Error type for RBD construction and evaluation.

use std::fmt;

/// Error returned by RBD construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RbdError {
    /// A component id was not found in the component table.
    UnknownComponent {
        /// The offending component id.
        id: usize,
        /// Size of the component table.
        len: usize,
    },
    /// A component availability/probability was outside `[0, 1]`.
    InvalidProbability {
        /// Description of the offending value.
        what: String,
    },
    /// A k-of-n node has `k` outside `1..=n`.
    InvalidKofN {
        /// Required number of working children.
        k: u32,
        /// Total number of children.
        n: usize,
    },
    /// A series/parallel/k-of-n node has no children.
    EmptyGate,
    /// Too many distinct repeated components for exact Shannon
    /// decomposition.
    TooManyRepeated {
        /// Number of repeated components found.
        count: usize,
        /// The supported maximum.
        max: usize,
    },
}

impl fmt::Display for RbdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbdError::UnknownComponent { id, len } => {
                write!(f, "component id {id} out of range for table of {len}")
            }
            RbdError::InvalidProbability { what } => write!(f, "invalid probability: {what}"),
            RbdError::InvalidKofN { k, n } => write!(f, "invalid k-of-n: k={k}, n={n}"),
            RbdError::EmptyGate => write!(f, "gate has no children"),
            RbdError::TooManyRepeated { count, max } => {
                write!(f, "{count} repeated components exceed the exact-evaluation limit {max}")
            }
        }
    }
}

impl std::error::Error for RbdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let cases = [
            RbdError::UnknownComponent { id: 1, len: 0 },
            RbdError::InvalidProbability { what: "x".into() },
            RbdError::InvalidKofN { k: 3, n: 2 },
            RbdError::EmptyGate,
            RbdError::TooManyRepeated { count: 40, max: 24 },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
