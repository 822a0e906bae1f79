//! Typed errors for the public solver boundaries.
//!
//! Historically every precondition violation in `tcqr-core` was an
//! `assert!`/`panic!`. That is fine for internal invariants, but user input
//! (shapes, configurations, fault campaigns) reaches the same sites, and a
//! fault-injection campaign must be able to report "the retry budget ran
//! out" without tearing the process down. Each public solver now has a
//! `try_*` variant returning `Result<_, TcqrError>`; the original panicking
//! entry points remain as thin wrappers whose panic message is the error's
//! [`Display`](std::fmt::Display) form, so existing callers (and
//! `#[should_panic]` tests) see exactly the messages they always did.

use std::fmt;

/// Error type of the `try_*` solver entry points.
#[derive(Clone, Debug, PartialEq)]
pub enum TcqrError {
    /// Input shapes or configuration violate a documented precondition.
    ShapeMismatch {
        /// The public entry point that rejected the input.
        op: &'static str,
        /// Human-readable description (the former panic message).
        detail: String,
    },
    /// A solver output carried NaN/Inf where the contract requires finite
    /// values and no recovery path was available.
    NonFinite {
        /// The public entry point that produced the output.
        op: &'static str,
        /// Human-readable description.
        detail: String,
    },
    /// A factorization hit a zero pivot: an LU pivot, or an exactly-zero
    /// diagonal entry of the R factor a least-squares solver would divide by.
    Singular {
        /// The public entry point that failed.
        op: &'static str,
        /// Human-readable description.
        detail: String,
    },
    /// An armed fault campaign corrupted the computation and the policy
    /// forbade retrying (`max_retries == 0` with
    /// [`OnExhausted::Error`](crate::recovery::OnExhausted::Error)).
    FaultDetected {
        /// The public entry point whose computation was corrupted.
        op: &'static str,
        /// Human-readable description.
        detail: String,
    },
    /// The recovery ladder retried [`attempts`](Self::RetryBudgetExhausted)
    /// times and every attempt came back corrupted.
    RetryBudgetExhausted {
        /// The public entry point that exhausted its retries.
        op: &'static str,
        /// Total attempts made (initial try plus retries).
        attempts: usize,
        /// Human-readable description.
        detail: String,
    },
    /// The engine executing the job died (an availability fault, see
    /// `tensor_engine::avail`) and no healthy engine remained to take the
    /// job over — the fleet-level analogue of a data fault the recovery
    /// ladder could not repair.
    EngineLost {
        /// The public entry point whose job was stranded.
        op: &'static str,
        /// Pool index of the last engine that held the job.
        engine: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl TcqrError {
    /// Shorthand for a [`TcqrError::ShapeMismatch`].
    pub fn shape(op: &'static str, detail: impl Into<String>) -> TcqrError {
        TcqrError::ShapeMismatch {
            op,
            detail: detail.into(),
        }
    }

    /// The least-squares shape contract: `a` is `m x n` with `m >= n` and
    /// the right-hand side has length `m`.
    pub(crate) fn check_lls_shape(
        op: &'static str,
        m: usize,
        n: usize,
        rhs_len: usize,
    ) -> Result<(), TcqrError> {
        if m < n || rhs_len != m {
            return Err(TcqrError::shape(
                op,
                format!("shape mismatch (a is {m} x {n}, rhs length {rhs_len})"),
            ));
        }
        Ok(())
    }

    /// The public entry point the error originated from.
    pub fn op(&self) -> &'static str {
        match self {
            TcqrError::ShapeMismatch { op, .. }
            | TcqrError::NonFinite { op, .. }
            | TcqrError::Singular { op, .. }
            | TcqrError::FaultDetected { op, .. }
            | TcqrError::RetryBudgetExhausted { op, .. }
            | TcqrError::EngineLost { op, .. } => op,
        }
    }
}

impl fmt::Display for TcqrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The "{op}: {detail}" shape reproduces the historical panic
        // messages byte-for-byte — the panicking wrappers rely on this.
        match self {
            TcqrError::ShapeMismatch { op, detail }
            | TcqrError::NonFinite { op, detail }
            | TcqrError::Singular { op, detail }
            | TcqrError::FaultDetected { op, detail } => write!(f, "{op}: {detail}"),
            TcqrError::RetryBudgetExhausted {
                op,
                attempts,
                detail,
            } => write!(f, "{op}: retry budget exhausted after {attempts} attempts ({detail})"),
            TcqrError::EngineLost { op, engine, detail } => {
                write!(f, "{op}: engine {engine} lost ({detail})")
            }
        }
    }
}

impl std::error::Error for TcqrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reproduces_panic_message_shape() {
        let e = TcqrError::shape("rgsqrf", "need m >= n >= 1 (got 10 x 20)");
        assert_eq!(e.to_string(), "rgsqrf: need m >= n >= 1 (got 10 x 20)");
        assert_eq!(e.op(), "rgsqrf");

        let e = TcqrError::RetryBudgetExhausted {
            op: "rgsqrf_scaled",
            attempts: 3,
            detail: "last attempt still corrupted".into(),
        };
        let s = e.to_string();
        assert!(s.contains("retry budget exhausted"), "{s}");
        assert!(s.contains("3 attempts"), "{s}");
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = TcqrError::shape("lls", "rhs length");
        let b = a.clone();
        assert_eq!(a, b);
        let c = TcqrError::NonFinite {
            op: "lls",
            detail: "rhs length".into(),
        };
        assert_ne!(a, c);
    }
}
