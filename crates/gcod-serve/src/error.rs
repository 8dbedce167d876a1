//! Error type of the serving front-end.

use gcod_nn::NnError;
use gcod_platform::PlatformError;
use std::fmt;

/// Why the server refused to run a request, carried by
/// [`ServeError::Rejected`].
///
/// A rejection is a *scheduling* outcome, not an execution failure: the
/// request itself was well-formed, but the server declined to run it (or to
/// keep running it) for capacity or lifecycle reasons. Load-harness and
/// retry code should match on this enum instead of parsing error strings —
/// the variants spell out the correct reaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bounded submission queue is at capacity — backpressure. Retry
    /// later, submit with [`SubmitOptions::blocking`], or raise
    /// `queue_capacity`.
    ///
    /// [`SubmitOptions::blocking`]: crate::SubmitOptions::blocking
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The request's deadline passed before the server got to execute it.
    /// Retrying is only useful with a fresh deadline.
    DeadlineExpired,
    /// Admission control: given the current queue depth and the observed
    /// per-request service time, this request's deadline would expire while
    /// it waited, so the server sheds it at submission instead of doing the
    /// work and throwing the answer away. Back off before retrying.
    Overloaded,
    /// The server is shutting down and accepts no further submissions
    /// (already-accepted work is still drained and completed). Do not retry.
    ShuttingDown,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => write!(
                f,
                "submission queue full (capacity {capacity}); retry later or submit blocking"
            ),
            RejectReason::DeadlineExpired => {
                write!(f, "request deadline expired before execution")
            }
            RejectReason::Overloaded => write!(
                f,
                "server overloaded: the deadline would expire before the queue drains"
            ),
            RejectReason::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

/// Errors the serving layer reports to clients.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The server refused to run the request; the [`RejectReason`] says why
    /// and what a sensible client does next.
    Rejected(RejectReason),
    /// The request named a model the server does not own.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
        /// Every model the server currently serves.
        known: Vec<String>,
    },
    /// The request named a backend platform outside the server's suite.
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
    },
    /// No backend in the suite could take the request (e.g. a split-aware
    /// accelerator was requested for a model served without a GCoD split).
    NoEligibleBackend {
        /// The model the request targeted.
        model: String,
    },
    /// The ticket's work was abandoned without a result (the dispatcher
    /// terminated abnormally). Should not happen in correct operation.
    Canceled,
    /// A model-execution error (shape mismatches, bad node indices).
    Nn(NnError),
    /// A platform-simulation error from the backend router.
    Platform(PlatformError),
    /// A sharded-serving failure: shard planning, the wire protocol, or a
    /// worker process/thread.
    Shard(gcod_shard::ShardError),
}

impl ServeError {
    /// The rejection reason when this error is a scheduling rejection.
    #[must_use]
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            ServeError::Rejected(reason) => Some(*reason),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(reason) => write!(f, "rejected: {reason}"),
            ServeError::UnknownModel { name, known } => write!(
                f,
                "unknown served model `{name}`; server owns: {}",
                known.join(", ")
            ),
            ServeError::UnknownBackend { name } => {
                write!(f, "unknown backend platform `{name}`")
            }
            ServeError::NoEligibleBackend { model } => {
                write!(f, "no eligible backend for model `{model}`")
            }
            ServeError::Canceled => write!(f, "request canceled without a result"),
            ServeError::Nn(e) => write!(f, "model error: {e}"),
            ServeError::Platform(e) => write!(f, "platform error: {e}"),
            ServeError::Shard(e) => write!(f, "sharded serving error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Nn(e) => Some(e),
            ServeError::Platform(e) => Some(e),
            ServeError::Shard(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<PlatformError> for ServeError {
    fn from(e: PlatformError) -> Self {
        ServeError::Platform(e)
    }
}

impl From<gcod_shard::ShardError> for ServeError {
    fn from(e: gcod_shard::ShardError) -> Self {
        ServeError::Shard(e)
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_carry_context() {
        let err = ServeError::Rejected(RejectReason::QueueFull { capacity: 8 });
        assert!(err.to_string().contains('8'));
        let err = ServeError::UnknownModel {
            name: "nope".into(),
            known: vec!["cora-gcn".into()],
        };
        let text = err.to_string();
        assert!(text.contains("nope") && text.contains("cora-gcn"));
    }

    #[test]
    fn reject_reasons_are_matchable_and_convert() {
        let err = ServeError::Rejected(RejectReason::Overloaded);
        assert_eq!(err.reject_reason(), Some(RejectReason::Overloaded));
        assert!(ServeError::Canceled.reject_reason().is_none());
        for reason in [
            RejectReason::QueueFull { capacity: 2 },
            RejectReason::DeadlineExpired,
            RejectReason::Overloaded,
            RejectReason::ShuttingDown,
        ] {
            let text = ServeError::Rejected(reason).to_string();
            assert!(text.starts_with("rejected: "), "{text}");
        }
    }

    #[test]
    fn sources_chain_for_wrapped_errors() {
        let err = ServeError::from(NnError::ShapeMismatch {
            context: "bad".into(),
        });
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&ServeError::Canceled).is_none());
    }
}
