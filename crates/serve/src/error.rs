//! Typed daemon failures.
//!
//! Every way a request stream can go wrong — malformed JSONL, an unknown
//! operation, a full work queue, a stale resume cursor, a poisoned cache
//! artifact — maps to exactly one [`ServeError`] variant, serialized back
//! to the client as a typed error line. Client input never panics the
//! daemon; the exhaustive `serve_error_table` integration test pins one
//! concrete trigger per variant, or names the test that does where the
//! request path cannot reach it.

use spam_scenario::SpecError;
use std::fmt;

/// Everything that can go wrong handling a scenario-service request.
#[derive(Debug)]
pub enum ServeError {
    /// The line was not valid JSON, not an object, a field had the wrong
    /// shape, or the operation was used out of sequence (e.g. `run`
    /// before `hello`).
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The `op` field named no known operation.
    UnknownOp {
        /// The operation name the client sent.
        got: String,
    },
    /// A required request field was absent.
    MissingField {
        /// Dotted path of the missing field (e.g. `hello.client`).
        field: &'static str,
    },
    /// The embedded scenario failed structural decoding or semantic
    /// validation ([`SpecError`] carries the detail).
    Spec(SpecError),
    /// The work queue is at capacity. This is backpressure, not failure:
    /// the request consumed no cursor and can be retried verbatim once
    /// results drain.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// A resume or ack cursor outside the retained window — either ahead
    /// of everything ever produced or behind the oldest retained result.
    UnknownCursor {
        /// The cursor the client asked for.
        requested: u64,
        /// Oldest cursor still retained (replay can start at `oldest`).
        oldest: u64,
        /// The cursor the next result will take.
        next: u64,
    },
    /// A resident cache entry's prefix differs from the request's under
    /// an equal fingerprint — a 64-bit collision on the hit path. The
    /// request fails typed instead of running on the wrong artifacts.
    CachePoisoned {
        /// What failed to verify.
        detail: String,
    },
    /// The daemon's worker could not be joined cleanly: its state lock
    /// was poisoned or it exited without draining.
    Io {
        /// The OS error text.
        detail: String,
    },
}

impl ServeError {
    /// Stable machine-readable variant tag — the `error` field of the
    /// wire-format error line, pinned by the error-table suite.
    pub fn variant_name(&self) -> &'static str {
        match self {
            ServeError::Protocol { .. } => "Protocol",
            ServeError::UnknownOp { .. } => "UnknownOp",
            ServeError::MissingField { .. } => "MissingField",
            ServeError::Spec(_) => "Spec",
            ServeError::QueueFull { .. } => "QueueFull",
            ServeError::UnknownCursor { .. } => "UnknownCursor",
            ServeError::CachePoisoned { .. } => "CachePoisoned",
            ServeError::Io { .. } => "Io",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ServeError::UnknownOp { got } => write!(f, "unknown op {got:?}"),
            ServeError::MissingField { field } => write!(f, "missing required field {field}"),
            ServeError::Spec(e) => write!(f, "scenario rejected: {e}"),
            ServeError::QueueFull { capacity } => {
                write!(
                    f,
                    "work queue full ({capacity} pending); retry after results drain"
                )
            }
            ServeError::UnknownCursor {
                requested,
                oldest,
                next,
            } => write!(
                f,
                "cursor {requested} outside retained window [{oldest}, {next})"
            ),
            ServeError::CachePoisoned { detail } => write!(f, "cache poisoned: {detail}"),
            ServeError::Io { detail } => write!(f, "i/o failure: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_every_variant() {
        let errs = [
            ServeError::Protocol { detail: "x".into() },
            ServeError::UnknownOp { got: "y".into() },
            ServeError::MissingField { field: "op" },
            ServeError::QueueFull { capacity: 4 },
            ServeError::UnknownCursor {
                requested: 9,
                oldest: 2,
                next: 5,
            },
            ServeError::CachePoisoned {
                detail: "fingerprint collision".into(),
            },
            ServeError::Io {
                detail: "gone".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            assert!(!e.variant_name().is_empty());
        }
    }
}
