#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-serve — the scenario-request daemon
//!
//! A long-running service that turns the batch simulator into an
//! amortized one. Clients stream [`spam_scenario::ScenarioSpec`]s as
//! JSONL (stdin or a unix socket); the daemon executes them through a
//! **content-addressed artifact cache** keyed on the spec's
//! topology + fault prefix ([`spam_scenario::spec_fingerprint`]), so a
//! parameter sweep that varies traffic, seeds, routing, or engine knobs
//! over a fixed fabric pays the expensive environment construction —
//! topology generation, up*/down* labeling, fault degradation, storm
//! epoch chains, routing tables — once, not per request. The
//! `serve_cache_differential` suite pins the contract that makes this
//! safe: warm results are byte-identical (same
//! [`spam_scenario::outcome_digest`]) to cold ones.
//!
//! The pieces:
//!
//! * [`ArtifactCache`] — fingerprint-keyed store with LRU + byte-budget
//!   eviction and hit/miss/eviction counters surfaced in every response.
//!   It lives in memory for the daemon's lifetime; request latency and
//!   per-layer cost are measured by the `perfbench` benchmark at the
//!   repository root.
//! * [`ServeCore`] — the single-threaded state machine: bounded work
//!   queue with typed backpressure ([`ServeError::QueueFull`] is a
//!   response, not a panic), per-client monotonic result cursors with
//!   ack-trimmed replay for reconnect/resume.
//! * [`protocol`] — the JSONL request/response codec; every malformed
//!   input maps to a [`ServeError`] variant (pinned one-per-variant by
//!   the error-table suite).
//! * [`Daemon`] — the threaded transport: worker + per-connection
//!   readers, all writes serialized under the state lock.
//!
//! ```
//! use spam_serve::{ServeConfig, ServeCore, Session};
//!
//! let mut core = ServeCore::new(ServeConfig::default());
//! let mut session = Session::new();
//! core.handle_line(&mut session, r#"{"op":"hello","client":"doc"}"#);
//! let mut spec = spam_scenario::ScenarioSpec::example("doc-serve");
//! spec.topology.switches = 16;
//! spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
//! let line = format!(r#"{{"op":"run","spec":{}}}"#, spec.to_json().to_string_compact());
//! core.handle_line(&mut session, &line);
//! let out = core.step().unwrap();
//! assert!(out.lines[0].contains(r#""artifact":"miss""#));
//! // Same prefix again: the environment comes from the cache.
//! core.handle_line(&mut session, &line);
//! assert!(core.step().unwrap().lines[0].contains(r#""artifact":"hit""#));
//! ```

pub mod cache;
pub mod core;
pub mod daemon;
pub mod error;
pub mod protocol;

pub use crate::core::{ServeConfig, ServeCore, Session, StepOutput};
pub use cache::{ArtifactCache, CacheConfig, CacheStats};
pub use daemon::Daemon;
pub use error::ServeError;
