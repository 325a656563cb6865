//! The JSONL wire protocol.
//!
//! One JSON object per line in each direction. Requests carry an `op`
//! tag (`hello`, `run`, `ack`, `stats`, `shutdown`); responses carry a
//! `type` tag. Result and run-error lines are the *cursor stream*: they
//! carry a per-client monotonic cursor and are retained server-side for
//! replay until acked, so they contain only deterministic fields (no
//! wall-clock timing — latency is the client's to measure) and an
//! interrupted-then-resumed stream concatenates byte-identically to an
//! uninterrupted one. Everything else (`queued`, `acked`, `stats`,
//! immediate errors) is transient connection chatter and is never
//! replayed.

use crate::cache::CacheStats;
use crate::error::ServeError;
use spam_scenario::json::{parse, Json, Num};
use spam_scenario::ScenarioSpec;
use wormsim::SimOutcome;

/// A decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Attach (or re-attach) as `client`, replaying retained results
    /// after cursor `resume_from` (0 = from the beginning).
    Hello {
        /// Logical client identity — cursor state is keyed on this, not
        /// on the connection.
        client: String,
        /// Last cursor the client acknowledges having durably received.
        resume_from: u64,
    },
    /// Enqueue a scenario; each replication streams one result line.
    Run {
        /// The decoded scenario document.
        spec: Box<ScenarioSpec>,
    },
    /// Trim the retained backlog through `cursor`.
    Ack {
        /// Highest cursor the client has durably received.
        cursor: u64,
    },
    /// Report queue/cache/client occupancy.
    Stats,
    /// Stop accepting work, drain the queue onto the cursor stream, and
    /// exit.
    Shutdown,
}

fn obj_fields<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], ServeError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err(ServeError::Protocol {
            detail: format!("{what} must be a JSON object"),
        }),
    }
}

fn str_field(v: &Json, what: &str) -> Result<String, ServeError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| ServeError::Protocol {
            detail: format!("{what} must be a string"),
        })
}

fn u64_field(v: &Json, what: &str) -> Result<u64, ServeError> {
    v.as_num()
        .and_then(|n| n.as_u64())
        .ok_or_else(|| ServeError::Protocol {
            detail: format!("{what} must be a non-negative integer"),
        })
}

/// Parses one request line. Every malformed shape is a typed error —
/// this function cannot panic on any input (fuzzed by the error-table
/// suite).
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc = parse(line).map_err(|e| ServeError::Protocol {
        detail: format!("bad JSONL: {e}"),
    })?;
    let fields = obj_fields(&doc, "request")?;
    let op = fields
        .iter()
        .find(|(k, _)| k == "op")
        .map(|(_, v)| v)
        .ok_or(ServeError::MissingField { field: "op" })?;
    let op = op.as_str().ok_or_else(|| ServeError::Protocol {
        detail: "op must be a string".into(),
    })?;
    match op {
        "hello" => {
            let client = doc
                .get("client")
                .ok_or(ServeError::MissingField {
                    field: "hello.client",
                })
                .and_then(|v| str_field(v, "hello.client"))?;
            let resume_from = match doc.get("resume_from") {
                Some(v) => u64_field(v, "hello.resume_from")?,
                None => 0,
            };
            Ok(Request::Hello {
                client,
                resume_from,
            })
        }
        "run" => {
            let spec = doc
                .get("spec")
                .ok_or(ServeError::MissingField { field: "run.spec" })?;
            let spec = ScenarioSpec::from_value(spec)?;
            Ok(Request::Run {
                spec: Box::new(spec),
            })
        }
        "ack" => {
            let cursor = doc
                .get("cursor")
                .ok_or(ServeError::MissingField {
                    field: "ack.cursor",
                })
                .and_then(|v| u64_field(v, "ack.cursor"))?;
            Ok(Request::Ack { cursor })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::UnknownOp {
            got: other.to_string(),
        }),
    }
}

fn u(v: u64) -> Json {
    Json::Num(Num::U(v))
}

fn uz(v: usize) -> Json {
    Json::Num(Num::U(v as u64))
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn cache_obj(st: &CacheStats) -> Json {
    obj(vec![
        ("hits", u(st.hits)),
        ("misses", u(st.misses)),
        ("evictions", u(st.evictions)),
        ("entries", uz(st.entries)),
        ("bytes", uz(st.bytes)),
    ])
}

/// The `hello` acknowledgement. `replayed` lines follow immediately on
/// the same connection.
pub fn hello_line(client: &str, next_cursor: u64, replayed: usize) -> String {
    obj(vec![
        ("type", s("hello")),
        ("client", s(client)),
        ("next_cursor", u(next_cursor)),
        ("replayed", uz(replayed)),
    ])
    .to_string_compact()
}

/// Transient acceptance of a `run` request (not part of the cursor
/// stream — a reconnect re-learns progress from result lines).
pub fn queued_line(scenario: &str, reps: u32) -> String {
    obj(vec![
        ("type", s("queued")),
        ("scenario", s(scenario)),
        ("reps", u(reps as u64)),
    ])
    .to_string_compact()
}

/// Transient acknowledgement of an `ack` (backlog trimmed through
/// `cursor`).
pub fn acked_line(cursor: u64, retained: usize) -> String {
    obj(vec![
        ("type", s("acked")),
        ("cursor", u(cursor)),
        ("retained", uz(retained)),
    ])
    .to_string_compact()
}

/// Identity of one completed replication: which scenario, which rep,
/// whether its environment came from the artifact cache, and its
/// [`spam_scenario::outcome_digest`].
#[derive(Debug, Clone)]
pub struct ResultMeta<'a> {
    /// Scenario name from the spec.
    pub scenario: &'a str,
    /// Zero-based replication index.
    pub rep: u32,
    /// Total replications in the request.
    pub reps: u32,
    /// Whether the environment was served from the artifact cache.
    pub artifact_hit: bool,
    /// The outcome digest for this replication.
    pub digest: u64,
}

/// One completed replication on the cursor stream. Only deterministic
/// fields: the digest is [`spam_scenario::outcome_digest`], `artifact`
/// says whether the environment came from the cache, and the embedded
/// counters snapshot the cache as of this result.
pub fn result_line(cursor: u64, meta: &ResultMeta, out: &SimOutcome, cache: &CacheStats) -> String {
    obj(vec![
        ("type", s("result")),
        ("cursor", u(cursor)),
        ("scenario", s(meta.scenario)),
        ("rep", u(meta.rep as u64)),
        ("reps", u(meta.reps as u64)),
        (
            "artifact",
            s(if meta.artifact_hit { "hit" } else { "miss" }),
        ),
        ("digest", s(&format!("{:#018x}", meta.digest))),
        ("end_time_ns", u(out.end_time.as_ns())),
        ("quiescent", Json::Bool(out.quiescent)),
        ("messages", uz(out.messages.len())),
        ("delivered", u(out.counters.messages_completed)),
        ("torn_down", u(out.counters.messages_torn_down)),
        ("unreachable", u(out.counters.messages_unreachable)),
        ("events", u(out.counters.events)),
        ("cache", cache_obj(cache)),
    ])
    .to_string_compact()
}

/// A per-replication failure on the cursor stream (e.g. the sampled
/// fault pattern left no surviving component — a deterministic property
/// of the spec). Cursored — a resumed client sees it again, exactly
/// like a result. `variant` is `SpecError::variant_name` for spec
/// faults or [`ServeError::variant_name`] for server-side ones.
pub fn cursored_error_line(
    cursor: u64,
    scenario: &str,
    rep: u32,
    variant: &str,
    detail: &str,
) -> String {
    obj(vec![
        ("type", s("error")),
        ("cursor", u(cursor)),
        ("scenario", s(scenario)),
        ("rep", u(rep as u64)),
        ("error", s(variant)),
        ("detail", s(detail)),
    ])
    .to_string_compact()
}

/// An immediate (uncursored) error response to the offending request.
/// Variant-specific fields ride along so clients can react in a typed
/// way: `QueueFull` carries the capacity, `UnknownCursor` the retained
/// window.
pub fn error_line(err: &ServeError) -> String {
    let mut fields = vec![
        ("type", s("error")),
        ("error", s(err.variant_name())),
        ("detail", s(&err.to_string())),
    ];
    match err {
        ServeError::QueueFull { capacity } => {
            fields.push(("capacity", uz(*capacity)));
            fields.push(("retry", Json::Bool(true)));
        }
        ServeError::UnknownCursor {
            requested,
            oldest,
            next,
        } => {
            fields.push(("requested", u(*requested)));
            fields.push(("oldest", u(*oldest)));
            fields.push(("next", u(*next)));
        }
        _ => {}
    }
    obj(fields).to_string_compact()
}

/// Occupancy report.
pub fn stats_line(
    cache: &CacheStats,
    queue_depth: usize,
    queue_capacity: usize,
    clients: usize,
    draining: bool,
) -> String {
    obj(vec![
        ("type", s("stats")),
        ("queue_depth", uz(queue_depth)),
        ("queue_capacity", uz(queue_capacity)),
        ("clients", uz(clients)),
        ("draining", Json::Bool(draining)),
        ("cache", cache_obj(cache)),
    ])
    .to_string_compact()
}

/// Acknowledges `shutdown`: `pending` jobs will still drain onto the
/// cursor stream before the daemon exits.
pub fn shutdown_line(pending: usize) -> String {
    obj(vec![("type", s("shutdown")), ("pending", uz(pending))]).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_misparse_typed() {
        assert!(matches!(
            parse_request(r#"{"op":"hello","client":"c1","resume_from":4}"#),
            Ok(Request::Hello { ref client, resume_from: 4 }) if client == "c1"
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        let cases = [
            ("not json at all", "Protocol"),
            ("[1,2,3]", "Protocol"),
            (r#"{"client":"x"}"#, "MissingField"),
            (r#"{"op":"hello"}"#, "MissingField"),
            (r#"{"op":"hello","client":7}"#, "Protocol"),
            (r#"{"op":"frobnicate"}"#, "UnknownOp"),
            (r#"{"op":"run"}"#, "MissingField"),
            (r#"{"op":"run","spec":{"name":"x"}}"#, "Spec"),
            (r#"{"op":"ack"}"#, "MissingField"),
            (r#"{"op":"ack","cursor":-3}"#, "Protocol"),
        ];
        for (line, variant) in cases {
            let err = parse_request(line).map(|_| ()).unwrap_err();
            assert_eq!(err.variant_name(), variant, "line: {line}");
        }
    }

    #[test]
    fn lines_are_single_line_json() {
        let lines = [
            hello_line("c", 5, 2),
            queued_line("sc", 3),
            acked_line(4, 1),
            error_line(&ServeError::QueueFull { capacity: 8 }),
            stats_line(&CacheStats::default(), 0, 8, 1, false),
            shutdown_line(0),
        ];
        for l in lines {
            assert!(!l.contains('\n'), "JSONL framing: {l}");
            let doc = parse(&l).unwrap();
            assert!(doc.get("type").is_some());
        }
    }

    #[test]
    fn queue_full_line_carries_typed_backpressure() {
        let l = error_line(&ServeError::QueueFull { capacity: 2 });
        let doc = parse(&l).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("QueueFull"));
        assert_eq!(doc.get("retry").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("capacity").and_then(|v| v.as_num()?.as_u64()),
            Some(2)
        );
    }
}
