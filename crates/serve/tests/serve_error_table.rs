//! The error table: one concrete trigger per [`ServeError`] variant,
//! exercised through the public request path. The match below is
//! exhaustive on purpose — adding a variant without extending this
//! table is a compile error, and every trigger must come back as a
//! typed JSONL error line (never a panic, never a dropped connection).
//! The two variants no request can reach say where they are pinned.

use spam_scenario::json::{parse, Json};
use spam_scenario::ScenarioSpec;
use spam_serve::{ServeConfig, ServeCore, ServeError, Session};

fn spec(name: &str) -> ScenarioSpec {
    let mut s = ScenarioSpec::example(name);
    s.topology.switches = 16;
    s.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
    s
}

fn run_line(s: &ScenarioSpec) -> String {
    format!(
        r#"{{"op":"run","spec":{}}}"#,
        s.to_json().to_string_compact()
    )
}

/// Sends `line` to a greeted core and returns the typed error variant
/// from the response.
fn error_variant_of(core: &mut ServeCore, session: &mut Session, line: &str) -> String {
    let resp = core.handle_line(session, line);
    assert_eq!(resp.len(), 1, "errors are single lines: {resp:?}");
    let doc = parse(&resp[0]).expect("error lines are valid JSON");
    assert_eq!(doc.get("type").and_then(Json::as_str), Some("error"));
    assert!(
        doc.get("detail").and_then(Json::as_str).is_some(),
        "error lines carry a human-readable detail"
    );
    doc.get("error")
        .and_then(Json::as_str)
        .expect("error lines carry the variant tag")
        .to_string()
}

#[test]
fn every_variant_has_a_concrete_trigger() {
    // Exhaustiveness guard: extending ServeError forces a new row here.
    let probe = ServeError::Protocol {
        detail: String::new(),
    };
    match probe {
        ServeError::Protocol { .. }
        | ServeError::UnknownOp { .. }
        | ServeError::MissingField { .. }
        | ServeError::Spec(_)
        | ServeError::QueueFull { .. }
        | ServeError::UnknownCursor { .. } => {}
        // Pinned by the cache unit test
        // `fingerprint_collision_is_poisoned_not_wrong_artifacts`.
        ServeError::CachePoisoned { .. } => {}
        // Only `Daemon::join` returns it (see below).
        ServeError::Io { .. } => {}
    }

    let mut core = ServeCore::new(ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut session = Session::new();

    // Protocol: not JSON at all (plus: run before hello, below).
    assert_eq!(
        error_variant_of(&mut core, &mut session, "}{ definitely not json"),
        "Protocol"
    );
    // Protocol: JSON but not an object.
    assert_eq!(
        error_variant_of(&mut core, &mut session, "[1,2,3]"),
        "Protocol"
    );
    // Protocol: op exists but a field has the wrong type.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"hello","client":42}"#),
        "Protocol"
    );
    // Protocol: run without a hello (no client identity, no cursors).
    assert_eq!(
        error_variant_of(&mut core, &mut session, &run_line(&spec("early"))),
        "Protocol"
    );

    // MissingField: no op at all.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"client":"c1"}"#),
        "MissingField"
    );
    // UnknownOp.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"frobnicate"}"#),
        "UnknownOp"
    );

    // UnknownCursor: a fresh client cannot resume from the future.
    assert_eq!(
        error_variant_of(
            &mut core,
            &mut session,
            r#"{"op":"hello","client":"c1","resume_from":9}"#
        ),
        "UnknownCursor"
    );

    // Greet properly; the remaining rows need an identity.
    let hello = core.handle_line(&mut session, r#"{"op":"hello","client":"c1"}"#);
    assert!(hello[0].contains("\"type\":\"hello\""));

    // Spec: a structurally broken scenario document.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"run","spec":{"name":1}}"#),
        "Spec"
    );
    // Spec: decodes but fails semantic validation.
    let mut bad = spec("invalid");
    bad.topology.switches = 1;
    assert_eq!(
        error_variant_of(&mut core, &mut session, &run_line(&bad)),
        "Spec"
    );

    // QueueFull: capacity 1, second enqueue bounces — and carries the
    // typed backpressure fields.
    let ok = core.handle_line(&mut session, &run_line(&spec("fills")));
    assert!(ok[0].contains("\"queued\""));
    let resp = core.handle_line(&mut session, &run_line(&spec("bounces")));
    let doc = parse(&resp[0]).expect("valid JSON");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("QueueFull"));
    assert_eq!(doc.get("retry").and_then(Json::as_bool), Some(true));

    // UnknownCursor again, via ack: nothing produced yet, so cursor 1
    // does not exist.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"ack","cursor":1}"#),
        "UnknownCursor"
    );

    // CachePoisoned: only a 64-bit fingerprint collision on the hit path
    // produces it, and no request can force one. The cache unit test
    // `fingerprint_collision_is_poisoned_not_wrong_artifacts` plants a
    // resident entry under another prefix's fingerprint and pins that
    // `lookup` answers CachePoisoned instead of the wrong artifacts.
    //
    // Io: no request path produces it. Only `Daemon::join` returns it,
    // when the daemon's state lock was poisoned or its worker stopped
    // before draining.
}

/// A small malformed-input corpus: nothing here may panic, and every
/// response must be a parseable error line.
#[test]
fn malformed_lines_never_panic() {
    let mut core = ServeCore::new(ServeConfig::default());
    let mut session = Session::new();
    let corpus = [
        "",
        "   ",
        "\u{0}",
        "{",
        "}",
        "null",
        "true",
        "123",
        "\"op\"",
        r#"{"op":null}"#,
        r#"{"op":7}"#,
        r#"{"op":"run","spec":null}"#,
        r#"{"op":"run","spec":[]}"#,
        r#"{"op":"hello","client":""}"#,
        r#"{"op":"hello","resume_from":-1}"#,
        r#"{"op":"ack","cursor":1.5}"#,
        r#"{"op":"ack","cursor":18446744073709551616}"#,
    ];
    for line in corpus {
        let resp = core.handle_line(&mut session, line);
        for l in &resp {
            let doc = parse(l).unwrap_or_else(|e| panic!("unparseable response to {line:?}: {e}"));
            assert!(doc.get("type").is_some(), "untyped response to {line:?}");
        }
    }
}
