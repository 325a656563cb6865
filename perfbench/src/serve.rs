//! The untraced request path: a closed-loop client with one request in
//! flight, driving an in-process `ServeCore` (`handle_line`, then `step`
//! until the queue drains) on the calling thread. No socket, no daemon
//! thread.

use crate::calib::HostSpeed;
use crate::oracle::{self, Expected};
use crate::workload::Request;
use spam_serve::{ServeConfig, ServeCore, Session};
use std::time::Instant;

const HELLO: &str = r#"{"op":"hello","client":"perfbench"}"#;

/// A core with default budgets and a greeted session.
pub fn new_core() -> Result<(ServeCore, Session), String> {
    let mut core = ServeCore::new(ServeConfig::default());
    let mut session = Session::new();
    let reply = core.handle_line(&mut session, HELLO);
    match reply.first() {
        Some(l) if l.starts_with(r#"{"type":"hello""#) => Ok((core, session)),
        other => Err(format!("hello refused: {other:?}")),
    }
}

/// What one pass over the stream observed.
pub struct Pass {
    /// Raw wall time of the stream, without the host-speed samples
    /// taken between requests.
    pub wall_s: f64,
    /// Rescales this pass's times to the reference host speed.
    pub speed: f64,
    pub request_ms: Vec<f64>,
    pub events: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Sends every request in order, each after the previous one's last
/// result; then checks every result against the oracle. Checking runs
/// after the timed stream ends, so it is charged to neither metric. The
/// host speed is sampled before each request, outside the timed spans.
pub fn pass(
    speed: &mut HostSpeed,
    core: &mut ServeCore,
    session: &mut Session,
    stream: &[Request],
    oracle: &[Vec<Expected>],
) -> Pass {
    let mut replies: Vec<(Vec<String>, Vec<String>)> = Vec::with_capacity(stream.len());
    let mut request_ms = Vec::with_capacity(stream.len());
    let mut cursor = 0u64;
    let mut wall_s = 0.0;
    for req in stream {
        speed.sample();
        let sent = Instant::now();
        let queued = core.handle_line(session, &req.line);
        let mut results = Vec::new();
        while let Some(out) = core.step() {
            results.extend(out.lines);
        }
        request_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        cursor += results.len() as u64;
        if !results.is_empty() {
            core.handle_line(session, &format!(r#"{{"op":"ack","cursor":{cursor}}}"#));
        }
        wall_s += sent.elapsed().as_secs_f64();
        replies.push((queued, results));
    }

    let mut events = 0;
    let mut failures = Vec::new();
    for ((req, want), (queued, results)) in stream.iter().zip(oracle).zip(&replies) {
        let checked = check(req, want, queued, results);
        match checked {
            Ok(e) => events += e,
            Err(e) => failures.push(e),
        }
    }
    Pass {
        wall_s,
        speed: speed.take_factor(),
        request_ms,
        events,
        attempted: stream.len() as u64,
        failures,
    }
}

/// Engine events of a correct request, or why it is not correct.
fn check(
    req: &Request,
    want: &[Expected],
    queued: &[String],
    results: &[String],
) -> Result<u64, String> {
    let name = &req.spec.name;
    if !(queued.len() == 1 && queued[0].starts_with(r#"{"type":"queued""#)) {
        return Err(format!("{name}: refused: {queued:?}"));
    }
    if results.len() != want.len() {
        return Err(format!(
            "{name}: {} result lines for {} replications: {results:?}",
            results.len(),
            want.len()
        ));
    }
    let mut events = 0;
    for (rep, (line, w)) in results.iter().zip(want).enumerate() {
        oracle::check_line(line, name, rep as u32, w)?;
        events += w.events();
    }
    Ok(events)
}
