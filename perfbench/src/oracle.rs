//! Correctness oracle. Every result line is checked against the
//! deterministic fields of a direct `spam_scenario::run_once` of the
//! same spec and replication. The fields (not the digest value) for the
//! default seed are committed under `expected/`, so the benchmark pins
//! the simulated outcome independently of the code it measures; the
//! live digest is compared against `outcome_digest(run_once(..))`.

use crate::workload::Request;
use spam_scenario::json::{parse, Json, Num};
use spam_scenario::{outcome_digest, run_once};
use std::path::Path;
use wormsim::SimOutcome;

/// The pinned result-line fields, in this order.
pub const FIELDS: [&str; 6] = [
    "messages",
    "delivered",
    "torn_down",
    "unreachable",
    "events",
    "end_time_ns",
];

/// What one replication must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub fields: [u64; 6],
    pub digest: u64,
}

impl Expected {
    pub fn events(&self) -> u64 {
        self.fields[4]
    }

    pub fn of(out: &SimOutcome) -> Self {
        Expected {
            fields: [
                out.messages.len() as u64,
                out.counters.messages_completed,
                out.counters.messages_torn_down,
                out.counters.messages_unreachable,
                out.counters.events,
                out.end_time.as_ns(),
            ],
            digest: outcome_digest(out),
        }
    }
}

/// Per request, per replication.
pub type Oracle = Vec<Vec<Expected>>;

/// Runs every replication of every request directly (no cache, no
/// protocol).
pub fn compute(stream: &[Request]) -> Result<Oracle, String> {
    stream
        .iter()
        .map(|r| {
            (0..r.spec.replications.max(1))
                .map(|rep| {
                    run_once(&r.spec, rep, None)
                        .map(|out| Expected::of(&out))
                        .map_err(|e| format!("oracle: {} rep {rep}: {e}", r.spec.name))
                })
                .collect()
        })
        .collect()
}

fn num(v: u64) -> Json {
    Json::Num(Num::U(v))
}

/// The committed form: one line per request, fields only.
pub fn to_committed(workload: &str, seed: u64, stream: &[Request], oracle: &Oracle) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"requests\":[\n");
    for (i, (r, reps)) in stream.iter().zip(oracle).enumerate() {
        let reps = reps
            .iter()
            .map(|e| Json::Arr(e.fields.iter().map(|&f| num(f)).collect()))
            .collect();
        let line = Json::Obj(vec![
            ("scenario".into(), Json::Str(r.spec.name.clone())),
            ("reps".into(), Json::Arr(reps)),
        ]);
        let sep = if i + 1 == stream.len() { "" } else { "," };
        out.push_str(&format!("{}{sep}\n", line.to_string_compact()));
    }
    out.push_str("]}\n");
    out
}

/// Compares the committed fields against `oracle`.
pub fn check_committed(path: &Path, stream: &[Request], oracle: &Oracle) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let reqs = doc
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no requests array", path.display()))?;
    if reqs.len() != stream.len() {
        return Err(format!(
            "{}: pins {} requests, the stream has {}",
            path.display(),
            reqs.len(),
            stream.len()
        ));
    }
    for ((pinned, r), live) in reqs.iter().zip(stream).zip(oracle) {
        let name = pinned.get("scenario").and_then(Json::as_str);
        let reps = pinned.get("reps").and_then(Json::as_arr).unwrap_or(&[]);
        if name != Some(r.spec.name.as_str()) || reps.len() != live.len() {
            return Err(format!(
                "{}: stream differs at {}",
                path.display(),
                r.spec.name
            ));
        }
        for (rep, (p, e)) in reps.iter().zip(live).enumerate() {
            let pinned: Vec<Option<u64>> = p
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .map(|v| v.as_num()?.as_u64())
                .collect();
            let want: Vec<Option<u64>> = e.fields.iter().map(|&f| Some(f)).collect();
            if pinned != want {
                return Err(format!(
                    "{} rep {rep}: run_once gives {:?}, committed {:?} (fields {FIELDS:?})",
                    r.spec.name, e.fields, pinned
                ));
            }
        }
    }
    Ok(())
}

/// Checks one result line against the oracle. `Err` describes the
/// first mismatch.
pub fn check_line(line: &str, name: &str, rep: u32, want: &Expected) -> Result<(), String> {
    let doc = parse(line).map_err(|e| format!("{name} rep {rep}: unparsable line: {e}"))?;
    if doc.get("type").and_then(Json::as_str) != Some("result") {
        return Err(format!("{name} rep {rep}: not a result: {line}"));
    }
    let rep_seen = doc.get("rep").and_then(|v| v.as_num()?.as_u64());
    if doc.get("scenario").and_then(Json::as_str) != Some(name) || rep_seen != Some(rep as u64) {
        return Err(format!(
            "{name} rep {rep}: result for another request: {line}"
        ));
    }
    for (field, &want_v) in FIELDS.iter().zip(&want.fields) {
        let got = doc.get(field).and_then(|v| v.as_num()?.as_u64());
        if got != Some(want_v) {
            return Err(format!(
                "{name} rep {rep}: {field} = {got:?}, want {want_v}"
            ));
        }
    }
    let digest = format!("{:#018x}", want.digest);
    if doc.get("digest").and_then(Json::as_str) != Some(digest.as_str()) {
        return Err(format!(
            "{name} rep {rep}: digest differs from run_once's {digest}"
        ));
    }
    Ok(())
}
