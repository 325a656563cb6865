//! The traced run: untraced and traced passes alternate, then the spans
//! become per-layer metrics. A layer's self time is its span's duration
//! minus its children's; children that exceed their parent are counted
//! as trace errors and their parent's sample is dropped, never clamped.

use crate::calib::HostSpeed;
use crate::oracle::Oracle;
use crate::traced::{self, PassStats, Recorder, Span};
use crate::workload::{Request, Workload};
use crate::{another_pass, serve, Args, Metric, MIB, MIN_TRACED_PASSES};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans that carry a layer, in the runner's call order.
const LAYER_SPANS: [&str; 14] = [
    "protocol.parse",
    "cache.lookup.hit",
    "cache.lookup.miss",
    "netgraph.generate",
    "updown.label",
    "faults.degrade",
    "reconfig.build",
    "reconfig.epoch_tables",
    "core.tables",
    "baselines.precomp",
    "traffic.generate",
    "wormsim.run",
    "scenario.digest",
    "protocol.encode",
];

/// Self-time metrics: `(span, metric, unit, ns per unit)`. The two
/// reconfig spans are reported together as `reconfig.epochs_ms`.
const TIME_METRICS: [(&str, &str, &str, f64); 12] = [
    ("protocol.parse", "protocol.parse_us", "us", 1e3),
    ("cache.lookup.hit", "cache.lookup_hit_us", "us", 1e3),
    ("cache.lookup.miss", "cache.lookup_miss_ms", "ms", 1e6),
    ("netgraph.generate", "netgraph.generate_ms", "ms", 1e6),
    ("updown.label", "updown.label_ms", "ms", 1e6),
    ("faults.degrade", "faults.degrade_ms", "ms", 1e6),
    ("core.tables", "core.tables_ms", "ms", 1e6),
    ("baselines.precomp", "baselines.precomp_ms", "ms", 1e6),
    ("traffic.generate", "traffic.generate_ms", "ms", 1e6),
    ("wormsim.run", "wormsim.run_ms", "ms", 1e6),
    ("scenario.digest", "scenario.digest_us", "us", 1e3),
    ("protocol.encode", "protocol.encode_us", "us", 1e3),
];

/// Self time (ns), allocations and bytes of one span.
#[derive(Clone, Copy)]
struct SelfCost {
    ns: u64,
    allocs: u64,
    bytes: u64,
}

/// Each span's self cost; `None`, with a trace error, where its
/// children exceed it.
fn self_costs(spans: &[Span]) -> (Vec<Option<SelfCost>>, Vec<String>) {
    let mut child = vec![(0u64, 0u64, 0u64); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p].0 += s.dur_ns();
            child[p].1 += s.allocs;
            child[p].2 += s.bytes;
        }
    }
    let mut errors = Vec::new();
    let costs = spans
        .iter()
        .zip(&child)
        .map(|(s, c)| {
            let cost = match (
                s.dur_ns().checked_sub(c.0),
                s.allocs.checked_sub(c.1),
                s.bytes.checked_sub(c.2),
            ) {
                (Some(ns), Some(allocs), Some(bytes)) => Some(SelfCost { ns, allocs, bytes }),
                _ => None,
            };
            if cost.is_none() {
                errors.push(format!(
                    "{} of request {} rep {}: children take {} ns / {} allocs / {} B, the span {} ns / {} / {}",
                    s.name, s.request, s.rep, c.0, c.1, c.2, s.dur_ns(), s.allocs, s.bytes
                ));
            }
            cost
        })
        .collect();
    (costs, errors)
}

/// Per-layer metrics, plus the attempted count and failed requests.
pub fn traced_run(
    args: &Args,
    bench_dir: &Path,
    stream: &[Request],
    oracle: &Oracle,
    provenance: &str,
) -> Result<(Vec<Metric>, u64, Vec<String>), String> {
    let mut rec = Recorder::new(Instant::now());
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut passes: Vec<(PassStats, std::ops::Range<usize>)> = Vec::new();
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut speed = HostSpeed::new(false);
    let start = Instant::now();
    while another_pass(
        &traced_walls,
        MIN_TRACED_PASSES,
        start.elapsed().as_secs_f64(),
        args.seconds,
    ) {
        // Untraced first, so the pair's order never favours the traced pass.
        let (mut core, mut session) = serve::new_core()?;
        let p = serve::pass(&mut speed, &mut core, &mut session, stream, oracle);
        drop(core);
        untraced_walls.push(p.wall_s);
        attempted += p.attempted;
        failures.extend(p.failures);

        let first_span = rec.spans.len();
        let first_request = (traced_walls.len() * stream.len()) as u32;
        let t = Instant::now();
        let (stats, failed) = traced::traced_pass(&mut rec, stream, oracle, first_request);
        traced_walls.push(t.elapsed().as_secs_f64());
        attempted += stream.len() as u64;
        failures.extend(failed);
        passes.push((stats, first_span..rec.spans.len()));
    }

    let spans = &rec.spans;
    let (cost, errors) = self_costs(spans);
    for e in errors.iter().take(10) {
        println!("# TRACE ERROR {e}");
    }
    let spans_path = write_spans(bench_dir, args, provenance, spans)?;
    println!(
        "# spans: {} written to {}",
        spans.len(),
        spans_path.display()
    );

    // Samples per layer span name: self ns, self allocs.
    let mut self_ns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut self_allocs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut epochs: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let (mut allocs_per_msg, mut bytes_per_msg, mut events, mut events_per_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            continue;
        }
        let Some(SelfCost { ns, allocs, bytes }) = cost[i] else {
            continue;
        };
        self_ns.entry(s.name).or_default().push(ns as f64);
        self_allocs.entry(s.name).or_default().push(allocs as f64);
        if s.name.starts_with("reconfig.") {
            *epochs.entry((s.request, s.rep)).or_default() += ns as f64 / 1e6;
        }
        if s.name == "wormsim.run" && s.messages > 0 && ns > 0 {
            allocs_per_msg.push(allocs as f64 / s.messages as f64);
            bytes_per_msg.push(bytes as f64 / s.messages as f64);
            events.push(s.events as f64);
            events_per_s.push(s.events as f64 / (ns as f64 / 1e9));
        }
    }

    // Per pass: real request time is the root spans minus the shadow
    // spans inside them (re-executions and their drops are tracing
    // overhead); a layer's share is its self time over that. Requests
    // with a trace error are left out of both.
    let errored: HashSet<u32> = spans
        .iter()
        .zip(&cost)
        .filter(|(_, c)| c.is_none())
        .map(|(s, _)| s.request)
        .collect();
    let mut coverage = Vec::new();
    let mut share: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (_, range) in &passes {
        let mut real = 0.0;
        let mut layer_ns: BTreeMap<&str, f64> = BTreeMap::new();
        for (i, s) in range.clone().zip(&spans[range.clone()]) {
            if errored.contains(&s.request) {
                continue;
            }
            if s.parent.is_none() {
                real += s.dur_ns() as f64;
                continue;
            }
            if s.shadow {
                real -= s.dur_ns() as f64;
            }
            if let (true, Some(c)) = (LAYER_SPANS.contains(&s.name), cost[i]) {
                *layer_ns.entry(s.name).or_default() += c.ns as f64;
            }
        }
        if real <= 0.0 {
            continue;
        }
        coverage.push(layer_ns.values().sum::<f64>() / real);
        for span in LAYER_SPANS {
            let ns = layer_ns.get(span).copied().unwrap_or(0.0);
            share.entry(span).or_default().push(ns / real);
        }
    }

    let per_pass = |f: &dyn Fn(&PassStats) -> Option<f64>| -> Vec<f64> {
        passes.iter().filter_map(|(s, _)| f(s)).collect()
    };
    let ns_samples = |name: &str, per: f64| -> Vec<f64> {
        self_ns
            .get(name)
            .map(|v| v.iter().map(|ns| ns / per).collect())
            .unwrap_or_default()
    };

    let mut metrics = Vec::new();
    for (span, metric, unit, per) in TIME_METRICS {
        metrics.push(Metric::new(metric, unit, ns_samples(span, per)));
        if span == "faults.degrade" {
            metrics.push(Metric::new(
                "reconfig.epochs_ms",
                "ms",
                epochs.values().copied().collect(),
            ));
        }
    }
    let tables_mib = passes
        .iter()
        .flat_map(|(s, _)| s.tables_bytes.iter().map(|&b| b as f64 / MIB))
        .collect();
    metrics.extend([
        Metric::new("core.tables_mib", "MiB", tables_mib),
        Metric::new(
            "cache.hit_ratio",
            "ratio",
            per_pass(&|s| {
                let n = s.hits + s.misses;
                (n > 0).then(|| s.hits as f64 / n as f64)
            }),
        ),
        Metric::new(
            "cache.evictions",
            "count",
            per_pass(&|s| Some(s.evictions as f64)),
        ),
        Metric::new(
            "cache.resident_mib",
            "MiB",
            per_pass(&|s| Some(s.resident_bytes as f64 / MIB)),
        ),
        Metric::new("cache.charge_ratio", "ratio", per_pass(&|s| s.charge_ratio)),
        Metric::new("wormsim.events", "count", events),
        Metric::new("wormsim.events_per_s", "1/s", events_per_s),
        Metric::new("wormsim.allocs_per_msg", "allocs/msg", allocs_per_msg),
        Metric::new("wormsim.bytes_per_msg", "B/msg", bytes_per_msg),
        Metric::new("trace.coverage", "ratio", coverage),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            overhead(&traced_walls, &untraced_walls),
        ),
        Metric::new("trace.errors", "count", vec![errors.len() as f64]),
    ]);
    for span in LAYER_SPANS {
        metrics.push(Metric::new(
            format!("{span}.allocs"),
            "count",
            self_allocs.get(span).cloned().unwrap_or_default(),
        ));
    }
    for span in LAYER_SPANS {
        let samples = share.remove(span).unwrap_or_default();
        metrics.push(Metric::new(format!("{span}.share"), "ratio", samples));
    }
    design_checks(args.workload, &metrics);
    Ok((metrics, attempted, failures))
}

/// Traced over untraced pass wall, minus one, per adjacent pair; the
/// report gives their median over at least `MIN_TRACED_PASSES` pairs.
fn overhead(traced: &[f64], untraced: &[f64]) -> Vec<f64> {
    traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| t / u - 1.0)
        .collect()
}

/// Prints whether the workload split the layers as it was designed to.
fn design_checks(workload: Workload, metrics: &[Metric]) {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| crate::stats::summarize(&m.samples))
            .map_or(0.0, |s| s.median)
    };
    let reached = |name: &str| {
        metrics
            .iter()
            .any(|m| m.name == name && !m.samples.is_empty())
    };
    let checks: Vec<(String, bool)> = match workload {
        Workload::Corpus => [
            "faults.degrade_ms",
            "reconfig.epochs_ms",
            "core.tables_ms",
            "baselines.precomp_ms",
        ]
        .iter()
        .map(|m| (format!("{m} exercised"), reached(m)))
        .collect(),
        Workload::Sweep => vec![
            (
                format!(
                    "wormsim.run.share {:.3} >= 0.80",
                    value("wormsim.run.share")
                ),
                value("wormsim.run.share") >= 0.8,
            ),
            (
                format!("cache.hit_ratio {:.3} >= 0.95", value("cache.hit_ratio")),
                value("cache.hit_ratio") >= 0.95,
            ),
        ],
        Workload::LargeFabric => {
            let build = value("core.tables.share")
                + value("netgraph.generate.share")
                + value("updown.label.share");
            vec![
                (
                    format!("tables+generate+label share {build:.3} >= 0.80"),
                    build >= 0.8,
                ),
                (
                    format!("cache.hit_ratio {:.3} == 0", value("cache.hit_ratio")),
                    value("cache.hit_ratio") == 0.0,
                ),
            ]
        }
    };
    for (what, ok) in checks {
        println!(
            "# design check {}: {what}",
            if ok { "ok" } else { "NOT MET" }
        );
    }
}

/// Writes every span as one JSON line, after a provenance line, to
/// `out/spans-<workload>-seed<seed>.jsonl` in the benchmark directory.
fn write_spans(
    bench_dir: &Path,
    args: &Args,
    provenance: &str,
    spans: &[Span],
) -> Result<std::path::PathBuf, String> {
    let dir = bench_dir.join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(&dir).map_err(io)?;
    let mut w = BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    writeln!(w, "{provenance}").map_err(io)?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"rep\":{},\"shadow\":{},\"allocs\":{},\"bytes\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.rep, s.shadow, s.allocs, s.bytes
        )
        .map_err(io)?;
    }
    w.flush().map_err(io)?;
    Ok(path)
}
