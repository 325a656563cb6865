//! The one sweep runner: a [`SweepSpec`] grid over [`ScenarioSpec`],
//! replicated under the paper's §4 protocol.
//!
//! A sweep file (`sweeps/*.sweep.json`) names a base scenario (`base`, a
//! complete scenario document), its `axes`, one `metric` (`makespan_us`
//! or `mean_latency_us` with a `warmup_frac`), and the `precision`
//! settings (`target_rel`, `max_reps`; every point runs at least
//! [`MIN_REPS`]). Each axis value is a `set` of `path → value` overrides
//! on the base scenario's JSON (dot-separated object keys; a numeric
//! segment indexes an existing array), with an optional `label`; its x
//! coordinate is the first numeric override value. One value may set several
//! paths, e.g. a broadcast sets `topology.switches` and `traffic.dests`
//! together. The grid is the cartesian product of the axes; the last axis
//! is the x axis and the others name the series. Every grid point is
//! decoded and validated as an ordinary [`ScenarioSpec`]. The optional
//! `quick` block is one more override set, applied to the sweep document
//! itself by the same code.
//!
//! Replication `r` of every grid point runs [`run_once`]`(spec, r)`, so
//! points that differ only in routing arm or workload knobs share fabrics,
//! fault draws, and traffic seeds — a paired design with no special code.

use crate::report::BenchJson;
use crate::PointSummary;
use simstats::{ConfidenceLevel, PrecisionController};
use spam_scenario::codec::{check_unknown, f64_of, fields, get, kind_of, require, str_of, u32_of};
use spam_scenario::json::{self, Json};
use spam_scenario::{run_once, ScenarioSpec, SpecError};
use std::fmt;

/// The generic parallel replication driver: runs replications `0, 1, 2,
/// ...` of `rep`, fanning each batch of `available_parallelism` runs
/// across scoped threads, and feeds the results **in replication order**
/// to `consume`, which folds them into the caller's stopping state and
/// returns `true` to stop. Results past the stop point (the rest of the
/// final batch) are discarded, so the statistics are independent of
/// thread scheduling.
///
/// `rep(i)` must be a pure function of the replication index `i`.
pub fn replicate_parallel_with<T, F>(rep: F, mut consume: impl FnMut(T) -> bool)
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let batch = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4) as u64;
    let mut next = 0u64;
    loop {
        let results: Vec<T> = std::thread::scope(|s| {
            let rep = &rep;
            let handles: Vec<_> = (next..next + batch)
                .map(|i| s.spawn(move || rep(i)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replication panicked"))
                .collect()
        });
        next += batch;
        for r in results {
            if consume(r) {
                return;
            }
        }
    }
}

/// Why a sweep cannot be decoded or run. Every failure names where it
/// happened; nothing is dropped silently.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The sweep document is malformed: not JSON, a missing, unknown or
    /// mistyped field (dotted `sweep.*` path), or an override path that
    /// does not resolve (`WrongType` on the path).
    Doc(SpecError),
    /// A grid point's scenario does not decode, validate, or run.
    Point {
        /// The point's coordinates.
        point: String,
        /// The scenario layer's error.
        error: SpecError,
    },
    /// A replication ended with messages undelivered (deadlock, teardown,
    /// or unreachable destinations).
    Undelivered {
        /// The point's coordinates.
        point: String,
        /// Replication index.
        rep: u32,
        /// Messages fully delivered.
        delivered: u64,
        /// Messages submitted.
        submitted: u64,
    },
    /// A replication produced no sample for the metric.
    EmptyMetric {
        /// The point's coordinates.
        point: String,
        /// Replication index.
        rep: u32,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Doc(e) => write!(f, "{e}"),
            SweepError::Point { point, error } => write!(f, "point [{point}]: {error}"),
            SweepError::Undelivered {
                point,
                rep,
                delivered,
                submitted,
            } => write!(
                f,
                "point [{point}], replication {rep}: only {delivered} of {submitted} messages delivered"
            ),
            SweepError::EmptyMetric { point, rep } => {
                write!(f, "point [{point}], replication {rep}: nothing to measure")
            }
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Doc(e)
    }
}

fn wrong(field: String, expected: &'static str) -> SweepError {
    SweepError::Doc(SpecError::WrongType { field, expected })
}

/// Sets `path` in `doc` to `value`. Segments are object keys (missing
/// ones are created; the scenario codec rejects unknown fields later) or
/// indices into existing arrays.
pub fn set_path(doc: &mut Json, path: &str, value: Json) -> Result<(), SweepError> {
    let bad = || wrong(path.to_string(), "an object key or an existing array index");
    let mut node = doc;
    let mut keys = path.split('.').peekable();
    while let Some(key) = keys.next() {
        let slot = match node {
            Json::Obj(fields) => {
                let i = match fields.iter().position(|(k, _)| k == key) {
                    Some(i) => i,
                    None => {
                        fields.push((key.to_string(), Json::Obj(Vec::new())));
                        fields.len() - 1
                    }
                };
                &mut fields[i].1
            }
            Json::Arr(items) => key
                .parse::<usize>()
                .ok()
                .and_then(|i| items.get_mut(i))
                .ok_or_else(bad)?,
            _ => return Err(bad()),
        };
        if keys.peek().is_none() {
            *slot = value;
            return Ok(());
        }
        node = slot;
    }
    Err(bad())
}

/// Applies every `path → value` pair of the override object `set` (named
/// `field` in errors) to `doc`, in order.
pub fn apply_overrides(doc: &mut Json, set: &Json, field: &str) -> Result<(), SweepError> {
    for (path, value) in fields(set, field)? {
        set_path(doc, path, value.clone())?;
    }
    Ok(())
}

/// Parses a sweep document, applying its `quick` overrides when asked.
pub fn parse_doc(text: &str, quick: bool) -> Result<Json, SweepError> {
    let mut doc = json::parse(text).map_err(SpecError::Json)?;
    if let (true, Some(q)) = (quick, doc.get("quick").cloned()) {
        apply_overrides(&mut doc, &q, "sweep.quick")?;
    }
    Ok(doc)
}

/// The quantity measured in every replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Last delivery minus first generation (µs): one SPAM worm's latency,
    /// or a whole software-multicast tree's dissemination time.
    MakespanUs,
    /// Mean message latency (µs) over messages whose tag lies past the
    /// first `warmup_frac` of the stream.
    MeanLatencyUs {
        /// Fraction of the stream discarded as warm-up, in `[0, 1)`.
        warmup_frac: f64,
    },
}

impl Metric {
    /// The metric's name in files and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::MakespanUs => "makespan_us",
            Metric::MeanLatencyUs { .. } => "mean_latency_us",
        }
    }
}

/// Replications every grid point runs before the stopping rule may end it.
pub const MIN_REPS: u64 = 3;

/// The §4 stopping rule: replicate until the 95 % CI half-width is within
/// `target_rel` of the mean, running between [`MIN_REPS`] and `max_reps`
/// replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Relative CI half-width target (0.01 in the paper).
    pub target_rel: f64,
    /// Replication budget per point.
    pub max_reps: u64,
}

/// One value of an axis.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisValue {
    /// Series/point label (default `<axis>=<x>`).
    pub label: String,
    /// Coordinate on the x axis: the first numeric override value, else
    /// the value's index.
    pub x: f64,
    /// The override object applied to the base scenario.
    pub set: Json,
}

/// One swept dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The axis name (the x axis's name heads the CSV column).
    pub name: String,
    /// The values, in sweep order.
    pub values: Vec<AxisValue>,
}

/// A decoded sweep file.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name; the records are `BENCH_<name>.json` and
    /// `results/<name>*.csv`.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// The base scenario document every grid point overrides.
    pub base: Json,
    /// The axes (at least one); the last one is the x axis.
    pub axes: Vec<Axis>,
    /// What each replication measures.
    pub metric: Metric,
    /// When to stop replicating.
    pub precision: Precision,
}

/// One grid point: its coordinates and its validated scenario.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Axis labels joined, for reports and errors.
    pub name: String,
    /// The x coordinate.
    pub x: f64,
    /// The scenario this point runs.
    pub spec: ScenarioSpec,
}

fn non_empty(v: &Json, field: String) -> Result<&[Json], SweepError> {
    v.as_arr()
        .filter(|a| !a.is_empty())
        .ok_or_else(|| wrong(field, "a non-empty array"))
}

fn decode_axis(v: &Json, path: &str) -> Result<Axis, SweepError> {
    let f = fields(v, path)?;
    check_unknown(f, path, &["name", "values"])?;
    let name = str_of(require(f, path, "name")?, &format!("{path}.name"))?;
    let values = non_empty(require(f, path, "values")?, format!("{path}.values"))?;
    let values = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let path = format!("{path}.values.{i}");
            let f = fields(v, &path)?;
            check_unknown(f, &path, &["label", "set"])?;
            let set = require(f, &path, "set")?;
            let x = fields(set, &format!("{path}.set"))?
                .iter()
                .find_map(|(_, v)| v.as_num())
                .map_or(i as f64, |n| n.as_f64());
            let label = match get(f, "label") {
                Some(l) => str_of(l, &format!("{path}.label"))?,
                None => format!("{name}={x}"),
            };
            Ok(AxisValue {
                label,
                x,
                set: set.clone(),
            })
        })
        .collect::<Result<_, SweepError>>()?;
    Ok(Axis { name, values })
}

fn decode_metric(v: &Json) -> Result<Metric, SweepError> {
    let path = "sweep.metric";
    let f = fields(v, path)?;
    match kind_of(f, path)? {
        "makespan_us" => {
            check_unknown(f, path, &["kind"])?;
            Ok(Metric::MakespanUs)
        }
        "mean_latency_us" => {
            check_unknown(f, path, &["kind", "warmup_frac"])?;
            let warmup = require(f, path, "warmup_frac")?;
            let warmup_frac = f64_of(warmup, "sweep.metric.warmup_frac")?;
            if !(0.0..1.0).contains(&warmup_frac) {
                return Err(wrong("sweep.metric.warmup_frac".into(), "in [0, 1)"));
            }
            Ok(Metric::MeanLatencyUs { warmup_frac })
        }
        got => Err(SpecError::UnknownKind {
            field: path.to_string(),
            got: got.to_string(),
        }
        .into()),
    }
}

fn decode_precision(v: &Json) -> Result<Precision, SweepError> {
    let path = "sweep.precision";
    let f = fields(v, path)?;
    check_unknown(f, path, &["target_rel", "max_reps"])?;
    let target_rel = f64_of(
        require(f, path, "target_rel")?,
        "sweep.precision.target_rel",
    )?;
    let max_reps = u32_of(require(f, path, "max_reps")?, "sweep.precision.max_reps")?;
    if target_rel.is_nan() || target_rel <= 0.0 {
        return Err(wrong("sweep.precision.target_rel".into(), "positive"));
    }
    if u64::from(max_reps) < MIN_REPS {
        return Err(wrong(
            "sweep.precision.max_reps".into(),
            "at least 3 (MIN_REPS)",
        ));
    }
    Ok(Precision {
        target_rel,
        max_reps: max_reps.into(),
    })
}

impl SweepSpec {
    /// Parses and decodes a sweep file; with `quick`, its `quick`
    /// overrides apply first.
    pub fn from_json(text: &str, quick: bool) -> Result<Self, SweepError> {
        Self::from_value(&parse_doc(text, quick)?)
    }

    /// Decodes an already-parsed (and possibly overridden) document.
    /// Grid points are decoded and validated by [`Self::grid`].
    pub fn from_value(doc: &Json) -> Result<Self, SweepError> {
        let path = "sweep";
        let f = fields(doc, path)?;
        let known = [
            "name",
            "description",
            "base",
            "axes",
            "metric",
            "precision",
            "quick",
        ];
        check_unknown(f, path, &known)?;
        let base = require(f, path, "base")?;
        fields(base, "sweep.base")?;
        let axes = non_empty(require(f, path, "axes")?, "sweep.axes".into())?;
        Ok(SweepSpec {
            name: str_of(require(f, path, "name")?, "sweep.name")?,
            description: match get(f, "description") {
                Some(d) => str_of(d, "sweep.description")?,
                None => String::new(),
            },
            base: base.clone(),
            axes: axes
                .iter()
                .enumerate()
                .map(|(i, a)| decode_axis(a, &format!("sweep.axes.{i}")))
                .collect::<Result<_, _>>()?,
            metric: decode_metric(require(f, path, "metric")?)?,
            precision: decode_precision(require(f, path, "precision")?)?,
        })
    }

    /// One name per series: the labels of every axis but the last, or
    /// the sweep name when there is only the x axis.
    pub fn series_names(&self) -> Vec<String> {
        let outer = &self.axes[..self.axes.len() - 1];
        if outer.is_empty() {
            return vec![self.name.clone()];
        }
        let n: usize = outer.iter().map(|a| a.values.len()).product();
        (0..n)
            .map(|s| join_labels(&coords(outer, s), " "))
            .collect()
    }

    /// The cartesian grid, series-major with the x axis fastest. Every
    /// point's scenario is decoded and validated here, so a bad override
    /// fails before anything runs.
    pub fn grid(&self) -> Result<Vec<GridPoint>, SweepError> {
        let n: usize = self.axes.iter().map(|a| a.values.len()).product();
        (0..n)
            .map(|i| {
                let values = coords(&self.axes, i);
                let name = join_labels(&values, ", ");
                let mut doc = self.base.clone();
                for (axis, v) in self.axes.iter().zip(&values) {
                    apply_overrides(&mut doc, &v.set, &format!("axis {}", axis.name))?;
                }
                let spec = ScenarioSpec::from_value(&doc)
                    .and_then(|s| s.validate().map(|()| s))
                    .map_err(|error| SweepError::Point {
                        point: name.clone(),
                        error,
                    })?;
                Ok(GridPoint {
                    name,
                    x: values[values.len() - 1].x,
                    spec,
                })
            })
            .collect()
    }

    /// Runs the whole grid: one [`PointSummary`] per point, grouped by
    /// series in [`Self::series_names`] order. Stops at the first failed
    /// replication.
    pub fn run(&self) -> Result<Vec<(String, Vec<PointSummary>)>, SweepError> {
        let grid = self.grid()?;
        let points: Vec<PointSummary> = grid
            .iter()
            .map(|p| self.run_point(p))
            .collect::<Result<_, _>>()?;
        let per_series = self.axes[self.axes.len() - 1].values.len();
        let series = points.chunks(per_series).map(<[_]>::to_vec);
        Ok(self.series_names().into_iter().zip(series).collect())
    }

    /// Replicates one point until the precision target is met.
    fn run_point(&self, p: &GridPoint) -> Result<PointSummary, SweepError> {
        let pr = self.precision;
        let mut ctl =
            PrecisionController::new(pr.target_rel, ConfidenceLevel::P95, MIN_REPS, pr.max_reps);
        let mut failure = None;
        replicate_parallel_with(
            |r| measure(p, r as u32, self.metric),
            |res| match res {
                Ok(v) => {
                    ctl.push(v);
                    ctl.satisfied()
                }
                Err(e) => {
                    failure = Some(e);
                    true
                }
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(PointSummary::of(p.x, &ctl))
    }

    /// The machine-readable record of a finished sweep. Deterministic:
    /// the same sweep file always renders the same bytes.
    pub fn bench_json(&self, series: Vec<(String, Vec<PointSummary>)>, quick: bool) -> BenchJson {
        let axes: Vec<&str> = self.axes.iter().map(|a| a.name.as_str()).collect();
        let (pr, metric) = (self.precision, self.metric);
        let warmup = match metric {
            Metric::MeanLatencyUs { warmup_frac } => Some(("warmup_frac", warmup_frac.to_string())),
            Metric::MakespanUs => None,
        };
        let params = [("axes", axes.join(" x ")), ("metric", metric.name().into())]
            .into_iter()
            .chain(warmup)
            .chain([
                ("target_rel", pr.target_rel.to_string()),
                ("min_reps", MIN_REPS.to_string()),
                ("max_reps", pr.max_reps.to_string()),
                ("quick", quick.to_string()),
            ]);
        BenchJson {
            name: self.name.clone(),
            params: params.map(|(k, v)| (k.to_string(), v)).collect(),
            series,
        }
    }
}

/// The axis values at flat grid index `i` (last axis fastest).
fn coords(axes: &[Axis], mut i: usize) -> Vec<&AxisValue> {
    let mut picked: Vec<&AxisValue> = axes
        .iter()
        .rev()
        .map(|a| {
            let v = &a.values[i % a.values.len()];
            i /= a.values.len();
            v
        })
        .collect();
    picked.reverse();
    picked
}

fn join_labels(values: &[&AxisValue], sep: &str) -> String {
    let labels: Vec<&str> = values.iter().map(|v| v.label.as_str()).collect();
    labels.join(sep)
}

/// Runs replication `rep` of a point and measures it. Any undelivered
/// message fails the replication.
pub(crate) fn measure(p: &GridPoint, rep: u32, metric: Metric) -> Result<f64, SweepError> {
    let out = run_once(&p.spec, rep, None).map_err(|error| SweepError::Point {
        point: p.name.clone(),
        error,
    })?;
    if !out.all_delivered() {
        return Err(SweepError::Undelivered {
            point: p.name.clone(),
            rep,
            delivered: out.counters.messages_completed,
            submitted: out.messages.len() as u64,
        });
    }
    let value = match metric {
        Metric::MakespanUs => {
            let start = out.messages.iter().map(|m| m.spec.gen_time).min();
            let end = out.messages.iter().filter_map(|m| m.completed_at).max();
            start.zip(end).map(|(s, e)| e.since(s).as_us_f64())
        }
        Metric::MeanLatencyUs { warmup_frac } => {
            let warmup = (out.messages.len() as f64 * warmup_frac) as u64;
            out.mean_latency_us(|m| m.spec.tag >= warmup)
        }
    };
    value.ok_or(SweepError::EmptyMetric {
        point: p.name.clone(),
        rep,
    })
}

/// The committed `sweeps/<name>.sweep.json` with its quick block and
/// then `overrides` (a JSON object of path → value) applied.
#[cfg(test)]
pub(crate) fn committed(name: &str, overrides: &str) -> SweepSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../sweeps")
        .join(format!("{name}.sweep.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut doc = parse_doc(&text, true).unwrap();
    apply_overrides(&mut doc, &json::parse(overrides).unwrap(), "test").unwrap();
    SweepSpec::from_value(&doc).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(seed: u64) -> f64 {
        // Deterministic pseudo-noise around 100.
        100.0 + ((seed % 21) as f64 - 10.0)
    }

    fn controller() -> PrecisionController {
        PrecisionController::new(0.02, ConfidenceLevel::P95, 3, 500)
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let rep = |i: u64| noisy(spam_scenario::split_seed(7, i));
        let mut seq = controller();
        let mut i = 0;
        while !seq.satisfied() {
            seq.push(rep(i));
            i += 1;
        }
        let mut par = controller();
        replicate_parallel_with(rep, |v| {
            par.push(v);
            par.satisfied()
        });
        assert!(seq.met_target());
        assert_eq!(par.count(), seq.count());
        assert_eq!(par.stats().mean(), seq.stats().mean());
        assert_eq!(par.stats().variance(), seq.stats().variance());
    }

    #[test]
    fn constant_function_stops_at_min_reps() {
        let mut c = PrecisionController::new(0.01, ConfidenceLevel::P95, 3, 100);
        replicate_parallel_with(
            |_| 42.0,
            |v| {
                c.push(v);
                c.satisfied()
            },
        );
        assert_eq!(c.count(), 3);
        assert!(c.met_target());
        assert_eq!(c.stats().mean(), 42.0);
    }

    #[test]
    fn set_path_creates_replaces_and_indexes() {
        let mut doc = json::parse(r#"{"a": {"b": 1}, "xs": [{"v": 1}, {"v": 2}]}"#).unwrap();
        set_path(&mut doc, "a.b", Json::Bool(true)).unwrap();
        set_path(&mut doc, "a.c", Json::Null).unwrap();
        set_path(&mut doc, "xs.1.v", Json::Str("two".into())).unwrap();
        assert_eq!(
            doc.to_string_compact(),
            r#"{"a":{"b":true,"c":null},"xs":[{"v":1},{"v":"two"}]}"#
        );
        for bad in ["a.b.c", "xs.2.v", "xs.first"] {
            match set_path(&mut doc, bad, Json::Null) {
                Err(SweepError::Doc(SpecError::WrongType { field, .. })) => assert_eq!(field, bad),
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_documents_are_typed_errors() {
        let variant = |text: &str| match SweepSpec::from_json(text, false) {
            Err(SweepError::Doc(e)) => e.variant_name(),
            other => panic!("{text}: {other:?}"),
        };
        assert_eq!(variant("{"), "Json");
        assert_eq!(variant(r#"{"name": "x", "axis": []}"#), "UnknownField");
        assert_eq!(variant(r#"{"name": "x"}"#), "MissingField");
    }
}
