//! Result output: CSV files, terminal-friendly ASCII plots, and the
//! machine-readable `BENCH_<name>.json` records, so every figure binary
//! archives its data (human- and machine-readable) and shows the curve
//! shape inline.

use crate::PointSummary;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes `(x, mean, ci, reps)` rows as CSV.
pub fn write_csv(path: &Path, header: &str, rows: &[PointSummary]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for r in rows {
        writeln!(
            f,
            "{},{:.4},{:.4},{},{}",
            r.x, r.mean, r.ci_half_width, r.reps, r.target_met
        )?;
    }
    Ok(())
}

/// A machine-readable benchmark record. Every figure binary emits one as
/// `BENCH_<name>.json` next to its CSVs via [`write_bench_json`], seeding
/// the repo's perf-trajectory record: same schema across binaries, so
/// tooling can diff runs over time without parsing per-binary CSVs.
#[derive(Debug, Clone)]
pub struct BenchJson {
    /// Benchmark name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Free-form configuration key/value pairs (sizes, seeds, CI targets).
    pub params: Vec<(String, String)>,
    /// Named data series, each a list of summarized points.
    pub series: Vec<(String, Vec<PointSummary>)>,
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite JSON number, or `null` (JSON has no NaN/inf).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` is the shortest round-trippable representation.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Writes `dir/BENCH_<name>.json`, returning the path.
///
/// Also drops an identical `BENCH_<name>.json` in the current directory
/// (the repo root, when run via `cargo run`): the records under
/// `results/` are gitignored working artifacts, while the root copies
/// are committed as the perf-trajectory record — every binary used to
/// hand-copy (or forget to), so the dual write lives here instead.
///
/// The workspace's `serde` is a no-op offline shim, so the JSON is
/// hand-rolled here — one schema for every benchmark binary.
pub fn write_bench_json(dir: &Path, bench: &BenchJson) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let file = format!("BENCH_{}.json", bench.name);
    let path = dir.join(&file);
    let body = bench_json_text(bench);
    std::fs::write(&path, &body)?;
    if path.as_path() != Path::new(&file) {
        std::fs::write(&file, &body)?;
    }
    Ok(path)
}

/// The exact bytes [`write_bench_json`] writes for `bench`.
pub fn bench_json_text(bench: &BenchJson) -> String {
    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"schema\": 1,").unwrap();
    writeln!(body, "  \"name\": \"{}\",", json_escape(&bench.name)).unwrap();
    writeln!(body, "  \"params\": {{").unwrap();
    for (i, (k, v)) in bench.params.iter().enumerate() {
        let comma = if i + 1 < bench.params.len() { "," } else { "" };
        writeln!(
            body,
            "    \"{}\": \"{}\"{comma}",
            json_escape(k),
            json_escape(v)
        )
        .unwrap();
    }
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"series\": [").unwrap();
    for (si, (name, points)) in bench.series.iter().enumerate() {
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"name\": \"{}\",", json_escape(name)).unwrap();
        writeln!(body, "      \"points\": [").unwrap();
        for (pi, p) in points.iter().enumerate() {
            let comma = if pi + 1 < points.len() { "," } else { "" };
            writeln!(
                body,
                "        {{\"x\": {}, \"mean\": {}, \"ci_half_width\": {}, \
                 \"reps\": {}, \"target_met\": {}}}{comma}",
                json_num(p.x),
                json_num(p.mean),
                json_num(p.ci_half_width),
                p.reps,
                p.target_met
            )
            .unwrap();
        }
        writeln!(body, "      ]").unwrap();
        let comma = if si + 1 < bench.series.len() { "," } else { "" };
        writeln!(body, "    }}{comma}").unwrap();
    }
    writeln!(body, "  ]").unwrap();
    writeln!(body, "}}").unwrap();
    body
}

/// Renders one or more named series as an ASCII scatter plot, mimicking
/// the paper's figures well enough to eyeball the shape.
pub fn ascii_plot(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[(String, Vec<PointSummary>)],
    height: usize,
) -> String {
    const MARKS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let mut out = String::new();
    let all: Vec<&PointSummary> = series.iter().flat_map(|(_, v)| v.iter()).collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (x_min, x_max) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.x), hi.max(p.x))
        });
    let (y_min, y_max) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.mean), hi.max(p.mean))
        });
    let y_pad = ((y_max - y_min) * 0.08).max(0.5);
    let (y_lo, y_hi) = (y_min - y_pad, y_max + y_pad);
    let width = 64usize;
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        for p in pts {
            let xf = if x_max > x_min {
                (p.x - x_min) / (x_max - x_min)
            } else {
                0.5
            };
            let yf = (p.mean - y_lo) / (y_hi - y_lo);
            let col = ((xf * (width - 1) as f64).round() as usize).min(width - 1);
            let row = height - 1 - ((yf * (height - 1) as f64).round() as usize).min(height - 1);
            grid[row][col] = MARKS[si % MARKS.len()];
        }
    }
    writeln!(out, "{title}").unwrap();
    writeln!(out, "{y_label}").unwrap();
    for (i, row) in grid.iter().enumerate() {
        let y_val = y_hi - (y_hi - y_lo) * i as f64 / (height - 1) as f64;
        writeln!(out, "{y_val:>8.1} |{}", row.iter().collect::<String>()).unwrap();
    }
    writeln!(out, "{:>9}+{}", "", "-".repeat(width)).unwrap();
    writeln!(
        out,
        "{:>10}{:<32}{:>32}",
        "",
        format!("{x_min:.3}"),
        format!("{x_max:.3}")
    )
    .unwrap();
    writeln!(out, "{:>10}{x_label}", "").unwrap();
    for (si, (name, _)) in series.iter().enumerate() {
        writeln!(out, "  {} {}", MARKS[si % MARKS.len()], name).unwrap();
    }
    out
}

/// Formats a table of `(label, point)` rows.
pub fn labelled_table(title: &str, rows: &[(String, PointSummary)]) -> String {
    let mut out = String::new();
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "  {:<24} {:>12} {:>12} {:>6} {:>7}",
        "arm", "mean (µs)", "±95% CI", "reps", "met 1%"
    )
    .unwrap();
    for (label, p) in rows {
        writeln!(
            out,
            "  {:<24} {:>12.3} {:>12.3} {:>6} {:>7}",
            label, p.mean, p.ci_half_width, p.reps, p.target_met
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<PointSummary> {
        v.iter()
            .map(|&(x, mean)| PointSummary {
                x,
                mean,
                ci_half_width: 0.1,
                reps: 5,
                target_met: true,
            })
            .collect()
    }

    #[test]
    fn csv_round_trips() {
        let dir = std::env::temp_dir().join("spam_bench_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            "x,mean,ci,reps,met",
            &pts(&[(1.0, 11.0), (2.0, 12.0)]),
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("x,mean,ci,reps,met\n"));
        assert_eq!(body.lines().count(), 3);
        assert!(body.contains("11.0000"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_json_is_valid_and_complete() {
        let dir = std::env::temp_dir().join("spam_bench_json_test");
        let bench = BenchJson {
            name: "unit_test".to_string(),
            params: vec![
                ("switches".to_string(), "64".to_string()),
                ("note".to_string(), "has \"quotes\"".to_string()),
            ],
            series: vec![
                ("a".to_string(), pts(&[(1.0, 11.0), (2.0, 12.5)])),
                ("b".to_string(), pts(&[(1.0, 20.0)])),
            ],
        };
        let path = write_bench_json(&dir, &bench).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        // The committed-record copy lands in the current directory too.
        let root_copy = Path::new("BENCH_unit_test.json");
        assert!(root_copy.exists(), "root copy missing");
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, std::fs::read_to_string(root_copy).unwrap());
        std::fs::remove_file(root_copy).ok();
        assert!(body.contains("\"schema\": 1"));
        assert!(body.contains("\"switches\": \"64\""));
        assert!(body.contains("has \\\"quotes\\\""));
        assert!(body.contains("\"mean\": 12.5"));
        // Structural sanity: balanced braces/brackets, no trailing commas.
        assert_eq!(body.matches('{').count(), body.matches('}').count());
        assert_eq!(body.matches('[').count(), body.matches(']').count());
        assert!(!body.contains(",\n      ]"));
        assert!(!body.contains(",\n  }"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_num_handles_non_finite() {
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn ascii_plot_contains_markers_and_labels() {
        let s = vec![
            ("8 dests".to_string(), pts(&[(0.005, 11.0), (0.04, 60.0)])),
            ("64 dests".to_string(), pts(&[(0.005, 12.0), (0.04, 70.0)])),
        ];
        let plot = ascii_plot("Fig 3", "rate", "latency µs", &s, 12);
        assert!(plot.contains("Fig 3"));
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
        assert!(plot.contains("8 dests"));
        assert!(plot.contains("0.040"));
    }

    #[test]
    fn empty_plot_is_graceful() {
        let plot = ascii_plot("t", "x", "y", &[], 5);
        assert!(plot.contains("no data"));
    }

    #[test]
    fn table_renders_rows() {
        let t = labelled_table(
            "Ablation",
            &[("lowest-id".into(), pts(&[(0.0, 11.5)])[0].clone())],
        );
        assert!(t.contains("lowest-id"));
        assert!(t.contains("11.5"));
    }
}
