//! Runs `*.sweep.json` files: every figure, table, and ablation that is a
//! grid over one scenario (see `spam_bench::sweep`).
//!
//! ```text
//! cargo run -p spam-bench --bin sweep --release -- sweeps/fig2_128.sweep.json
//! cargo run -p spam-bench --bin sweep --release -- sweeps/*.sweep.json --quick
//! ```
//!
//! `--quick` applies each file's `quick` overrides (looser CI, fewer
//! replications, sometimes a smaller grid). For every sweep `<name>` it
//! writes `results/<name>.csv` (one `results/<name>_<series>.csv` per
//! series when there are several), `results/BENCH_<name>.json`, and a
//! `BENCH_<name>.json` copy in the current directory, and prints the
//! curves. Exit status: 0 on success, 1 when a sweep fails (the error
//! names the grid point and replication), 2 on a usage error.

use spam_bench::report;
use spam_bench::sweep::SweepSpec;
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "usage: sweep <file.sweep.json>... [--quick]";

fn main() {
    let mut quick = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            a if a.starts_with('-') => {
                eprintln!("sweep: unknown option {a}\n{USAGE}");
                exit(2);
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        exit(2);
    }
    for file in &files {
        if let Err(e) = run_file(file, quick) {
            eprintln!("sweep: {}: {e}", file.display());
            exit(1);
        }
    }
}

fn run_file(file: &Path, quick: bool) -> Result<(), Box<dyn std::error::Error>> {
    let sweep = SweepSpec::from_json(&std::fs::read_to_string(file)?, quick)?;
    let x_axis = sweep.axes.last().map_or("x", |a| a.name.as_str());
    eprintln!(
        "sweep {}: axes {}, metric {}, target CI {}% (quick: {quick})",
        sweep.name,
        sweep
            .axes
            .iter()
            .map(|a| format!("{}[{}]", a.name, a.values.len()))
            .collect::<Vec<_>>()
            .join(" x "),
        sweep.metric.name(),
        sweep.precision.target_rel * 100.0
    );
    let t0 = std::time::Instant::now();
    let series = sweep.run()?;
    eprintln!("sweep {}: finished in {:.1?}", sweep.name, t0.elapsed());

    let title = if sweep.description.is_empty() {
        sweep.name.clone()
    } else {
        format!("{} — {}", sweep.name, sweep.description)
    };
    println!(
        "{}",
        report::ascii_plot(&title, x_axis, sweep.metric.name(), &series, 16)
    );
    let header = format!(
        "{x_axis},{},ci_half_width,reps,target_met",
        sweep.metric.name()
    );
    for (name, points) in &series {
        let rows: Vec<_> = points
            .iter()
            .map(|p| (format!("{x_axis}={}", p.x), p.clone()))
            .collect();
        print!("{}", report::labelled_table(name, &rows));
        let csv = if series.len() == 1 {
            format!("results/{}.csv", sweep.name)
        } else {
            // A file-name-safe form of the series name.
            let slug = name.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
            format!("results/{}_{}.csv", sweep.name, slug.to_lowercase())
        };
        report::write_csv(Path::new(&csv), &header, points)?;
        println!("  -> {csv}");
    }
    let json = report::write_bench_json(Path::new("results"), &sweep.bench_json(series, quick))?;
    println!("-> {} (+ ./BENCH_{}.json)", json.display(), sweep.name);
    Ok(())
}
