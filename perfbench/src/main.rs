//! perfbench — the request-level benchmark of the SPAM workspace.
//!
//! Scenario requests go in as `run` lines and come out as result lines
//! carrying a digest, through an in-process `spam_serve::ServeCore`
//! driven by one closed-loop client (one request in flight) on one
//! thread. Every result is checked against a direct `run_once` of the
//! same spec. See `BENCHMARK.json` at the repository root for the
//! workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|sweep|large_fabric --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; their times are rescaled
//! to a reference host speed (see `calib`), and the raw wall times are
//! printed beside them. `--trace 1` alternates untraced passes with
//! traced ones and reports per-layer metrics in raw host time. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the lines before it are the human report (provenance,
//! then every metric with unit, median, quartiles and sample count).
//! `--bless` writes the oracle's fields for the default seed to
//! `expected/<workload>.json` instead of measuring. The exit code is 1
//! when any result is wrong, 2 on a usage or set-up error.

mod alloc;
mod calib;
mod layers;
mod oracle;
mod serve;
mod stats;
mod traced;
mod workload;

use calib::HostSpeed;
use spam_serve::{ServeCore, Session};
use stats::summarize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Request, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed whose oracle fields are committed under `expected/`.
const DEFAULT_SEED: u64 = 1;
/// Untraced passes per run, at least; more while `--seconds` allows.
const MIN_PASSES: usize = 3;
/// Traced and untraced passes per traced run, at least, each.
const MIN_TRACED_PASSES: usize = 2;
/// Set-ups timed before each untraced pass; `setup_s` is their median
/// over the whole run, so a transient stall on the host moves it little.
const SETUP_REPS: usize = 11;

const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("corpus|sweep|large_fabric"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<u32>()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("a whole number of seconds >= 1"))?
                    .into()
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bless,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One reported metric: its samples, summarized when printed.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// The reported value: the median, or 0 for a layer the workload
    /// never reached (the report line says so).
    fn value(&self) -> f64 {
        summarize(&self.samples).map_or(0.0, |s| s.median)
    }

    fn report_line(&self) -> String {
        match summarize(&self.samples) {
            None => format!("{:<30} {:<10} not exercised (n=0)", self.name, self.unit),
            Some(s) => {
                let spread = match s.quartiles {
                    Some((q1, q3)) => format!("q1 {q1:.6} q3 {q3:.6}"),
                    None => "q1 - q3 -".to_string(),
                };
                format!(
                    "{:<30} {:<10} median {:<14.6} {spread} n={}",
                    self.name, self.unit, s.median, s.n
                )
            }
        }
    }
}

fn json_escape(s: &str) -> String {
    spam_scenario::json::Json::Str(s.to_string()).to_string_compact()
}

/// Git revision (when the benchmark directory sits at the root of a git
/// work tree), compiler, host and input identity.
fn provenance(bench_dir: &Path, args: &Args, stream: &[Request]) -> String {
    let run = |prog: &str, argv: &[&str]| {
        Command::new(prog)
            .args(argv)
            .current_dir(bench_dir)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let repo_root = bench_dir.parent().map(Path::to_path_buf);
    let git_rev = run("git", &["rev-parse", "--show-toplevel", "HEAD"])
        .and_then(|out| {
            let mut lines = out.lines();
            let top = PathBuf::from(lines.next()?);
            let rev = lines.next()?.to_string();
            (Some(top) == repo_root).then_some(rev)
        })
        .unwrap_or_else(|| "unknown (not a git work tree)".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\":{},\"rustc\":{},\"nproc\":{nproc},\"cpu\":{},\"workload\":\"{}\",\"seed\":{},\"stream_hash\":\"{:#018x}\",\"requests\":{},\"seconds\":{},\"trace\":{}}}",
        json_escape(&git_rev),
        json_escape(&rustc),
        json_escape(&cpu),
        args.workload.name(),
        args.seed,
        workload::stream_hash(stream),
        stream.len(),
        args.seconds,
        u8::from(args.trace),
    )
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Whether another pass still fits in the run: at least `min` passes,
/// then only while the median pass ends before `seconds`.
fn another_pass(walls: &[f64], min: usize, elapsed: f64, seconds: f64) -> bool {
    walls.len() < min || elapsed + summarize(walls).map_or(0.0, |s| s.median) <= seconds
}

/// Set-up as a user pays it before a stream: generate and encode the
/// requests, build a core, greet it. Timed `SETUP_REPS` times, each
/// time pushed as `(raw, at reference speed)`; returns the last stream
/// and core.
fn setup(
    args: &Args,
    corpus_dir: &Path,
    speed: &mut HostSpeed,
    setup_s: &mut Vec<(f64, f64)>,
) -> Result<(Vec<Request>, ServeCore, Session), String> {
    for _ in 0..5 {
        speed.sample();
    }
    let factor = speed.take_factor();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let stream = workload::generate(args.workload, args.seed, corpus_dir)?;
        let (core, session) = serve::new_core()?;
        let raw = t.elapsed().as_secs_f64();
        setup_s.push((raw, raw * factor));
        last = Some((stream, core, session));
    }
    last.ok_or_else(|| "no set-up ran".into())
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let corpus_dir = bench_dir.join("corpus");

    let mut speed = HostSpeed::new(!args.trace);
    let mut setup_s = Vec::new();
    let stream = setup(&args, &corpus_dir, &mut speed, &mut setup_s)?.0;

    let prov = provenance(bench_dir, &args, &stream);
    println!("# perfbench provenance {prov}");

    let oracle_start = Instant::now();
    let oracle = oracle::compute(&stream)?;
    let expected_path = bench_dir
        .join("expected")
        .join(format!("{}.json", args.workload.name()));
    if args.bless {
        if args.seed != DEFAULT_SEED {
            return Err(format!("--bless pins the default seed {DEFAULT_SEED} only"));
        }
        let text = oracle::to_committed(args.workload.name(), args.seed, &stream, &oracle);
        let io = |e: std::io::Error| format!("{}: {e}", expected_path.display());
        if let Some(dir) = expected_path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        std::fs::write(&expected_path, text).map_err(io)?;
        println!("# wrote {}", expected_path.display());
        return Ok(true);
    }
    let mut failures: Vec<String> = Vec::new();
    if args.seed == DEFAULT_SEED {
        match oracle::check_committed(&expected_path, &stream, &oracle) {
            Ok(()) => println!("# oracle: run_once matches the committed fields"),
            Err(e) => failures.push(format!("committed oracle: {e}")),
        }
    }
    println!(
        "# oracle: {} requests, {} replications, {:.2} s",
        stream.len(),
        oracle.iter().map(Vec::len).sum::<usize>(),
        oracle_start.elapsed().as_secs_f64()
    );

    let (metrics, attempted, failed_requests) = if args.trace {
        layers::traced_run(&args, bench_dir, &stream, &oracle, &prov)?
    } else {
        untraced_run(&args, &corpus_dir, &stream, &oracle, speed, setup_s)?
    };
    let mut failed = failed_requests.len() as u64;
    failures.extend(failed_requests);
    if !failures.is_empty() {
        // A wrong committed oracle is not a request, but it still fails the run.
        failed = failed.max(1);
    }
    for f in failures.iter().take(20) {
        println!("# FAILED {f}");
    }
    println!(
        "{:<30} {:<10} {} ({failed} failed / {attempted} attempted)",
        "error_rate",
        "ratio",
        failed as f64 / attempted.max(1) as f64
    );

    let mut out = String::new();
    for m in &metrics {
        println!("{}", m.report_line());
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if out.is_empty() { "" } else { "," },
            m.name,
            m.value(),
            m.unit
        );
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{out}}}}}"
    );
    Ok(correct)
}

/// End-to-end metrics: repeated passes, each on a fresh core. The gated
/// times are at the reference host speed (see `calib`); the raw wall
/// times are printed beside them.
fn untraced_run(
    args: &Args,
    corpus_dir: &Path,
    stream: &[Request],
    oracle: &oracle::Oracle,
    mut speed: HostSpeed,
    mut setup_s: Vec<(f64, f64)>,
) -> Result<(Vec<Metric>, u64, Vec<String>), String> {
    let (mut walls, mut raw_walls) = (Vec::new(), Vec::new());
    let (mut request_ms, mut raw_request_ms) = (Vec::new(), Vec::new());
    let mut events_per_s = Vec::new();
    let mut attempted = 0;
    let mut failures = Vec::new();
    let start = Instant::now();
    while another_pass(
        &raw_walls,
        MIN_PASSES,
        start.elapsed().as_secs_f64(),
        args.seconds,
    ) {
        let (_, mut core, mut session) = setup(args, corpus_dir, &mut speed, &mut setup_s)?;
        let p = serve::pass(&mut speed, &mut core, &mut session, stream, oracle);
        drop(core);
        raw_walls.push(p.wall_s);
        walls.push(p.wall_s * p.speed);
        events_per_s.push(p.events as f64 / (p.wall_s * p.speed));
        request_ms.extend(p.request_ms.iter().map(|ms| ms * p.speed));
        raw_request_ms.extend(p.request_ms);
        attempted += p.attempted;
        failures.extend(p.failures);
    }
    let raw_setup_s = setup_s.iter().map(|s| s.0).collect();
    for m in [
        Metric::new("raw.setup_s", "s", raw_setup_s),
        Metric::new("raw.wall_s", "s", raw_walls),
        Metric::new("raw.request_p50_ms", "ms", raw_request_ms),
    ] {
        println!("# {}", m.report_line());
    }
    match stats::tail_percentile(&request_ms, 0.9) {
        Some(p90) => println!(
            "{:<30} {:<10} {p90} (nearest rank, n={})",
            "request_p90_ms",
            "ms",
            request_ms.len()
        ),
        None => println!(
            "{:<30} {:<10} not reported: {} requests leave fewer than 10 beyond p90",
            "request_p90_ms",
            "ms",
            request_ms.len()
        ),
    }
    let metrics = vec![
        Metric::new("setup_s", "s", setup_s.iter().map(|s| s.1).collect()),
        Metric::new("wall_s", "s", walls),
        Metric::new("request_p50_ms", "ms", request_ms),
        Metric::new("sim_events_per_s", "1/s", events_per_s),
        Metric::new("peak_rss_mib", "MiB", vec![peak_rss_mib()?]),
    ];
    Ok((metrics, attempted, failures))
}
