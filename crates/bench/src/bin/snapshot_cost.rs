//! Measures checkpoint/restore cost over the paper's network sizes and
//! writes `BENCH_snapshot.json` (plus a `results/` copy).
//!
//! ```text
//! cargo run -p spam-bench --bin snapshot_cost --release
//! cargo run -p spam-bench --bin snapshot_cost --release -- --quick
//! ```

use spam_bench::report;
use spam_bench::snapshot_bench::{measure, snapshot_bench_json};
use std::path::Path;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    let seed = 1998;

    println!(
        "  {:>8} {:>12} {:>12} {:>16} {:>12}",
        "switches", "checkpoints", "mean KiB", "write µs", "restore µs"
    );
    let mut costs = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let t0 = std::time::Instant::now();
        let c = measure(n, seed);
        println!(
            "  {:>8} {:>12} {:>12.1} {:>16.1} {:>12.1}   ({:.1?})",
            c.switches,
            c.checkpoints,
            c.mean_bytes / 1024.0,
            c.write_us,
            c.restore_us,
            t0.elapsed()
        );
        costs.push(c);
    }

    let bench = snapshot_bench_json(&costs, seed);
    let path = report::write_bench_json(Path::new("results"), &bench).expect("write bench json");
    println!("-> {} (+ ./BENCH_snapshot.json)", path.display());
}
