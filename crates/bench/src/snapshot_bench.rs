//! Checkpoint cost measurement: snapshot size, per-checkpoint encode
//! overhead, and restore time, swept over the paper's network sizes
//! (64 → 1024 switches) under the Figure 3 mixed workload.
//!
//! Three series, `x` = switch count:
//! * `snapshot_kib` — mean sealed snapshot size (KiB);
//! * `checkpoint_write_us` — mean wall-clock cost of encoding one
//!   snapshot (`NetworkSim::snapshot` + seal), timed directly over
//!   several encodes of the engine restored from the mid-run snapshot;
//! * `restore_us` — mean wall-clock cost of rebuilding a live engine
//!   from that mid-run snapshot (decode + validation, not the remainder
//!   of the run).

use crate::report::BenchJson;
use crate::{paper_network, PointSummary};
use desim::Duration;
use spam_core::SpamRouting;
use std::time::Instant;
use traffic::MixedTrafficConfig;
use updown::{RootSelection, UpDownLabeling};
use wormsim::{CheckpointSink, NetworkSim, SimConfig, SnapWriter};

/// One network size's measurements.
#[derive(Debug, Clone)]
pub struct SnapshotCost {
    /// Switch count.
    pub switches: usize,
    /// Checkpoints taken during the instrumented run.
    pub checkpoints: usize,
    /// Mean sealed snapshot size, bytes.
    pub mean_bytes: f64,
    /// Mean snapshot encode cost, µs.
    pub write_us: f64,
    /// Mean restore cost, µs.
    pub restore_us: f64,
}

fn workload(switches: usize) -> MixedTrafficConfig {
    // Enough load to keep worms in flight at every size without the
    // biggest sweep point taking minutes: 4 messages per processor.
    MixedTrafficConfig::figure3(0.25, 8, switches * 4)
}

/// Timed repetitions of each restore and encode.
const ITERS: u32 = 10;

/// Measures one network size. Deterministic workload; the only
/// nondeterminism is the wall clock.
pub fn measure(switches: usize, seed: u64) -> SnapshotCost {
    let topo = paper_network(switches, seed);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let stream = workload(switches)
        .generate(&topo, seed ^ 0x5eed)
        .expect("workload fits the paper network");
    let cfg = SimConfig::paper();

    let fresh = |checkpoint: Option<(Duration, CheckpointSink)>| {
        let mut sim = NetworkSim::new(&topo, SpamRouting::new(&topo, &ud), cfg);
        if let Some((every, sink)) = checkpoint {
            sim.enable_checkpoints(every, sink);
        }
        for m in stream.iter().cloned() {
            sim.submit(m)
                .expect("stream was generated for this topology");
        }
        sim
    };

    // Plain run: the horizon that sizes the checkpoint cadence (~8
    // checkpoints per run).
    let out = fresh(None).run();
    let every = Duration::from_ns((out.end_time.as_ns() / 8).max(1));

    let (sink, kept) = CheckpointSink::keep_all();
    fresh(Some((every, sink))).run();
    let kept = match kept.lock() {
        Ok(g) => g.clone(),
        Err(p) => p.into_inner().clone(),
    };
    let n = kept.len().max(1);
    let mean_bytes = kept.iter().map(|(_, b)| b.len() as f64).sum::<f64>() / n as f64;

    // Restore cost: rebuild from the mid-run snapshot a few times; write
    // cost: re-encode the restored mid-run state a few times.
    let (write_us, restore_us) = match kept.get(kept.len() / 2) {
        Some((_, bytes)) => {
            let restore = || NetworkSim::restore(&topo, SpamRouting::new(&topo, &ud), cfg, bytes);
            let t0 = Instant::now();
            for _ in 0..ITERS {
                restore().expect("own snapshot restores");
            }
            let restore_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS);
            let sim = restore().expect("own snapshot restores");
            let mut w = SnapWriter::with_capacity(bytes.len());
            let t0 = Instant::now();
            for _ in 0..ITERS {
                sim.snapshot(&mut w).expect("restored engine encodes");
                w.seal();
            }
            let write_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS);
            (write_us, restore_us)
        }
        None => (0.0, 0.0),
    };

    SnapshotCost {
        switches,
        checkpoints: kept.len(),
        mean_bytes,
        write_us,
        restore_us,
    }
}

/// The full sweep as a [`BenchJson`] record (`BENCH_snapshot.json`).
pub fn snapshot_bench_json(costs: &[SnapshotCost], seed: u64) -> BenchJson {
    let point = |x: f64, mean: f64, reps: u64| PointSummary {
        x,
        mean,
        ci_half_width: 0.0,
        reps,
        target_met: true,
    };
    let series = vec![
        (
            "snapshot_kib".to_string(),
            costs
                .iter()
                .map(|c| {
                    point(
                        c.switches as f64,
                        c.mean_bytes / 1024.0,
                        c.checkpoints as u64,
                    )
                })
                .collect(),
        ),
        (
            "checkpoint_write_us".to_string(),
            costs
                .iter()
                .map(|c| point(c.switches as f64, c.write_us, ITERS.into()))
                .collect(),
        ),
        (
            "restore_us".to_string(),
            costs
                .iter()
                .map(|c| point(c.switches as f64, c.restore_us, ITERS.into()))
                .collect(),
        ),
    ];
    BenchJson {
        name: "snapshot".to_string(),
        params: vec![
            ("seed".to_string(), seed.to_string()),
            (
                "sizes".to_string(),
                costs
                    .iter()
                    .map(|c| c.switches.to_string())
                    .collect::<Vec<_>>()
                    .join("/"),
            ),
            (
                "workload".to_string(),
                "fig3 mixed, 4 msgs/proc".to_string(),
            ),
        ],
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_measures_and_serializes() {
        let cost = measure(24, 3);
        assert!(cost.checkpoints >= 1, "cadence must fire: {cost:?}");
        assert!(cost.mean_bytes > 0.0);
        assert!(cost.write_us > 0.0 && cost.restore_us > 0.0, "{cost:?}");
        let bench = snapshot_bench_json(&[cost], 3);
        assert_eq!(bench.name, "snapshot");
        assert_eq!(bench.series.len(), 3);
    }
}
