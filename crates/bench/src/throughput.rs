//! Engine throughput: how many simulator events (and delivered messages)
//! per wall-clock second the hot path sustains under saturating multicast
//! load, across network sizes.
//!
//! Unlike every other benchmark in this crate, the measured quantity is
//! *wall-clock* performance of the simulator itself, not simulated
//! latency: this is the harness behind the repo's "as fast as the hardware
//! allows" north star. The workload is deliberately brutal for the hot
//! path — every processor injects several multi-destination worms at time
//! zero, so the network saturates immediately and stays backlogged until
//! the last tail drains: maximal OCRQ contention, maximal flit-replication
//! traffic, maximal event density.
//!
//! Determinism: the traffic pattern depends only on `(seed, switches)`, so
//! two engines (or two revisions of one engine) given the same config
//! simulate byte-identical runs — the *simulated* outcome is asserted
//! stable via checksum fields, making events/sec comparisons apples to
//! apples.

use crate::{paper_labeling, paper_network};
use netgraph::NodeId;
use spam_core::SpamRouting;
use spam_scenario::split_seed;
use std::time::Instant;
use wormsim::{MessageSpec, NetworkSim, SimConfig};

/// Workload parameters for one throughput sweep.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Network sizes (switch counts) to sweep.
    pub sizes: Vec<usize>,
    /// Multicasts injected per processor (all at time zero).
    pub msgs_per_proc: usize,
    /// Destinations per multicast.
    pub dests: usize,
    /// Worm length in flits.
    pub len: u32,
    /// Timed repetitions per size (best-of, to shed scheduler noise).
    pub reps: usize,
    /// Base seed for topology + traffic.
    pub seed: u64,
}

impl ThroughputConfig {
    /// The full sweep: 64 → 1024 switches. Two 8-destination multicasts
    /// per processor, all at time zero, keep every size deeply backlogged
    /// (hundreds of simultaneous worms against ~a hundred concurrently
    /// holdable channel sets) while the whole sweep stays runnable on a
    /// single core — including on the slow pre-refactor engine the
    /// committed baseline was recorded with.
    pub fn full() -> Self {
        ThroughputConfig {
            sizes: vec![64, 128, 256, 512, 1024],
            msgs_per_proc: 2,
            dests: 8,
            len: 32,
            reps: 2,
            seed: 2024,
        }
    }

    /// A CI-sized sweep (seconds, not minutes).
    pub fn quick() -> Self {
        ThroughputConfig {
            sizes: vec![64, 256],
            msgs_per_proc: 2,
            dests: 8,
            len: 32,
            reps: 2,
            seed: 2024,
        }
    }
}

/// Measured throughput at one network size.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Switch count (= processor count) of the network.
    pub switches: usize,
    /// Messages submitted.
    pub messages: u64,
    /// Engine events processed in one run.
    pub events: u64,
    /// Flits delivered in one run.
    pub flits_delivered: u64,
    /// Segment-state lookups on the event path (each was a hash-map probe
    /// before the arena refactor; an array index after).
    pub seg_lookups: u64,
    /// Simulated end time of the run (ns) — a determinism checksum.
    pub sim_end_ns: u64,
    /// Best wall-clock seconds over the configured repetitions.
    pub wall_s: f64,
    /// Events per wall-clock second (best rep).
    pub events_per_sec: f64,
    /// Delivered messages per wall-clock second (best rep).
    pub msgs_per_sec: f64,
}

/// Builds the deterministic saturating-multicast message list for one
/// network.
fn traffic(procs: &[NodeId], cfg: &ThroughputConfig, seed: u64) -> Vec<MessageSpec> {
    let mut specs = Vec::with_capacity(procs.len() * cfg.msgs_per_proc);
    for (pi, &src) in procs.iter().enumerate() {
        for m in 0..cfg.msgs_per_proc {
            // Deterministic distinct destination set: stride around the
            // processor ring from a seeded offset.
            let mix = split_seed(seed, (pi * cfg.msgs_per_proc + m) as u64);
            let start = (mix as usize) % procs.len();
            let mut stride = 1 + (mix >> 32) as usize % (procs.len() - 1);
            let mut dests = Vec::with_capacity(cfg.dests);
            let mut at = start;
            let mut collisions = 0;
            let mut degraded = false;
            while dests.len() < cfg.dests.min(procs.len() - 1) {
                at = (at + stride) % procs.len();
                let d = procs[at];
                if d != src && !dests.contains(&d) {
                    dests.push(d);
                    collisions = 0;
                } else {
                    collisions += 1;
                    if collisions > 2 * procs.len() {
                        // A collision streak this long proves the strided
                        // walk is stuck (e.g. stride len-1 cancels the +1
                        // phase shift and re-probes one slot forever).
                        // Degrade to *pure* linear probing — no phase
                        // shift — which visits every slot, so it always
                        // terminates (dests < procs). Unreachable on
                        // walks that were already terminating, so
                        // recorded baselines are unaffected.
                        degraded = true;
                        stride = 1;
                    }
                    if !degraded {
                        at += 1; // collision: fall through to the next slot
                    }
                }
            }
            specs.push(MessageSpec::multicast(src, dests, cfg.len).tag((pi * 31 + m) as u64));
        }
    }
    specs
}

/// Runs the sweep, one point per network size.
pub fn run(cfg: &ThroughputConfig) -> Vec<ThroughputPoint> {
    cfg.sizes
        .iter()
        .map(|&switches| run_one(cfg, switches))
        .collect()
}

/// Runs (and times) the saturating workload on one network size.
pub fn run_one(cfg: &ThroughputConfig, switches: usize) -> ThroughputPoint {
    let topo = paper_network(switches, split_seed(cfg.seed, switches as u64));
    let ud = paper_labeling(&topo);
    let spam = SpamRouting::new(&topo, &ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let specs = traffic(&procs, cfg, split_seed(cfg.seed, 0x7AFF));

    let mut best: Option<ThroughputPoint> = None;
    for _ in 0..cfg.reps.max(1) {
        let mut sim = NetworkSim::new(&topo, spam.clone(), SimConfig::paper());
        for s in &specs {
            sim.submit(s.clone()).expect("throughput spec valid");
        }
        let t0 = Instant::now();
        let out = sim.run();
        let wall = t0.elapsed().as_secs_f64();
        assert!(
            out.all_delivered(),
            "throughput workload must complete: {:?} {:?}",
            out.error,
            out.deadlock
        );
        let point = ThroughputPoint {
            switches,
            messages: out.messages.len() as u64,
            events: out.counters.events,
            flits_delivered: out.counters.flits_delivered,
            seg_lookups: out.counters.seg_lookups,
            sim_end_ns: out.end_time.as_ns(),
            wall_s: wall,
            events_per_sec: out.counters.events as f64 / wall,
            msgs_per_sec: out.counters.messages_completed as f64 / wall,
        };
        match &best {
            Some(b) if b.wall_s <= point.wall_s => {}
            _ => best = Some(point),
        }
    }
    best.expect("at least one rep")
}

/// Writes the sweep as CSV.
pub fn write_csv(path: &std::path::Path, points: &[ThroughputPoint]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "switches,messages,events,flits_delivered,seg_lookups,sim_end_ns,wall_s,events_per_sec,msgs_per_sec"
    )?;
    for p in points {
        writeln!(
            f,
            "{},{},{},{},{},{},{:.6},{:.1},{:.1}",
            p.switches,
            p.messages,
            p.events,
            p.flits_delivered,
            p.seg_lookups,
            p.sim_end_ns,
            p.wall_s,
            p.events_per_sec,
            p.msgs_per_sec
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_deterministic_and_valid() {
        let topo = paper_network(16, 1);
        let procs: Vec<NodeId> = topo.processors().collect();
        let cfg = ThroughputConfig {
            sizes: vec![16],
            msgs_per_proc: 2,
            dests: 4,
            len: 8,
            reps: 1,
            seed: 7,
        };
        let a = traffic(&procs, &cfg, 99);
        let b = traffic(&procs, &cfg, 99);
        assert_eq!(a, b, "same seed, same traffic");
        assert_eq!(a.len(), procs.len() * 2);
        for s in &a {
            s.validate(&topo).expect("every spec valid");
            assert_eq!(s.dests.len(), 4);
        }
    }

    #[test]
    fn stuck_stride_walks_terminate() {
        // Regression: a seeded stride of procs.len()-1 cancels the +1
        // collision phase shift and used to re-probe one slot forever.
        // This exact (seed, size, dests) draws such a stride on a
        // 16-processor network.
        let topo = paper_network(16, split_seed(2024, 16));
        let procs: Vec<NodeId> = topo.processors().collect();
        let cfg = ThroughputConfig {
            sizes: vec![16],
            msgs_per_proc: 2,
            dests: 8,
            len: 32,
            reps: 1,
            seed: 2024,
        };
        let specs = traffic(&procs, &cfg, split_seed(2024, 0x7AFF));
        assert_eq!(specs.len(), 32);
        for s in &specs {
            s.validate(&topo).expect("every spec valid");
            assert_eq!(s.dests.len(), 8);
        }
    }

    #[test]
    fn degraded_walks_terminate_on_small_even_rings() {
        // Step-2 probing (a +1 phase shift on top of stride 1) stays on
        // one parity class of an even ring and can spin forever when
        // that class fills up; pure linear probing cannot. Sweep many
        // seeds on the tightest configuration (8 of 9 eligible
        // destinations on a 10-ring): every walk must terminate.
        let topo = paper_network(10, 5);
        let procs: Vec<NodeId> = topo.processors().collect();
        let cfg = ThroughputConfig {
            sizes: vec![10],
            msgs_per_proc: 2,
            dests: 8,
            len: 32,
            reps: 1,
            seed: 0,
        };
        for seed in 0..200 {
            for s in traffic(&procs, &cfg, seed) {
                assert_eq!(s.dests.len(), 8, "seed {seed}");
                s.validate(&topo).expect("every spec valid");
            }
        }
    }

    #[test]
    fn tiny_sweep_completes_and_counts_events() {
        let cfg = ThroughputConfig {
            sizes: vec![16],
            msgs_per_proc: 1,
            dests: 2,
            len: 4,
            reps: 1,
            seed: 3,
        };
        let pts = run(&cfg);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].events > 0);
        assert!(pts[0].events_per_sec > 0.0);
        assert_eq!(pts[0].messages, 16);
    }

    #[test]
    fn repeated_runs_simulate_identically() {
        let cfg = ThroughputConfig {
            sizes: vec![16],
            msgs_per_proc: 1,
            dests: 3,
            len: 8,
            reps: 1,
            seed: 11,
        };
        let a = run_one(&cfg, 16);
        let b = run_one(&cfg, 16);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_end_ns, b.sim_end_ns);
        assert_eq!(a.flits_delivered, b.flits_delivered);
    }
}
