//! Ablation studies from DESIGN.md (all grounded in §5's future-work
//! discussion) that need more than the scenario model's axes:
//!
//! * **A — root selection**: the spanning-tree root shapes every route;
//!   §5 notes that "judicious selection of spanning trees ... may have
//!   significant effects on performance".
//! * **C — destination partitioning**: §5's proposed mitigation of the
//!   root hot-spot: split one worm into several tree-contiguous worms.
//!
//! Ablations B (input-buffer depth) and D (SPAM vs software multicast)
//! are plain scenario grids: `sweeps/ablation_buffers.sweep.json` and
//! `sweeps/ablation_baseline.sweep.json`, run by the `sweep` binary.

use crate::sweep::replicate_parallel_with;
use crate::{paper_network, PointSummary};
use desim::Time;
use netgraph::NodeId;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simstats::{ConfidenceLevel, PrecisionController};
use spam_core::{partition_specs, PartitionStrategy, SpamRouting};
use spam_scenario::split_seed;
use traffic::DestinationSampler;
use updown::{RootSelection, UpDownLabeling};
use wormsim::{MessageSpec, NetworkSim, SimConfig};

/// Common knobs for the ablation sweeps.
#[derive(Debug, Clone, Copy)]
pub struct AblationConfig {
    /// Network size in switches.
    pub switches: usize,
    /// Relative CI target.
    pub target_rel: f64,
    /// Replication budget per point.
    pub max_reps: u64,
    /// RNG stream.
    pub seed: u64,
}

impl AblationConfig {
    /// Paper-scale defaults (128 nodes, 1 % CI).
    pub fn paper() -> Self {
        AblationConfig {
            switches: 128,
            target_rel: 0.01,
            max_reps: 1000,
            seed: 0x0AB1_A7E5,
        }
    }

    /// Fast defaults for smoke tests.
    pub fn quick() -> Self {
        AblationConfig {
            switches: 32,
            target_rel: 0.05,
            max_reps: 24,
            seed: 0x0AB1_A7E5,
        }
    }
}

/// Replicates `rep` (a pure function of its seed) on the seeds of
/// `stream` until `cfg`'s precision target is met.
fn controlled(
    cfg: &AblationConfig,
    stream: u64,
    x: f64,
    rep: impl Fn(u64) -> f64 + Sync,
) -> PointSummary {
    let mut ctl = PrecisionController::new(cfg.target_rel, ConfidenceLevel::P95, 3, cfg.max_reps);
    replicate_parallel_with(
        |i| rep(split_seed(stream, i)),
        |v| {
            ctl.push(v);
            ctl.satisfied()
        },
    );
    PointSummary::of(x, &ctl)
}

// ---------------------------------------------------------------- A: root

/// Mean single-multicast latency under one root policy.
fn root_policy_rep(switches: usize, root: RootSelection, dests: usize, seed: u64) -> f64 {
    let topo = paper_network(switches, split_seed(seed, 0xA));
    let ud = UpDownLabeling::build(&topo, root);
    let spam = SpamRouting::new(&topo, &ud);
    let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(seed, 0xB));
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[rng.gen_range(0..procs.len())];
    let mut others: Vec<NodeId> = procs.iter().copied().filter(|&p| p != src).collect();
    others.shuffle(&mut rng);
    others.truncate(dests);
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(src, others, 128))
        .unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    out.messages[0].latency().unwrap().as_us_f64()
}

/// Ablation A: multicast latency per root-selection policy (x = policy
/// index in the returned label order).
pub fn run_root_selection(cfg: &AblationConfig, dests: usize) -> Vec<(String, PointSummary)> {
    let policies: [(&str, RootSelection); 4] = [
        ("lowest-id", RootSelection::LowestId),
        ("max-degree", RootSelection::MaxDegree),
        ("min-eccentricity", RootSelection::MinEccentricity),
        ("random", RootSelection::RandomSeeded(cfg.seed)),
    ];
    policies
        .iter()
        .enumerate()
        .map(|(i, (name, root))| {
            let p = controlled(cfg, split_seed(cfg.seed, i as u64), i as f64, |s| {
                root_policy_rep(cfg.switches, *root, dests, s)
            });
            (name.to_string(), p)
        })
        .collect()
}

// ----------------------------------------------------------- C: partition

/// Strategies compared by ablation C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionArm {
    /// One worm for all destinations (plain SPAM).
    SingleWorm,
    /// §5's proposal: tree-contiguous groups, one worm each.
    Subtrees {
        /// Group budget.
        max_groups: usize,
    },
    /// Naive id-sorted chunks.
    IdChunks {
        /// Number of chunks.
        groups: usize,
    },
}

impl PartitionArm {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            PartitionArm::SingleWorm => "single-worm".into(),
            PartitionArm::Subtrees { max_groups } => format!("subtrees({max_groups})"),
            PartitionArm::IdChunks { groups } => format!("id-chunks({groups})"),
        }
    }
}

/// One replication of ablation C: clustered destination set, background
/// unicast traffic, measure the makespan until *all* groups delivered.
fn partition_rep(
    switches: usize,
    dests: usize,
    arm: PartitionArm,
    background: usize,
    seed: u64,
) -> f64 {
    let topo = paper_network(switches, split_seed(seed, 0xA));
    let ud = crate::paper_labeling(&topo);
    let spam = SpamRouting::new(&topo, &ud);
    let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(seed, 0xB));
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[rng.gen_range(0..procs.len())];
    let dset = DestinationSampler::UniformRandom { count: dests }
        .sample(&topo, src, &mut rng)
        .expect("enough processors");
    let base = MessageSpec::multicast(src, dset, 128).tag(1000);
    let specs = match arm {
        PartitionArm::SingleWorm => vec![base],
        PartitionArm::Subtrees { max_groups } => partition_specs(
            &ud,
            &base,
            PartitionStrategy::SubtreesUnderLca { max_groups },
            1000,
        ),
        PartitionArm::IdChunks { groups } => {
            partition_specs(&ud, &base, PartitionStrategy::IdChunks { groups }, 1000)
        }
    };
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    for s in &specs {
        sim.submit(s.clone()).unwrap();
    }
    // Background unicasts make the root hot-spot matter.
    for i in 0..background {
        let a = procs[rng.gen_range(0..procs.len())];
        let b = DestinationSampler::UniformRandom { count: 1 }
            .sample(&topo, a, &mut rng)
            .expect("enough processors");
        sim.submit(
            MessageSpec::multicast(a, b, 128)
                .at(Time::from_ns(rng.gen_range(0..5_000)))
                .tag(i as u64),
        )
        .unwrap();
    }
    let out = sim.run();
    assert!(out.all_delivered());
    // Makespan over the multicast's groups.
    out.messages
        .iter()
        .filter(|m| m.spec.tag >= 1000)
        .map(|m| m.completed_at.unwrap().since(m.spec.gen_time).as_us_f64())
        .fold(0.0, f64::max)
}

/// Ablation C: multicast makespan per partitioning arm.
pub fn run_partition(
    cfg: &AblationConfig,
    dests: usize,
    background: usize,
    arms: &[PartitionArm],
) -> Vec<(String, PointSummary)> {
    arms.iter()
        .enumerate()
        .map(|(i, arm)| {
            let p = controlled(cfg, split_seed(cfg.seed, 0xC0 + i as u64), i as f64, |s| {
                partition_rep(cfg.switches, dests, *arm, background, s)
            });
            (arm.label(), p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_selection_arms_all_run() {
        let cfg = AblationConfig {
            switches: 24,
            target_rel: 0.10,
            max_reps: 8,
            seed: 3,
        };
        let rows = run_root_selection(&cfg, 8);
        assert_eq!(rows.len(), 4);
        for (name, p) in &rows {
            assert!(p.mean > 10.0, "{name} mean {}", p.mean);
        }
    }

    #[test]
    fn partition_arms_all_deliver() {
        let cfg = AblationConfig {
            switches: 24,
            target_rel: 0.2,
            max_reps: 4,
            seed: 5,
        };
        let rows = run_partition(
            &cfg,
            12,
            8,
            &[
                PartitionArm::SingleWorm,
                PartitionArm::Subtrees { max_groups: 4 },
                PartitionArm::IdChunks { groups: 4 },
            ],
        );
        assert_eq!(rows.len(), 3);
        for (label, p) in &rows {
            assert!(p.mean > 10.0, "{label}: {}", p.mean);
        }
    }
}
