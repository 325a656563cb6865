//! Criterion benches for the routing-policy ablation arms (root and
//! selection policy) at smoke scale: one replication per iteration, so
//! `cargo bench` tracks simulator throughput per configuration. Ablations
//! B and D are sweep files; their request shapes are timed end to end by
//! perfbench's `sweep` workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netgraph::NodeId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spam_bench::{paper_labeling, paper_network};
use spam_core::{SelectionPolicy, SpamRouting};
use std::hint::black_box;
use updown::{RootSelection, UpDownLabeling};
use wormsim::{MessageSpec, NetworkSim, SimConfig};

/// One 32-destination multicast on a fixed 64-switch network.
fn multicast_once(
    topo: &netgraph::Topology,
    spam: &SpamRouting<'_>,
    cfg: SimConfig,
    seed: u64,
) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let procs: Vec<NodeId> = topo.processors().collect();
    let mut dests = procs.clone();
    dests.shuffle(&mut rng);
    let src = dests.pop().unwrap();
    dests.truncate(32);
    let mut sim = NetworkSim::new(topo, spam.clone(), cfg);
    sim.submit(MessageSpec::multicast(src, dests, 128)).unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    out.messages[0].latency().unwrap().as_us_f64()
}

fn bench_selection_policies(c: &mut Criterion) {
    let topo = paper_network(64, 3);
    let ud = paper_labeling(&topo);
    let base = SpamRouting::new(&topo, &ud);
    let mut g = c.benchmark_group("ablation_selection_policy_multicast");
    g.sample_size(10);
    for (name, policy) in [
        ("min-distance", SelectionPolicy::MinResidualDistance),
        ("first-legal", SelectionPolicy::FirstLegal),
        ("random", SelectionPolicy::RandomLegal { seed: 9 }),
    ] {
        let spam = base.with_policy(policy);
        g.bench_with_input(BenchmarkId::from_parameter(name), &spam, |b, s| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(multicast_once(&topo, s, SimConfig::paper(), seed))
            });
        });
    }
    g.finish();
}

fn bench_root_policies(c: &mut Criterion) {
    let topo = paper_network(64, 3);
    let mut g = c.benchmark_group("ablation_root_policy_multicast");
    g.sample_size(10);
    for (name, root) in [
        ("lowest-id", RootSelection::LowestId),
        ("min-eccentricity", RootSelection::MinEccentricity),
    ] {
        let ud = UpDownLabeling::build(&topo, root);
        let spam = SpamRouting::new(&topo, &ud);
        // Move `ud` lifetime issues aside by benching inside the scope.
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(multicast_once(&topo, &spam, SimConfig::paper(), seed))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_selection_policies, bench_root_policies);
criterion_main!(benches);
