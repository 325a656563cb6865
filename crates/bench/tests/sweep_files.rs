//! The committed `sweeps/*.sweep.json` files, run through the one sweep
//! runner at miniature scale: each file's `quick` block, then a few test
//! overrides applied by the same override code. These pin the paper's
//! shapes — load-sensitive Figure 3, the broadcast gap, SPAM beating
//! software multicast on degraded fabrics, deeper buffers never
//! hurting — plus the runner's determinism, its grid order and
//! paired design, and its refusal to drop an undelivered replication.

use spam_bench::report::bench_json_text;
use spam_bench::sweep::{apply_overrides, parse_doc, SweepError, SweepSpec};
use spam_bench::PointSummary;
use spam_scenario::json;
use spam_scenario::{run_once, RoutingSpec};
use std::path::PathBuf;

const SWEEPS: [&str; 7] = [
    "fig2_128",
    "fig2_256",
    "fig3",
    "broadcast",
    "fault_sweep",
    "ablation_buffers",
    "ablation_baseline",
];

fn sweep_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../sweeps")
        .join(format!("{name}.sweep.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The committed sweep `name` with its quick block and then `overrides`
/// (a JSON object of path → value) applied.
fn sweep(name: &str, overrides: &str) -> SweepSpec {
    let mut doc = parse_doc(&sweep_text(name), true).unwrap();
    let set = json::parse(overrides).unwrap();
    apply_overrides(&mut doc, &set, "test").unwrap();
    SweepSpec::from_value(&doc).unwrap()
}

fn run(s: &SweepSpec) -> Vec<(String, Vec<PointSummary>)> {
    s.run().unwrap_or_else(|e| panic!("{}: {e}", s.name))
}

fn series<'a>(out: &'a [(String, Vec<PointSummary>)], name: &str) -> &'a [PointSummary] {
    &out.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no series {name}"))
        .1
}

/// Software multicast is more than twice as slow as SPAM at every point.
fn assert_software_slower(spam: &[PointSummary], soft: &[PointSummary]) {
    assert_eq!(spam.len(), soft.len());
    for (a, b) in spam.iter().zip(soft) {
        assert_eq!(a.x, b.x);
        let (a, b) = (a.mean, b.mean);
        assert!(b > 2.0 * a, "x {}: software {b} vs SPAM {a}", spam[0].x);
    }
}

#[test]
fn committed_sweeps_decode_and_every_grid_point_validates() {
    for name in SWEEPS {
        for quick in [false, true] {
            let s = SweepSpec::from_json(&sweep_text(name), quick)
                .unwrap_or_else(|e| panic!("{name} (quick {quick}): {e}"));
            assert_eq!(s.name, name);
            let grid = s.grid().unwrap_or_else(|e| panic!("{name}: {e}"));
            let expect: usize = s.axes.iter().map(|a| a.values.len()).product();
            assert_eq!(grid.len(), expect);
        }
    }
}

#[test]
fn fig3_latency_rises_with_load() {
    let s = sweep(
        "fig3",
        r#"{"base.topology.switches": 24,
            "axes.0.values": [{"label": "4 destinations", "set": {"traffic.multicast_dests": 4}}],
            "axes.1.values": [{"set": {"traffic.rate_per_node_per_us": 0.004}},
                              {"set": {"traffic.rate_per_node_per_us": 0.08}}]}"#,
    );
    let out = run(&s);
    let pts = series(&out, "4 destinations");
    let (lo, hi) = (pts[0].mean, pts[1].mean);
    assert!(
        lo > 10.0 && hi > lo,
        "latency must rise with load: {lo} !< {hi}"
    );
}

#[test]
fn broadcast_spam_is_under_14us_and_3x_faster_than_software() {
    let s = sweep(
        "broadcast",
        r#"{"axes.1.values": [{"set": {"topology.switches": 32, "traffic.dests": 31}}]}"#,
    );
    let out = run(&s);
    let spam = series(&out, "SPAM")[0].mean;
    let soft = series(&out, "software")[0].mean;
    assert!(spam < 14.0, "SPAM broadcast {spam} µs");
    // d = 31 destinations: ⌈log₂ 32⌉ = 5 startups of 10 µs at least.
    assert!(soft >= 50.0, "software {soft} µs beat its lower bound");
    assert!(soft > 3.0 * spam, "software {soft} vs SPAM {spam}");
}

#[test]
fn software_is_slower_than_spam_at_every_fault_rate_and_reruns_identically() {
    let s = sweep(
        "fault_sweep",
        r#"{"base.topology.switches": 32,
            "axes.1.values": [{"label": "k=8", "set": {"traffic.dests": 8}}]}"#,
    );
    let out = run(&s);
    // Determinism: a second run renders the same BENCH bytes.
    let record = bench_json_text(&s.bench_json(out.clone(), true));
    assert_eq!(record, bench_json_text(&s.bench_json(run(&s), true)));
    let spam = series(&out, "SPAM k=8");
    assert_eq!(spam.len(), 3);
    // Rate 0 is an ordinary Figure 2 multicast: above the 10 µs startup.
    assert!(
        spam[0].mean > 10.0 && spam[0].mean < 20.0,
        "{}",
        spam[0].mean
    );
    assert_software_slower(spam, series(&out, "software k=8"));
}

#[test]
fn ablation_d_software_is_slower_than_spam_for_every_multicast() {
    let s = sweep(
        "ablation_baseline",
        r#"{"base.topology.switches": 24,
            "axes.1.values": [{"set": {"traffic.dests": 4}}, {"set": {"traffic.dests": 16}}]}"#,
    );
    let out = run(&s);
    assert_software_slower(series(&out, "SPAM"), series(&out, "software"));
}

#[test]
fn ablation_b_deeper_buffers_never_hurt() {
    let s = sweep(
        "ablation_buffers",
        r#"{"base.topology.switches": 24,
            "base.traffic.messages": 200,
            "axes.0.values": [
              {"set": {"engine.input_buffer_flits": 1, "engine.output_buffer_flits": 1}},
              {"set": {"engine.input_buffer_flits": 4, "engine.output_buffer_flits": 4}}],
            "precision.target_rel": 0.1,
            "precision.max_reps": 6}"#,
    );
    let out = run(&s);
    let pts = series(&out, "ablation_buffers");
    assert_eq!((pts[0].x, pts[1].x), (1.0, 4.0));
    let (shallow, deep) = (pts[0].mean, pts[1].mean);
    assert!(
        deep <= shallow * 1.02,
        "deeper buffers hurt: {shallow} -> {deep}"
    );
}

#[test]
fn paired_arms_share_fabric_faults_and_traffic() {
    let s = sweep("fault_sweep", r#"{"base.topology.switches": 48}"#);
    assert_eq!(
        s.series_names(),
        ["SPAM k=8", "SPAM k=32", "software k=8", "software k=32"]
    );
    // Series-major, x axis fastest.
    let grid = s.grid().unwrap();
    let coords: Vec<(&str, f64)> = grid.iter().map(|p| (p.name.as_str(), p.x)).collect();
    assert_eq!(
        coords[..4],
        [
            ("SPAM, k=8, fault_rate=0", 0.0),
            ("SPAM, k=8, fault_rate=0.1", 0.1),
            ("SPAM, k=8, fault_rate=0.2", 0.2),
            ("SPAM, k=32, fault_rate=0", 0.0),
        ]
    );
    let half = grid.len() / 2;
    for (spam, soft) in grid[..half].iter().zip(&grid[half..]) {
        assert!(matches!(spam.spec.routing, RoutingSpec::Spam { .. }));
        assert_eq!(soft.spec.routing, RoutingSpec::SoftwareMulticast);
        let mut same = soft.spec.clone();
        same.routing = spam.spec.routing;
        assert_eq!(same, spam.spec, "arms differ beyond routing");
    }
    // Same replication, same instance: the software tree starts at the
    // SPAM worm's source and covers exactly its destinations.
    let (spam, soft) = (&grid[2].spec, &grid[half + 2].spec);
    for rep in 0..2 {
        let worm = run_once(spam, rep, None).unwrap().messages[0].spec.clone();
        let tree = run_once(soft, rep, None).unwrap();
        let msgs = &tree.messages;
        let root = msgs.iter().min_by_key(|m| m.spec.gen_time).unwrap();
        assert_eq!(root.spec.src, worm.src);
        let mut reached: Vec<_> = msgs.iter().flat_map(|m| m.spec.dests.clone()).collect();
        let mut want = worm.dests;
        reached.sort();
        want.sort();
        assert_eq!(reached, want);
    }
}

#[test]
fn undelivered_replication_stops_the_sweep_naming_point_and_rep() {
    // A live link-fault storm tears worms down mid-run: the sweep must
    // refuse the replication, not average over the survivors.
    let s = sweep(
        "fig3",
        r#"{"base.faults": {"kind": "storm", "model": {"kind": "iid_links", "rate": 0.3},
                            "seed": 5, "window_start_us": 0, "window_end_us": 50,
                            "bursts": 2},
            "axes.0.values": [{"label": "8 destinations", "set": {"traffic.multicast_dests": 8}}],
            "axes.1.values": [{"set": {"traffic.rate_per_node_per_us": 0.02}}],
            "base.traffic.messages": 150}"#,
    );
    match s.run() {
        Err(SweepError::Undelivered {
            point,
            rep,
            delivered,
            submitted,
        }) => {
            assert_eq!(point, "8 destinations, rate=0.02");
            assert_eq!(rep, 0);
            assert!(delivered < submitted);
        }
        other => panic!("expected Undelivered, got {other:?}"),
    }
}
