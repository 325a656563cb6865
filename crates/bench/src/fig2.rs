//! Figure 2 checks on `sweeps/fig2_128.sweep.json` at miniature scale:
//! single replications and the flat latency-vs-destinations shape.

mod tests {
    use crate::sweep::{committed, measure};

    #[test]
    fn single_replication_is_deterministic_and_sane() {
        let s = committed(
            "fig2_128",
            r#"{"base.topology.switches": 32,
                "axes.0.values": [{"set": {"traffic.dests": 8}}]}"#,
        );
        let p = &s.grid().unwrap()[0];
        let a = measure(p, 42, s.metric).unwrap();
        let b = measure(p, 42, s.metric).unwrap();
        assert_eq!(a, b);
        // Startup alone is 10 µs; a 32-node network adds a few hundred ns.
        assert!(a > 10.0 && a < 20.0, "latency {a} µs out of range");
    }

    #[test]
    fn latency_is_flat_in_destination_count() {
        let s = committed(
            "fig2_128",
            r#"{"base.topology.switches": 32,
                "axes.0.values": [{"set": {"traffic.dests": 1}},
                                  {"set": {"traffic.dests": 8}},
                                  {"set": {"traffic.dests": 31}}],
                "precision.max_reps": 24}"#,
        );
        let out = s.run().unwrap();
        let pts = &out[0].1;
        // A broadcast costs at most ~20 % more than a unicast.
        let (uni, bcast) = (pts[0].mean, pts[2].mean);
        assert!(bcast <= uni * 1.2, "multicast not flat: {uni} -> {bcast}");
        // And every point is above the startup floor.
        for p in pts {
            assert!(p.mean > 10.0 && p.mean < 20.0, "dests {}: {}", p.x, p.mean);
            assert!(p.reps >= 3);
        }
    }
}
