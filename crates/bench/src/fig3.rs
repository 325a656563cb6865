//! Figure 3 checks on `sweeps/fig3.sweep.json` at miniature scale.

mod tests {
    use crate::sweep::{committed, measure};

    #[test]
    fn replication_is_deterministic() {
        let s = committed(
            "fig3",
            r#"{"base.topology.switches": 24,
                "base.traffic.messages": 150,
                "axes.0.values": [{"set": {"traffic.multicast_dests": 4}}],
                "axes.1.values": [{"set": {"traffic.rate_per_node_per_us": 0.01}}]}"#,
        );
        let p = &s.grid().unwrap()[0];
        let a = measure(p, 5, s.metric).unwrap();
        let b = measure(p, 5, s.metric).unwrap();
        assert_eq!(a, b);
        assert!(a > 10.0, "latency {a} below the startup floor");
    }
}
