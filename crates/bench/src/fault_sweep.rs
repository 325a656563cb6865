//! Fault-sweep checks on `sweeps/fault_sweep.sweep.json` at miniature
//! scale: SPAM against software multicast on statically degraded fabrics.

mod tests {
    use crate::sweep::{committed, measure, GridPoint, SweepSpec};
    use spam_scenario::{ArtifactPrefix, RoutingSpec};

    /// The fault sweep on `switches` switches, `len`-flit messages, with
    /// the given multicast sizes and fault rates.
    fn fault_sweep(switches: usize, len: u32, dests: &[usize], rates: &[f64]) -> SweepSpec {
        let dests: Vec<String> = dests
            .iter()
            .map(|d| format!(r#"{{"label": "k={d}", "set": {{"traffic.dests": {d}}}}}"#))
            .collect();
        let rates: Vec<String> = rates
            .iter()
            .map(|r| format!(r#"{{"set": {{"faults.model.rate": {r}}}}}"#))
            .collect();
        committed(
            "fault_sweep",
            &format!(
                r#"{{"base.topology.switches": {switches}, "base.traffic.len": {len},
                    "axes.1.values": [{}], "axes.2.values": [{}]}}"#,
                dests.join(", "),
                rates.join(", ")
            ),
        )
    }

    /// The SPAM and software arms of a one-cell sweep.
    fn arms(s: &SweepSpec) -> (GridPoint, GridPoint) {
        let mut grid = s.grid().unwrap();
        assert_eq!(grid.len(), 2);
        let soft = grid.pop().unwrap();
        let spam = grid.pop().unwrap();
        assert!(matches!(spam.spec.routing, RoutingSpec::Spam { .. }));
        assert_eq!(soft.spec.routing, RoutingSpec::SoftwareMulticast);
        (spam, soft)
    }

    #[test]
    fn replications_are_deterministic() {
        let s = fault_sweep(24, 32, &[4], &[0.15]);
        let (spam, soft) = arms(&s);
        for p in [&spam, &soft] {
            assert_eq!(
                measure(p, 7, s.metric).unwrap(),
                measure(p, 7, s.metric).unwrap()
            );
        }
    }

    #[test]
    fn spam_beats_software_even_degraded() {
        // Miniature sweep cell: one startup vs ceil(log2(d+1)) startups
        // dominates even at a 20% link-fault rate.
        let s = fault_sweep(24, 64, &[7], &[0.2]);
        let (spam, soft) = arms(&s);
        let mut spam_acc = 0.0;
        let mut soft_acc = 0.0;
        for rep in 0..6 {
            spam_acc += measure(&spam, rep, s.metric).unwrap();
            soft_acc += measure(&soft, rep, s.metric).unwrap();
        }
        assert!(
            soft_acc > spam_acc * 2.0,
            "software {soft_acc} vs spam {spam_acc}"
        );
    }

    #[test]
    fn pristine_rate_matches_fig2_style_latency() {
        // rate 0.0 reduces to an ordinary single multicast: above the
        // 10 µs startup floor, below saturation.
        let s = fault_sweep(32, 128, &[8], &[0.0]);
        let (spam, _) = arms(&s);
        let us = measure(&spam, 11, s.metric).unwrap();
        assert!(us > 10.0 && us < 20.0, "latency {us} µs out of range");
    }

    #[test]
    fn quick_sweep_produces_all_cells() {
        let mut s = fault_sweep(16, 16, &[2, 4], &[0.0, 0.2]);
        s.precision.target_rel = 0.25;
        s.precision.max_reps = 4;
        let out = s.run().unwrap();
        let names: Vec<&str> = out.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["SPAM k=2", "SPAM k=4", "software k=2", "software k=4"]
        );
        let (spam, soft) = out.split_at(2);
        let cells: Vec<_> = spam
            .iter()
            .zip(soft)
            .flat_map(|((_, a), (_, b))| a.iter().zip(b))
            .collect();
        assert_eq!(cells.len(), 4);
        for (a, b) in &cells {
            assert_eq!(a.x, b.x);
            assert!(a.mean > 0.0);
            assert!(b.mean > a.mean, "software pays startups");
        }
        // The share of processors left in the largest surviving component:
        // more damage, smaller component (on average).
        let grid = s.grid().unwrap();
        let fraction = |p: &GridPoint| {
            let reps = 4;
            let total: f64 = (0..reps)
                .map(|r| {
                    let arts = ArtifactPrefix::of(&p.spec, r).build().unwrap();
                    arts.procs.len() as f64 / p.spec.topology.switches as f64
                })
                .sum();
            total / f64::from(reps)
        };
        let (pristine, damaged) = (fraction(&grid[0]), fraction(&grid[1]));
        for f in [pristine, damaged] {
            assert!(f > 0.0 && f <= 1.0, "component fraction {f}");
        }
        assert!(pristine >= damaged);
    }
}
