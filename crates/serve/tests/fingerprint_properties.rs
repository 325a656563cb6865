//! Properties of the content-address: the fingerprint must partition
//! specs exactly by their artifact prefix (topology + faults +
//! replication index) — nothing more, nothing less.
//!
//! * **Insensitive** to everything downstream of the prefix: traffic,
//!   the traffic seed, replication *count*, routing, engine knobs, and
//!   the name share a key, so a sweep over them reuses one artifact.
//! * **Sensitive** to every prefix field: the randomized walk below
//!   drives [`spam_scenario::mutate_spec`] across the whole mutation
//!   palette and checks, for each mutant, that fingerprint equality is
//!   *equivalent* to prefix equality. (Equivalence, not per-axis
//!   classification: a palette draw can re-pick the current value, and
//!   the "seed" axis sometimes lands on the topology seed — only the
//!   resulting prefix says whether the key may change.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use spam_scenario::{
    mutate_spec, spec_fingerprint, ArtifactPrefix, EngineSpec, FaultModelSpec, FaultsSpec,
    PolicySpec, RoutingSpec, ScenarioSpec, TrafficSpec,
};

fn base_spec() -> ScenarioSpec {
    let mut s = ScenarioSpec::example("fingerprint-base");
    s.topology.switches = 24;
    s.topology.seed = 9;
    s.traffic = TrafficSpec::SingleMulticast { dests: 4, len: 64 };
    s.replications = 2;
    s
}

#[test]
fn non_prefix_axes_share_a_key() {
    let base = base_spec();
    let key = spec_fingerprint(&base, 0);
    let mut variants = Vec::new();

    let mut v = base.clone();
    v.name = "renamed".into();
    v.description = "other words".into();
    variants.push(("name/description", v));

    let mut v = base.clone();
    v.seed ^= 0x5eed;
    variants.push(("traffic seed", v));

    let mut v = base.clone();
    v.traffic = TrafficSpec::SingleMulticast { dests: 6, len: 256 };
    variants.push(("traffic model", v));

    let mut v = base.clone();
    v.replications = 7;
    variants.push(("replication count", v));

    let mut v = base.clone();
    v.routing = RoutingSpec::Spam {
        policy: PolicySpec::FirstLegal,
    };
    variants.push(("routing policy", v));

    let mut v = base.clone();
    v.engine = EngineSpec {
        input_buffer_flits: 4,
        ..base.engine
    };
    variants.push(("engine buffers", v));

    let mut v = base.clone();
    v.horizon_us = Some(50_000);
    variants.push(("horizon", v));

    for (what, v) in variants {
        assert_eq!(
            spec_fingerprint(&v, 0),
            key,
            "{what} must not change the artifact key"
        );
        assert!(
            ArtifactPrefix::of(&base, 0).matches(&v, 0),
            "{what} must not change the prefix"
        );
    }
}

#[test]
fn prefix_fields_each_change_the_key() {
    let base = base_spec();
    let key = spec_fingerprint(&base, 0);

    let mut v = base.clone();
    v.topology.switches += 8;
    assert_ne!(spec_fingerprint(&v, 0), key, "switch count");

    let mut v = base.clone();
    v.topology.seed ^= 1;
    assert_ne!(spec_fingerprint(&v, 0), key, "topology seed");

    let mut v = base.clone();
    v.topology.side = Some(9);
    assert_ne!(spec_fingerprint(&v, 0), key, "lattice side");

    let mut v = base.clone();
    v.topology.ports += 1;
    assert_ne!(spec_fingerprint(&v, 0), key, "ports per switch");

    let mut v = base.clone();
    v.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidLinks { rate: 0.05 },
        seed: 3,
    };
    assert_ne!(spec_fingerprint(&v, 0), key, "fault plan");

    // The replication index is part of the address: each rep samples
    // its own topology/fault streams.
    assert_ne!(spec_fingerprint(&base, 1), key, "replication index");
}

#[test]
fn fingerprint_equality_is_prefix_equality_under_mutation() {
    // PROPTEST_CASES-style budget: the walk restarts from the base spec
    // each round so mutants stay near the validated corpus shape.
    let rounds: u32 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let base = base_spec();
    let mut rng = StdRng::seed_from_u64(0x5e21_f00d);
    let (mut same, mut diff) = (0u32, 0u32);
    for round in 0..rounds {
        let m = mutate_spec(&base, &mut rng);
        for rep in 0..2 {
            let equal_fp = spec_fingerprint(&m.spec, rep) == spec_fingerprint(&base, rep);
            let equal_prefix = ArtifactPrefix::of(&base, rep).matches(&m.spec, rep);
            assert_eq!(
                equal_fp, equal_prefix,
                "round {round} axis {}: fingerprint/prefix disagree (rep {rep})",
                m.axis
            );
            if equal_fp {
                same += 1;
            } else {
                diff += 1;
            }
        }
    }
    // The mutation palette must have exercised both sides of the
    // equivalence, or the walk proves nothing.
    assert!(same > 0, "no mutation left the prefix intact");
    assert!(diff > 0, "no mutation changed the prefix");
}
