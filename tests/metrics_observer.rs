//! Telemetry is a pure observer: enabling `engine.metrics_every_ns` on
//! any golden scenario must not change a single simulated outcome. The
//! check runs every corpus scenario twice — metered and unmetered — and
//! compares the behavioural digests (`spam_scenario::outcome_digest`
//! hashes every latency, failure, counter, and epoch statistic, and
//! deliberately excludes the telemetry itself).

use spam_net::scenario::{outcome_digest, run_once, SpecError};
use std::path::Path;

#[test]
fn telemetry_never_changes_outcomes_across_the_golden_corpus() {
    let corpus = spam_net::scenario::load_dir(Path::new("scenarios")).expect("corpus loads");
    assert!(corpus.len() >= 14, "the golden corpus holds 14 scenarios");
    for (path, spec) in corpus {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();

        let mut unmetered = spec.clone();
        unmetered.engine.metrics_every_ns = None;
        let mut metered = spec;
        // 100 µs cadence: the guard proves digest equality, not sampling
        // density, and some corpus scenarios simulate whole seconds — a
        // fine cadence would spin this (unoptimized) suite for minutes.
        // The closing end-of-run sample keeps the series non-empty even
        // for runs shorter than one period.
        metered.engine.metrics_every_ns = Some(100_000);

        let run = |s| match run_once(s, 0, None) {
            Ok(out) => Some(out),
            // Some fuzz-promoted storms legitimately destroy the fabric.
            Err(SpecError::NoSurvivingComponent) => None,
            Err(e) => panic!("{name}: {e:?}"),
        };
        let (base, observed) = (run(&unmetered), run(&metered));
        match (base, observed) {
            (None, None) => continue,
            (Some(base), Some(observed)) => {
                assert_eq!(
                    outcome_digest(&base),
                    outcome_digest(&observed),
                    "{name}: enabling telemetry changed simulated behaviour"
                );
                assert!(
                    base.metrics.is_none(),
                    "{name}: unmetered run carries metrics"
                );
                let m = observed
                    .metrics
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name}: metered run recorded nothing"));
                assert!(
                    !m.series.is_empty(),
                    "{name}: telemetry recorded no samples"
                );
                assert_eq!(
                    m.channels.len(),
                    observed.channel_crossings.len(),
                    "{name}: one accumulator per channel"
                );
            }
            _ => panic!("{name}: telemetry changed spec-level viability"),
        }
    }
}
