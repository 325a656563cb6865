#![warn(missing_docs)]

//! # spam-bench — figure/table regeneration harness
//!
//! The paper's §4 figures, the broadcast comparison, the fault sweep and
//! ablations B/D are *data*: `sweeps/*.sweep.json` files, each a grid of
//! overrides over one [`spam_scenario::ScenarioSpec`], run by the single
//! `sweep` binary through [`sweep::SweepSpec`]. Replications follow the
//! paper's §4 protocol (95 % CI within 1 % of the mean) via
//! [`simstats::PrecisionController`], fanned across threads by
//! [`sweep::replicate_parallel_with`]. The `fig2`, `fig3` and
//! `fault_sweep` test modules check those sweep files replication by
//! replication at miniature scale.
//!
//! The remaining modules are instruments the scenario model does not
//! express yet (root-selection and partition ablations, the live
//! reconfiguration sweep, engine throughput, congestion and latency
//! anatomy, snapshot cost, the scenario corpus, and fuzzing); each
//! exposes a pure `run_*`/`measure` function consumed by its binary.

pub mod ablations;
pub mod congestion;
#[cfg(test)]
mod fault_sweep;
#[cfg(test)]
mod fig2;
#[cfg(test)]
mod fig3;
pub mod latency_anatomy;
pub mod reconfig_sweep;
pub mod report;
pub mod scenario_corpus;
pub mod snapshot_bench;
pub mod sweep;
pub mod throughput;

use netgraph::gen::lattice::IrregularConfig;
use netgraph::Topology;
use simstats::PrecisionController;
use updown::{RootSelection, UpDownLabeling};

/// Builds the §4 network: `switches` 8-port switches on a random integer
/// lattice, one processor each. "`n`-node network" in the paper counts
/// processors (= switches).
pub fn paper_network(switches: usize, seed: u64) -> Topology {
    IrregularConfig::with_switches(switches).generate(seed)
}

/// The default labeling used by the experiments (deterministic root;
/// ablation A varies this).
pub fn paper_labeling(topo: &Topology) -> UpDownLabeling {
    UpDownLabeling::build(topo, RootSelection::LowestId)
}

/// A finished data point: the quantity the paper plots plus its CI.
#[derive(Debug, Clone, serde::Serialize)]
pub struct PointSummary {
    /// Independent-variable label (destination count, arrival rate, ...).
    pub x: f64,
    /// Mean of the measured quantity (µs for every figure here).
    pub mean: f64,
    /// 95 % CI half-width.
    pub ci_half_width: f64,
    /// Replications used.
    pub reps: u64,
    /// Whether the 1 % precision target was met within the budget.
    pub target_met: bool,
}

impl PointSummary {
    /// What `ctl` reports at `x`. A controller holding fewer than two
    /// samples has no CI: its mean and half-width are NaN (`null` in the
    /// BENCH json), never a panic.
    pub fn of(x: f64, ctl: &PrecisionController) -> Self {
        let ci = ctl.interval();
        PointSummary {
            x,
            mean: ci.map_or(f64::NAN, |c| c.mean),
            ci_half_width: ci.map_or(f64::NAN, |c| c.half_width),
            reps: ctl.count(),
            target_met: ctl.met_target(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_matches_section4() {
        let t = paper_network(64, 9);
        assert_eq!(t.num_switches(), 64);
        assert_eq!(t.num_processors(), 64);
        t.validate(8).unwrap();
    }
}
