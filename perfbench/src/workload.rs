//! The three request streams. Each is a pure function of the workload
//! seed; the program under test only ever sees the generated specs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spam_scenario::{
    load_dir, split_seed, ArrivalSpec, PolicySpec, RoutingSpec, ScenarioSpec, TopologySpec,
    TrafficSpec,
};
use std::path::Path;

/// Which request stream a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The frozen scenario corpus: every dispatch arm, small varied
    /// requests, one fresh core per pass.
    Corpus,
    /// A Figure-3-style load sweep on one 256-switch fabric: cache hits
    /// after the first request, the engine does nearly all the work.
    Sweep,
    /// Single multicasts on distinct 2048-switch fabrics: every request
    /// misses, table build dominates, each insert evicts its predecessor.
    LargeFabric,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "corpus" => Some(Workload::Corpus),
            "sweep" => Some(Workload::Sweep),
            "large_fabric" => Some(Workload::LargeFabric),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus => "corpus",
            Workload::Sweep => "sweep",
            Workload::LargeFabric => "large_fabric",
        }
    }
}

/// One scenario request: the spec the oracle runs directly, and the
/// `run` line the serve path receives.
pub struct Request {
    pub spec: ScenarioSpec,
    pub line: String,
}

/// Sweep axes: both multicast arms, five offered loads across Figure 3's
/// range (messages/µs/node), and ten traffic draws per point.
const SWEEP_ARMS: [RoutingSpec; 2] = [
    RoutingSpec::Spam {
        policy: PolicySpec::MinResidualDistance,
    },
    RoutingSpec::SoftwareMulticast,
];
const SWEEP_LOADS: [f64; 5] = [0.005, 0.015, 0.025, 0.035, 0.045];
const SWEEP_DRAWS: u64 = 10;
const SWEEP_SWITCHES: usize = 256;
/// The sweep's one fabric is fixed: the seed varies the traffic. Sweep
/// time depends strongly on the fabric (up to a quarter between seeds),
/// which would drown the changes the benchmark is for; fabric-to-fabric
/// variation is `large_fabric`'s axis.
const SWEEP_TOPOLOGY_SEED: u64 = 7;
const SWEEP_MESSAGES: usize = 100;

const LARGE_FABRICS: u64 = 8;
const LARGE_SWITCHES: usize = 2048;

/// Generates the request stream for `workload` and `seed`. `corpus_dir`
/// holds the frozen corpus files.
pub fn generate(workload: Workload, seed: u64, corpus_dir: &Path) -> Result<Vec<Request>, String> {
    let specs = match workload {
        Workload::Corpus => {
            let mut specs: Vec<ScenarioSpec> = load_dir(corpus_dir)
                .map_err(|e| format!("corpus: {e}"))?
                .into_iter()
                .map(|(_, spec)| spec)
                .collect();
            if specs.is_empty() {
                return Err(format!("corpus: no scenarios in {}", corpus_dir.display()));
            }
            // The seed fixes the request order; the work is the same.
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..specs.len()).rev() {
                specs.swap(i, rng.gen_range(0..i + 1));
            }
            specs
        }
        Workload::Sweep => {
            let topology = TopologySpec {
                switches: SWEEP_SWITCHES,
                seed: SWEEP_TOPOLOGY_SEED,
                ..TopologySpec::default()
            };
            let mut specs = Vec::new();
            for (a, routing) in SWEEP_ARMS.iter().enumerate() {
                for (l, &rate) in SWEEP_LOADS.iter().enumerate() {
                    for s in 0..SWEEP_DRAWS {
                        let mut spec = ScenarioSpec::example(&format!("sweep-a{a}-l{l}-s{s}"));
                        spec.topology = topology.clone();
                        spec.routing = *routing;
                        spec.traffic = TrafficSpec::Mixed {
                            unicast_fraction: 0.9,
                            multicast_dests: 16,
                            rate_per_node_per_us: rate,
                            len: 128,
                            messages: SWEEP_MESSAGES,
                            arrival: ArrivalSpec::NegativeBinomial { r: 1 },
                        };
                        // One traffic draw per request: sharing draws across
                        // arms and loads would leave ten independent samples
                        // and a seed-to-seed spread of several percent.
                        spec.seed = split_seed(seed, 100 + specs.len() as u64);
                        spec.replications = 1;
                        specs.push(spec);
                    }
                }
            }
            specs
        }
        Workload::LargeFabric => (0..LARGE_FABRICS)
            .map(|i| {
                let mut spec = ScenarioSpec::example(&format!("large-{i}"));
                spec.topology = TopologySpec {
                    switches: LARGE_SWITCHES,
                    seed: split_seed(seed, 1000 + i),
                    ..TopologySpec::default()
                };
                spec.traffic = TrafficSpec::SingleMulticast {
                    dests: 16,
                    len: 128,
                };
                spec.seed = split_seed(seed, 2000 + i);
                spec.replications = 1;
                spec
            })
            .collect(),
    };
    Ok(specs
        .into_iter()
        .map(|spec| {
            let line = format!(
                r#"{{"op":"run","spec":{}}}"#,
                spec.to_json().to_string_compact()
            );
            Request { spec, line }
        })
        .collect())
}

/// FNV-1a over the request lines: names the exact stream a run drove.
pub fn stream_hash(stream: &[Request]) -> u64 {
    let mut bytes = Vec::new();
    for r in stream {
        bytes.extend_from_slice(r.line.as_bytes());
        bytes.push(b'\n');
    }
    wormsim::fnv1a(&bytes)
}
