//! The traced request path. It performs the work a `spam-serve` request
//! does, calling each layer's public entry point from outside on the
//! request's own inputs in the order the serve core and scenario runner
//! call them, and records a wall-clock span with exact allocation
//! deltas around each call. No crate is instrumented.
//!
//! Two layers run inside a coarser public call and cannot be split from
//! outside: artifact construction inside `ArtifactCache::lookup` on a
//! miss, and traffic generation inside `run_with_artifacts`. For those,
//! the benchmark re-executes the layer's entry point on the same inputs
//! as a *shadow* span attributed to the enclosing call; the enclosing
//! call's self time is its duration minus its shadows. The lazily built
//! routing precomputes (`RoutingTables`, the up*/down* closure, storm
//! epoch tables) are forced from outside before the engine runs, so
//! they are timed directly and the engine span no longer contains them.

use crate::alloc::{self, Counts};
use crate::oracle::{self, Expected};
use crate::workload::Request;
use desim::Time;
use netgraph::gen::lattice::{IrregularConfig, LatticeStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spam_faults::DegradedNetwork;
use spam_reconfig::{FaultSchedule, ReconfigScenario};
use spam_scenario::{
    outcome_digest, run_with_artifacts, spec_fingerprint, split_seed, FaultsSpec, RoutingSpec,
    ScenarioArtifacts, ScenarioSpec, StrategySpec, TrafficSpec,
};
use spam_serve::protocol::{self, ResultMeta};
use spam_serve::{ArtifactCache, CacheConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use traffic::{BroadcastStormConfig, ClosedLoopInjector, DestinationSampler};
use updown::{RootSelection, UpDownLabeling};
use wormsim::MessageSpec;

/// One recorded span. Times are ns since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
    pub rep: u32,
    /// Re-execution of work hidden inside the parent call.
    pub shadow: bool,
    pub allocs: u64,
    pub bytes: u64,
    /// Messages and engine events, for `wormsim.run` spans.
    pub messages: u64,
    pub events: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store, written out when the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open_counts: Vec<Counts>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open_counts: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u32, rep: u32) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
            rep,
            shadow: false,
            allocs: 0,
            bytes: 0,
            messages: 0,
            events: 0,
        });
        self.open_counts.push(Counts::default());
        let id = self.spans.len() - 1;
        // Counters and clock are read last, so the bookkeeping above is
        // not charged to the span.
        self.open_counts[id] = Counts::now();
        self.spans[id].start_ns = self.now_ns();
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let c = Counts::since(self.open_counts[id]);
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = c.allocs;
        s.bytes = c.bytes;
    }

    /// Times `f` as a child span of `parent`.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        rep: u32,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let request = self.spans[parent].request;
        let id = self.open(name, Some(parent), request, rep);
        let r = f();
        self.close(id);
        (r, id)
    }

    /// Times a shadow re-execution of work hidden inside `parent`.
    fn shadow<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        rep: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let (r, id) = self.time(name, parent, rep, || black_box(f()));
        self.spans[id].shadow = true;
        r
    }

    /// Drops shadow results in a span of their own, a child of the root
    /// above `sibling`. The real calls keep
    /// these values, so the drop is tracing overhead, not layer work:
    /// it hangs off the request root and carries no layer name.
    fn discard<T>(&mut self, sibling: usize, rep: u32, values: T) {
        let root = self.spans[sibling].parent.unwrap_or(sibling);
        self.shadow("shadow.drop", root, rep, || drop(values));
    }
}

/// Mirrors the scenario runner's per-replication seed derivation:
/// replication 0 uses the spec seed verbatim.
fn rep_seed(base: u64, rep: u32) -> u64 {
    if rep == 0 {
        base
    } else {
        split_seed(base, rep as u64)
    }
}

/// Re-executes the artifact build a cache miss performed, layer by
/// layer, in `ArtifactPrefix::build`'s order.
fn shadow_artifacts(rec: &mut Recorder, lookup: usize, spec: &ScenarioSpec, rep: u32) {
    let t = &spec.topology;
    let gen = IrregularConfig {
        switches: t.switches,
        side: t
            .side
            .unwrap_or(IrregularConfig::with_switches(t.switches).side),
        strategy: match t.strategy {
            StrategySpec::ConnectedGrowth => LatticeStrategy::ConnectedGrowth,
            StrategySpec::UniformRetry => LatticeStrategy::UniformRetry,
        },
        max_retries: 64,
    };
    let (topo, layout) = rec.shadow("netgraph.generate", lookup, rep, || {
        gen.generate_with_layout(rep_seed(t.seed, rep))
    });
    match spec.faults {
        FaultsSpec::None => {
            let labeling = rec.shadow("updown.label", lookup, rep, || {
                UpDownLabeling::build(&topo, RootSelection::LowestId)
            });
            rec.discard(lookup, rep, (topo, layout, labeling));
        }
        FaultsSpec::Storm {
            model,
            seed,
            window_start_us,
            window_end_us,
            bursts,
        } => {
            let labeling = rec.shadow("updown.label", lookup, rep, || {
                UpDownLabeling::build(&topo, RootSelection::LowestId)
            });
            let storm = rec.shadow("reconfig.build", lookup, rep, || {
                let schedule = FaultSchedule::storm(
                    &model.to_model(),
                    &topo,
                    Some(&layout),
                    (Time::from_us(window_start_us), Time::from_us(window_end_us)),
                    bursts,
                    rep_seed(seed, rep),
                );
                let scenario = ReconfigScenario::try_build(&topo, &labeling, &schedule);
                (schedule, scenario)
            });
            rec.discard(lookup, rep, (topo, layout, labeling, storm));
        }
        FaultsSpec::Static { model, seed } => {
            let net = rec.shadow("faults.degrade", lookup, rep, || {
                let plan = model
                    .to_model()
                    .sample(&topo, Some(&layout), rep_seed(seed, rep));
                DegradedNetwork::build(&topo, &plan, None)
            });
            rec.discard(lookup, rep, (topo, layout, net));
        }
    }
}

/// Re-executes the traffic generation `run_with_artifacts` performed
/// (the runner's `open_stream`, or the closed-loop injector's set-up).
fn shadow_traffic(
    spec: &ScenarioSpec,
    arts: &ScenarioArtifacts,
    rep: u32,
) -> Result<Vec<MessageSpec>, String> {
    let seed = rep_seed(spec.seed, rep);
    let (topo, layout, procs) = (&arts.topo, &arts.layout, arts.procs.as_slice());
    let err = |e: traffic::TrafficError| e.to_string();
    let missing = || format!("{}: traffic config missing", spec.name);
    match &spec.traffic {
        TrafficSpec::SingleMulticast { dests, len } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = procs[rng.gen_range(0..procs.len())];
            let d = DestinationSampler::UniformRandom { count: *dests }
                .sample_within(topo, procs, src, &mut rng)
                .map_err(err)?;
            Ok(vec![MessageSpec::multicast(src, d, *len)])
        }
        TrafficSpec::Mixed { .. } => spec
            .mixed_config()
            .ok_or_else(missing)?
            .generate_within(topo, procs, seed)
            .map_err(err),
        TrafficSpec::Hotspot { .. } => spec
            .hotspot_config()
            .ok_or_else(missing)?
            .generate_within(topo, procs, seed)
            .map_err(err),
        TrafficSpec::Permutation { .. } => spec
            .permutation_config()
            .ok_or_else(missing)?
            .generate_within(topo, layout, procs, seed)
            .map_err(err),
        TrafficSpec::Incast { .. } => spec
            .incast_config()
            .ok_or_else(missing)?
            .generate_within(topo, procs, seed)
            .map_err(err),
        TrafficSpec::BroadcastStorm { len, stagger_ns } => BroadcastStormConfig {
            message_len: *len,
            stagger: desim::Duration::from_ns(*stagger_ns),
        }
        .generate_within(topo, procs)
        .map_err(err),
        TrafficSpec::ClosedLoop { .. } => {
            let cl = spec.closed_loop_config().ok_or_else(missing)?;
            let mut inj = ClosedLoopInjector::new_within(cl, procs, seed).map_err(err)?;
            Ok(inj.initial_sends())
        }
    }
}

/// Which lazily built routing precompute a request's arm uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Precompute {
    SpamTables,
    UpDown,
    EpochTables,
}

/// Per-pass observations that are not spans.
#[derive(Debug, Default)]
pub struct PassStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: usize,
    /// Charged bytes over live-heap growth for the pass's first entry.
    pub charge_ratio: Option<f64>,
    pub tables_bytes: Vec<usize>,
}

/// One traced pass over `stream` on a fresh cache with the serve core's
/// default budgets. Returns the pass statistics and every failed
/// request's reason.
pub fn traced_pass(
    rec: &mut Recorder,
    stream: &[Request],
    oracle: &[Vec<Expected>],
    first_request: u32,
) -> (PassStats, Vec<String>) {
    let mut cache = ArtifactCache::new(CacheConfig::default());
    let mut forced: HashSet<(u64, Precompute)> = HashSet::new();
    let mut stats = PassStats::default();
    let mut failures = Vec::new();
    for (i, (req, want)) in stream.iter().zip(oracle).enumerate() {
        let id = first_request + i as u32;
        if let Err(e) = traced_request(rec, &mut cache, &mut forced, &mut stats, id, req, want) {
            failures.push(e);
        }
    }
    let st = cache.stats();
    stats.hits = st.hits;
    stats.misses = st.misses;
    stats.evictions = st.evictions;
    stats.resident_bytes = st.bytes;
    (stats, failures)
}

/// One request under its root span. The result lines are checked after
/// the span closes, so checking is not charged to the request.
fn traced_request(
    rec: &mut Recorder,
    cache: &mut ArtifactCache,
    forced: &mut HashSet<(u64, Precompute)>,
    stats: &mut PassStats,
    id: u32,
    req: &Request,
    want: &[Expected],
) -> Result<(), String> {
    let root = rec.open("request", None, id, 0);
    let mut lines = Vec::with_capacity(want.len());
    let run = request_layers(rec, cache, forced, stats, root, req, &mut lines);
    rec.close(root);
    run?;
    if lines.len() != want.len() {
        return Err(format!(
            "{}: {} results for {} replications",
            req.spec.name,
            lines.len(),
            want.len()
        ));
    }
    for (rep, (line, w)) in lines.iter().zip(want).enumerate() {
        oracle::check_line(line, &req.spec.name, rep as u32, w)?;
    }
    Ok(())
}

fn request_layers(
    rec: &mut Recorder,
    cache: &mut ArtifactCache,
    forced: &mut HashSet<(u64, Precompute)>,
    stats: &mut PassStats,
    root: usize,
    req: &Request,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let (parsed, _) = rec.time("protocol.parse", root, 0, || {
        let request = protocol::parse_request(&req.line)?;
        if let protocol::Request::Run { spec } = &request {
            spec.validate()?;
        }
        Ok::<_, spam_serve::ServeError>(request)
    });
    let spec = match parsed {
        Ok(protocol::Request::Run { spec }) => spec,
        Ok(other) => return Err(format!("{}: parsed as {other:?}", req.spec.name)),
        Err(e) => return Err(format!("{}: {e}", req.spec.name)),
    };
    let name = spec.name.clone();
    for rep in 0..spec.replications.max(1) {
        let live_before = alloc::live_bytes();
        let first_entry = cache.stats().entries == 0 && stats.charge_ratio.is_none();
        let (looked, lookup) =
            rec.time("cache.lookup.miss", root, rep, || cache.lookup(&spec, rep));
        let (arts, hit) = looked.map_err(|e| format!("{name} rep {rep}: {e}"))?;
        if hit {
            rec.spans[lookup].name = "cache.lookup.hit";
        }
        let fp = spec_fingerprint(&spec, rep);
        let arm = match (spec.faults, spec.routing) {
            (FaultsSpec::Storm { .. }, _) => Precompute::EpochTables,
            (_, RoutingSpec::Spam { .. }) => Precompute::SpamTables,
            (_, RoutingSpec::UpDownUnicast | RoutingSpec::SoftwareMulticast) => Precompute::UpDown,
        };
        if !hit {
            forced.retain(|(f, _)| *f != fp);
            shadow_artifacts(rec, lookup, &spec, rep);
        }
        if forced.insert((fp, arm)) {
            match arm {
                Precompute::SpamTables => {
                    let (bytes, _) = rec.time("core.tables", root, rep, || {
                        arts.spam_routing().tables().approx_bytes()
                    });
                    stats.tables_bytes.push(bytes);
                }
                Precompute::UpDown => {
                    rec.time("baselines.precomp", root, rep, || {
                        black_box(arts.updown_routing());
                    });
                }
                Precompute::EpochTables => {
                    rec.time("reconfig.epoch_tables", root, rep, || {
                        black_box(arts.epoch_routing());
                    });
                }
            }
        }
        if first_entry && !hit {
            if let Some(grown) = alloc::live_bytes().checked_sub(live_before) {
                if grown > 0 {
                    stats.charge_ratio = Some(cache.stats().bytes as f64 / grown as f64);
                }
            }
        }

        let (run, engine) = rec.time("wormsim.run", root, rep, || {
            run_with_artifacts(&spec, rep, None, &arts)
        });
        let out = run.map_err(|e| format!("{name} rep {rep}: {e}"))?;
        rec.spans[engine].messages = out.messages.len() as u64;
        rec.spans[engine].events = out.counters.events;
        let traffic = rec.shadow("traffic.generate", engine, rep, || {
            shadow_traffic(&spec, &arts, rep)
        });
        rec.discard(
            engine,
            rep,
            traffic.map_err(|e| format!("{name} rep {rep}: traffic shadow: {e}"))?,
        );

        let (digest, _) = rec.time("scenario.digest", root, rep, || outcome_digest(&out));
        let (line, _) = rec.time("protocol.encode", root, rep, || {
            let meta = ResultMeta {
                scenario: &spec.name,
                rep,
                reps: spec.replications,
                artifact_hit: hit,
                digest,
            };
            protocol::result_line(0, &meta, &out, &cache.stats())
        });
        lines.push(line);
    }
    Ok(())
}
