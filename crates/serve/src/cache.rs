//! Content-addressed artifact cache.
//!
//! Keyed on [`spam_scenario::spec_fingerprint`] — a streaming FNV-1a
//! over the spec's topology + fault prefix and replication index, the
//! exact inputs that determine the expensive environment artifacts
//! (topology, up*/down* labeling, degraded survivor, storm epoch chain).
//! Two requests that differ only in traffic, seeds downstream of the
//! prefix, routing, or engine knobs share an entry and skip straight to
//! traffic generation.
//!
//! The hit path is allocation-free: fingerprint the borrowed spec, probe
//! the map, verify the stored [`ArtifactPrefix`] field-by-field (a
//! fingerprint collision is a typed [`ServeError::CachePoisoned`], never
//! a silently wrong artifact), bump the LRU tick, clone the `Arc`. The
//! `cache_zero_alloc` guard pins this at exactly zero.
//!
//! Eviction is LRU under two budgets — entry count and approximate
//! resident bytes ([`ScenarioArtifacts::approx_bytes`]). The cache lives
//! only as long as the process: artifacts are deterministic rebuilds of
//! their prefix, and every measured workload reuses them within one
//! daemon lifetime.

use crate::error::ServeError;
use spam_scenario::{spec_fingerprint, ArtifactPrefix, ScenarioArtifacts, ScenarioSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident entries (LRU evicts beyond this).
    pub max_entries: usize,
    /// Approximate resident-byte budget across all entries. A single
    /// entry larger than the whole budget is kept (the cache never
    /// evicts down to empty).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 64,
            max_bytes: 256 << 20,
        }
    }
}

/// Monotonic hit/miss/eviction counters plus current occupancy —
/// embedded in every result line so clients observe cache behavior
/// in-band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to build artifacts.
    pub misses: u64,
    /// Entries evicted by the LRU budgets.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Approximate resident bytes right now.
    pub bytes: usize,
}

struct Entry {
    arts: Arc<ScenarioArtifacts>,
    bytes: usize,
    last_used: u64,
}

/// The content-addressed artifact store. Single-threaded by design —
/// the daemon owns it behind its state lock, so lookups stay
/// deterministic in request order.
pub struct ArtifactCache {
    cfg: CacheConfig,
    map: HashMap<u64, Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ArtifactCache {
    /// An empty cache with the given budgets.
    pub fn new(cfg: CacheConfig) -> Self {
        ArtifactCache {
            cfg,
            map: HashMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Fetches (or builds and inserts) the artifacts for `spec`'s
    /// replication `rep`. Returns the artifacts and whether this was a
    /// hit. A build failure is the spec's fault ([`ServeError::Spec`]);
    /// a fingerprint collision against a resident entry is
    /// [`ServeError::CachePoisoned`].
    pub fn lookup(
        &mut self,
        spec: &ScenarioSpec,
        rep: u32,
    ) -> Result<(Arc<ScenarioArtifacts>, bool), ServeError> {
        let fp = spec_fingerprint(spec, rep);
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&fp) {
            if !e.arts.prefix.matches(spec, rep) {
                return Err(ServeError::CachePoisoned {
                    detail: format!("fingerprint collision on {fp:#018x}"),
                });
            }
            e.last_used = self.tick;
            self.hits += 1;
            return Ok((Arc::clone(&e.arts), true));
        }
        self.misses += 1;
        let arts = Arc::new(ArtifactPrefix::of(spec, rep).build()?);
        self.insert(fp, arts.clone());
        Ok((arts, false))
    }

    fn insert(&mut self, fp: u64, arts: Arc<ScenarioArtifacts>) {
        let bytes = arts.approx_bytes();
        self.bytes += bytes;
        self.map.insert(
            fp,
            Entry {
                arts,
                bytes,
                last_used: self.tick,
            },
        );
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.map.len() > 1
            && (self.map.len() > self.cfg.max_entries || self.bytes > self.cfg.max_bytes)
        {
            // O(n) LRU scan; n is bounded by max_entries and lookups
            // dominate, so a heap buys nothing here.
            let Some((&victim, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) else {
                return;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                self.evictions += 1;
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(switches: usize, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::example("cache-test");
        spec.topology.switches = switches;
        spec.topology.seed = seed;
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
        spec.replications = 1;
        spec
    }

    #[test]
    fn hit_shares_artifacts_and_counts() {
        let mut cache = ArtifactCache::new(CacheConfig::default());
        let spec = small_spec(16, 3);
        let (a, hit_a) = cache.lookup(&spec, 0).unwrap();
        assert!(!hit_a);
        // Traffic-only change: same prefix, must hit and share the Arc.
        let mut warm = spec.clone();
        warm.seed ^= 0xdead_beef;
        warm.name = "different-name".into();
        let (b, hit_b) = cache.lookup(&warm, 0).unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn lru_eviction_respects_entry_budget() {
        let mut cache = ArtifactCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        let specs: Vec<_> = (0..3).map(|i| small_spec(16, i)).collect();
        for s in &specs {
            cache.lookup(s, 0).unwrap();
        }
        let st = cache.stats();
        assert_eq!((st.entries, st.evictions), (2, 1));
        // Oldest (seed 0) was evicted; seed 1 and 2 still hit.
        assert!(cache.lookup(&specs[2], 0).unwrap().1);
        assert!(cache.lookup(&specs[1], 0).unwrap().1);
        assert!(!cache.lookup(&specs[0], 0).unwrap().1);
    }

    #[test]
    fn byte_budget_evicts_but_keeps_last_entry() {
        // A budget smaller than any one entry: each insert evicts the
        // previous entry but the newest always survives.
        let mut cache = ArtifactCache::new(CacheConfig {
            max_entries: 8,
            max_bytes: 1,
        });
        for i in 0..3 {
            cache.lookup(&small_spec(16, i), 0).unwrap();
            assert_eq!(cache.stats().entries, 1);
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn fingerprint_collision_is_poisoned_not_wrong_artifacts() {
        // Plant spec A's artifacts under spec B's fingerprint — what a
        // 64-bit collision would look like — and look B up.
        let (a, b) = (small_spec(16, 1), small_spec(16, 2));
        let mut cache = ArtifactCache::new(CacheConfig::default());
        let planted = Arc::new(ArtifactPrefix::of(&a, 0).build().unwrap());
        cache.insert(spec_fingerprint(&b, 0), planted);
        let err = cache.lookup(&b, 0).map(|_| ()).unwrap_err();
        assert_eq!(err.variant_name(), "CachePoisoned");
        assert!(err.to_string().contains("collision"), "{err}");
        // The poisoned probe counts neither as a hit nor as a miss.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 1));
    }
}
