//! The content-keyed prepared-layer cache an engine keeps across
//! campaigns.
//!
//! Generating a workload and building its compressed views
//! ([`PreparedLayer`]) dominates campaign setup cost, and sweep-style
//! experiments reuse the same layer under many accelerator/configuration
//! variants. The engine's preparation pass looks each unique
//! [`WorkloadKey`] up here once and inserts what it generates, so each
//! key is prepared once per engine while resident. Residency has a fixed
//! least-recently-used bound of `CAPACITY` (4096) entries, far above any
//! one session's unique-workload count, so eviction only engages on
//! long-lived serving processes. A pass holds the layers it hands out as
//! `Arc`s: an eviction never reaches a running campaign.

use crate::spec::WorkloadKey;
use loas_core::PreparedLayer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The entry bound of an engine's cache.
const CAPACITY: usize = 4096;

/// Counters describing cache effectiveness over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PreparedCacheStats {
    /// Workloads generated and prepared: the sum of every preparation
    /// pass's `CampaignOutcome::workloads_generated` (an evicted key
    /// regenerates on next use).
    pub generated: usize,
    /// Layer requests served without generating: the sum of every
    /// preparation pass's `CampaignOutcome::cache_hits`.
    pub hits: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted over the cache's lifetime.
    pub evictions: usize,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<WorkloadKey, (Arc<PreparedLayer>, u64)>,
    /// Monotonic access clock: entries stamp themselves on insert and on
    /// every lookup; eviction removes the minimum stamp.
    tick: u64,
}

impl CacheInner {
    /// Removes the least-recently-used entry. The min-scan is O(entries),
    /// which is fine here: an insert (the only caller at capacity) always
    /// follows a workload generation costing orders of magnitude more than
    /// scanning even the 4096-entry bound.
    fn evict_lru(&mut self) -> bool {
        let Some(victim) = self
            .map
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(key, _)| key.clone())
        else {
            return false;
        };
        self.map.remove(&victim);
        true
    }
}

/// A thread-safe, content-keyed, LRU-bounded store of prepared layers.
#[derive(Debug)]
pub(crate) struct PreparedCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    generated: AtomicUsize,
    hits: AtomicUsize,
    evictions: AtomicUsize,
}

impl PreparedCache {
    /// An empty cache at the engine's bound.
    pub(crate) fn new() -> Self {
        PreparedCache::with_capacity(CAPACITY)
    }

    /// An empty cache holding at most `capacity` entries (at least 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        PreparedCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            generated: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Looks a key up, refreshing its recency on success.
    pub(crate) fn get(&self, key: &WorkloadKey) -> Option<Arc<PreparedLayer>> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|(layer, stamp)| {
            *stamp = tick;
            layer.clone()
        })
    }

    /// Inserts a freshly generated layer, evicting the least-recently-used
    /// entries if the bound is exceeded. Returns the resident `Arc` and
    /// whether the key was vacant: only then does the generation counter
    /// advance, so concurrent campaigns racing on one key cannot
    /// overcount.
    pub(crate) fn insert(
        &self,
        key: WorkloadKey,
        layer: PreparedLayer,
    ) -> (Arc<PreparedLayer>, bool) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let resident = match inner.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                entry.get_mut().1 = tick;
                (entry.get().0.clone(), false)
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                self.generated.fetch_add(1, Ordering::Relaxed);
                (entry.insert((Arc::new(layer), tick)).0.clone(), true)
            }
        };
        while inner.map.len() > self.capacity && inner.evict_lru() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        resident
    }

    /// Adds a preparation pass's hits to the lifetime count.
    pub(crate) fn count_hits(&self, hits: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Lifetime counters.
    pub(crate) fn stats(&self) -> PreparedCacheStats {
        PreparedCacheStats {
            generated: self.generated.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("cache lock").map.len(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use loas_workloads::{LayerShape, SparsityProfile};

    fn spec(name: &str) -> WorkloadSpec {
        WorkloadSpec::new(
            name,
            LayerShape::new(4, 4, 8, 64),
            SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap(),
        )
    }

    #[test]
    fn hit_and_generation_accounting() {
        let cache = PreparedCache::new();
        let a = spec("a");
        assert!(cache.get(&a.key()).is_none());
        let (first, vacant) = cache.insert(a.key(), a.prepare().unwrap());
        assert!(vacant);
        // A racing second insert of the same key keeps the resident layer
        // and counts no generation.
        let (second, vacant) = cache.insert(a.key(), a.prepare().unwrap());
        assert!(!vacant && Arc::ptr_eq(&first, &second));
        assert!(cache.get(&a.key()).is_some());
        cache.count_hits(2);
        let stats = cache.stats();
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let cache = PreparedCache::with_capacity(2);
        let (a, b, c) = (spec("a"), spec("b"), spec("c"));
        cache.insert(a.key(), a.prepare().unwrap());
        cache.insert(b.key(), b.prepare().unwrap());
        // Touch `a` so `b` is now least recently used.
        assert!(cache.get(&a.key()).is_some());
        cache.insert(c.key(), c.prepare().unwrap());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(cache.get(&b.key()).is_none(), "LRU entry evicted");
        assert!(
            cache.get(&a.key()).is_some(),
            "recently used entry survives"
        );
        assert!(cache.get(&c.key()).is_some());
        // An evicted key regenerates (and recounts) on reinsert.
        assert!(cache.insert(b.key(), b.prepare().unwrap()).1);
        assert_eq!(cache.stats().generated, 4);
    }
}
