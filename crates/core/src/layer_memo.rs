//! The memo of config-keyed results a [`PreparedLayer`] keeps for the jobs
//! that share it.
//!
//! A design sweep runs many configurations of one model on one shared
//! layer, and much of each run depends on only a few config fields: the
//! LoAS pair sweep on the kernel geometry and the cycle model, the LoAS
//! traffic replay on everything but the off-chip bandwidth, the traffic
//! spans on the weight precision and the line size. The memo keeps each
//! such result under exactly the inputs that decide it, so a sweep
//! computes it once.
//!
//! [`PreparedLayer`]: crate::PreparedLayer

use crate::config::LoasConfig;
use crate::kernel::{PairSweepKernel, SweepMode};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Entries one layer keeps; the oldest goes first. Layers outlive their
/// campaign in a watching runner's prepared cache, so the bound is fixed.
/// A 13-point LoAS sweep of TPPE count, bandwidth and cache capacity needs
/// 9 (one sweep, 7 replays, one span table). A sweep holds 8 bytes per
/// `(m, n)` pair (matches and drain cycles); replays hold a few counters.
pub(crate) const MEMO_CAPACITY: usize = 16;

/// What a memo entry was derived from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MemoKey {
    /// [`crate::TrafficSpans`] of one `(weight_bits, line_bytes)` geometry.
    Spans {
        weight_bits: usize,
        line_bytes: usize,
    },
    /// A LoAS phase-1 sweep: the kernel's chunk width and FIFO depth and
    /// the cycle model (the TPPE count only enters the replay).
    Sweep {
        kernel: PairSweepKernel,
        mode: SweepMode,
    },
    /// A LoAS phase-2 replay: the whole config, off-chip bandwidth fields
    /// normalised.
    Replay(LoasConfig),
}

/// Hits and misses of one kind of memo entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed the result.
    pub misses: u64,
}

/// The counters of a layer's memo ([`crate::PreparedLayer::memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Traffic-span tables.
    pub spans: MemoCounts,
    /// LoAS pair sweeps.
    pub sweeps: MemoCounts,
    /// LoAS traffic replays.
    pub replays: MemoCounts,
    /// Entries dropped to keep the memo within its fixed capacity.
    pub evictions: u64,
}

impl MemoStats {
    fn counts_mut(&mut self, key: &MemoKey) -> &mut MemoCounts {
        match key {
            MemoKey::Spans { .. } => &mut self.spans,
            MemoKey::Sweep { .. } => &mut self.sweeps,
            MemoKey::Replay(_) => &mut self.replays,
        }
    }
}

#[derive(Default)]
struct MemoState {
    /// Oldest first. Each key kind always maps to one value type.
    entries: VecDeque<(MemoKey, Arc<dyn Any + Send + Sync>)>,
    stats: MemoStats,
}

/// A bounded, thread-safe memo (a cloned layer starts with an empty one).
#[derive(Default)]
pub(crate) struct LayerMemo {
    state: Mutex<MemoState>,
}

impl LayerMemo {
    /// The result stored under `key`, computing and storing it on a miss.
    /// `compute` runs unlocked, so jobs sharing the layer on other threads
    /// are not held up; two racing misses of one key compute equal values
    /// and the first stored is kept.
    pub(crate) fn get_or_insert_with<T: Any + Send + Sync>(
        &self,
        key: MemoKey,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        {
            let mut state = self.lock();
            let found = state.find(&key);
            let counts = state.stats.counts_mut(&key);
            if let Some(value) = found {
                counts.hits += 1;
                return downcast(value);
            }
            counts.misses += 1;
        }
        let value: Arc<dyn Any + Send + Sync> = Arc::new(compute());
        let mut state = self.lock();
        if let Some(stored) = state.find(&key) {
            return downcast(stored);
        }
        if state.entries.len() == MEMO_CAPACITY {
            state.entries.pop_front();
            state.stats.evictions += 1;
        }
        state.entries.push_back((key, Arc::clone(&value)));
        downcast(value)
    }

    pub(crate) fn stats(&self) -> MemoStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        // Nothing panics while the lock is held; a poisoned memo is intact.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl MemoState {
    fn find(&self, key: &MemoKey) -> Option<Arc<dyn Any + Send + Sync>> {
        self.entries
            .iter()
            .find(|(stored, _)| stored == key)
            .map(|(_, value)| Arc::clone(value))
    }
}

fn downcast<T: Any + Send + Sync>(value: Arc<dyn Any + Send + Sync>) -> Arc<T> {
    value
        .downcast()
        .unwrap_or_else(|_| unreachable!("a key kind maps to one value type"))
}

impl Clone for LayerMemo {
    fn clone(&self) -> Self {
        LayerMemo::default()
    }
}

impl std::fmt::Debug for LayerMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayerMemo")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans_key(weight_bits: usize) -> MemoKey {
        MemoKey::Spans {
            weight_bits,
            line_bytes: 64,
        }
    }

    #[test]
    fn computes_each_key_once_and_counts_lookups() {
        let memo = LayerMemo::default();
        let first = memo.get_or_insert_with(spans_key(8), || 1u32);
        let again = memo.get_or_insert_with(spans_key(8), || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(*memo.get_or_insert_with(spans_key(16), || 2u32), 2);
        let stats = memo.stats();
        assert_eq!(stats.spans, MemoCounts { hits: 1, misses: 2 });
        assert_eq!(stats.sweeps, MemoCounts::default());
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn evicts_oldest_first_at_capacity() {
        let memo = LayerMemo::default();
        for bits in 0..=MEMO_CAPACITY {
            memo.get_or_insert_with(spans_key(bits), || bits);
        }
        assert_eq!(memo.stats().evictions, 1);
        // The newest survive; the first key was evicted and recomputes.
        assert_eq!(
            *memo.get_or_insert_with(spans_key(MEMO_CAPACITY), || 0usize),
            MEMO_CAPACITY
        );
        assert_eq!(*memo.get_or_insert_with(spans_key(0), || 99usize), 99);
        assert_eq!(memo.stats().spans.misses, MEMO_CAPACITY as u64 + 2);
    }

    #[test]
    fn clones_start_empty() {
        let memo = LayerMemo::default();
        memo.get_or_insert_with(spans_key(8), || 1u8);
        assert_eq!(memo.clone().stats(), MemoStats::default());
    }
}
