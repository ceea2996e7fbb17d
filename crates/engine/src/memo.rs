//! Result memoization: stable job keys, the pluggable [`ResultStore`]
//! source/sink, and the on-disk content-addressed [`MemoStore`].
//!
//! Campaign jobs are pure functions of their `(workload, accelerator)`
//! content, so completed [`LayerReport`]s can be persisted and replayed:
//! a resubmitted or overlapping campaign reloads cached results
//! byte-identically and only simulates novel jobs. The engine consults a
//! [`ResultStore`] before scheduling each job ([`Engine::run_where`]) and
//! writes every freshly simulated result back through it.
//!
//! [`Engine::run_where`]: crate::Engine::run_where

use loas_core::LayerReport;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Version salt folded into every [`MemoKey`](crate::MemoKey); bump when
/// the key derivation or the simulated semantics behind it change, so old
/// store entries become unreachable instead of wrong.
pub(crate) const MEMO_KEY_FORMAT: &str = "loas-memo/1";

/// A stable 64-bit content key identifying one `(workload, accelerator)`
/// simulation result across processes and platforms. Obtained from
/// [`JobSpec::memo_key`](crate::JobSpec::memo_key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoKey(u64);

impl MemoKey {
    /// Wraps a digest (normally produced by the job-hashing path).
    pub fn new(digest: u64) -> Self {
        MemoKey(digest)
    }

    /// The raw 64-bit digest.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for MemoKey {
    /// Fixed-width lowercase hex — also the store's file-name stem.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A pluggable source/sink of memoized job results. Implementations must
/// be callable from the engine's emission loop; `load` misses must be
/// cheap because every job of an uncached campaign probes once.
pub trait ResultStore: Sync {
    /// Returns the memoized report for `key`, or `None` on a miss (or any
    /// decoding failure — a corrupt entry is a miss, never an error).
    fn load(&self, key: MemoKey) -> Option<LayerReport>;

    /// Persists a freshly simulated report under `key`. Failures are
    /// swallowed by implementations (memoization is an optimization; the
    /// campaign result is already in hand).
    fn store(&self, key: MemoKey, report: &LayerReport);
}

/// Counters describing one [`MemoStore`]'s lifetime effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStoreStats {
    /// Loads served from disk.
    pub hits: usize,
    /// Loads that found no (valid) entry.
    pub misses: usize,
    /// Reports written.
    pub stored: usize,
}

/// The on-disk content-addressed result store: one file per [`MemoKey`]
/// (`<digest-hex>.report`) holding the portable serialization of the
/// [`LayerReport`] (see [`loas_core::PORTABLE_FORMAT`]).
///
/// Writes go through a per-process temporary file and an atomic rename,
/// so concurrent shard processes sharing one store directory never
/// observe torn entries; racing writers of the same key settle on one
/// byte-identical winner (both serialize the same deterministic result).
#[derive(Debug)]
pub struct MemoStore {
    dir: PathBuf,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stored: AtomicUsize,
}

impl MemoStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(MemoStore {
            dir,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            stored: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "report"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MemoStoreStats {
        MemoStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stored: self.stored.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: MemoKey) -> PathBuf {
        self.dir.join(format!("{key}.report"))
    }
}

impl ResultStore for MemoStore {
    fn load(&self, key: MemoKey) -> Option<LayerReport> {
        let loaded = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| LayerReport::from_portable(&text).ok());
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    fn store(&self, key: MemoKey, report: &LayerReport) {
        let target = self.entry_path(key);
        let temp = self.dir.join(format!(".{key}.{}.tmp", std::process::id()));
        if std::fs::write(&temp, report.to_portable()).is_ok()
            && std::fs::rename(&temp, &target).is_ok()
        {
            self.stored.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&temp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AcceleratorSpec, JobSpec, WorkloadSpec};
    use loas_core::LoasConfig;
    use loas_sim::{Cycle, EnergyBreakdown, SimStats};
    use loas_workloads::{LayerShape, SparsityProfile};

    #[test]
    fn memo_key_format_moves_with_the_golden_report() {
        // The served fig13-quick golden pins every report byte. A change
        // that moves those bytes must also bump `MEMO_KEY_FORMAT`, or
        // stores keyed under the old format replay stale reports: re-pin
        // both values here together.
        let mut golden = loas_core::ContentHasher::new();
        golden.write_bytes(include_bytes!(
            "../../serve/tests/golden/fig13-quick.report.jsonl"
        ));
        assert_eq!(
            (MEMO_KEY_FORMAT, golden.finish()),
            ("loas-memo/1", 0x32b7_4017_93b1_82f2)
        );
    }

    fn job(name: &str, accelerator: AcceleratorSpec) -> JobSpec {
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        JobSpec::new(
            WorkloadSpec::new(name, LayerShape::new(4, 4, 8, 64), profile),
            accelerator,
        )
    }

    fn report(cycles: u64) -> LayerReport {
        let mut stats = SimStats::new();
        stats.cycles = Cycle(cycles);
        LayerReport {
            workload: "w".to_owned(),
            accelerator: "a".to_owned(),
            stats,
            energy: EnergyBreakdown::default(),
            output: None,
        }
    }

    fn temp_store(tag: &str) -> MemoStore {
        let dir = std::env::temp_dir().join(format!("loas-memo-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        MemoStore::open(dir).unwrap()
    }

    #[test]
    fn memo_keys_identify_job_content_not_presentation() {
        let a = job("w", AcceleratorSpec::loas());
        let mut relabeled = job("w", AcceleratorSpec::loas());
        relabeled.label = "different label".to_owned();
        relabeled.network = Some("net".to_owned());
        relabeled.layer_index = 3;
        assert_eq!(a.memo_key(), relabeled.memo_key());

        assert_ne!(
            a.memo_key(),
            job("other", AcceleratorSpec::loas()).memo_key()
        );
        assert_ne!(
            a.memo_key(),
            job("w", AcceleratorSpec::sparten()).memo_key()
        );
        let tweaked = AcceleratorSpec::loas_with(LoasConfig::builder().timesteps(8).build());
        assert_ne!(a.memo_key(), job("w", tweaked).memo_key());
        // Stable across processes: a fixed spec hashes to a fixed digest.
        assert_eq!(a.memo_key(), a.clone().memo_key());
    }

    #[test]
    fn store_round_trips_and_counts() {
        let store = temp_store("roundtrip");
        let key = job("w", AcceleratorSpec::loas()).memo_key();
        assert!(store.load(key).is_none());
        store.store(key, &report(42));
        let loaded = store.load(key).expect("stored entry loads");
        assert_eq!(loaded.stats.cycles, Cycle(42));
        assert_eq!(store.len(), 1);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.stored), (1, 1, 1));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let store = temp_store("corrupt");
        let key = job("w", AcceleratorSpec::gamma()).memo_key();
        std::fs::write(store.entry_path(key), "not a report").unwrap();
        assert!(store.load(key).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
