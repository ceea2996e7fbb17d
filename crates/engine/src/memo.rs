//! Result memoization: stable job keys, the pluggable [`ResultStore`]
//! source/sink, and the on-disk append-only [`MemoStore`].
//!
//! Campaign jobs are pure functions of their `(workload, accelerator)`
//! content, so completed [`LayerReport`]s can be persisted and replayed:
//! a resubmitted or overlapping campaign reloads cached results
//! byte-identically and only simulates novel jobs. The engine consults a
//! [`ResultStore`] before scheduling each job ([`Engine::run_where`]) and
//! writes every freshly simulated result back through it.
//!
//! [`Engine::run_where`]: crate::Engine::run_where

use loas_core::{ContentHasher, LayerReport};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::ops::Range;
use std::os::unix::fs::{FileExt as _, MetadataExt as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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
    /// Fixed-width lowercase hex — also the key field of the store's
    /// frame headers.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A pluggable source/sink of memoized job results. Implementations must
/// be callable from the engine's emission loop; `load` misses must be
/// cheap because every job of an uncached campaign probes once. A `load`
/// sees every report stored before it, by this store or by another
/// process sharing it; [`MemoStore`] is the on-disk implementation.
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

/// What [`MemoStore::check`] or [`MemoStore::prune`] found in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogCheck {
    /// Frames whose header and digest check, duplicates included.
    pub valid_frames: usize,
    /// Damaged stretches of the log: runs of bytes between valid frames,
    /// or after the last one, that hold no frame that checks. A frame cut
    /// off at the end of the log counts as one.
    pub damaged: usize,
}

/// The log's file name inside the store directory.
const LOG_FILE: &str = "entries.log";

/// Every frame header starts with this tag.
const FRAME_TAG: &[u8] = b"loas-memo ";

/// The longest well-formed header line: the tag, a 16-digit key, a
/// length of up to 20 digits, a 16-digit digest, two spaces and `\n`.
const MAX_HEADER: usize = FRAME_TAG.len() + 16 + 1 + 20 + 1 + 16 + 1;

/// The on-disk result store: one append-only log, `entries.log`, in the
/// store directory, holding one frame per stored report.
///
/// **Format.** A frame is a header line
/// `loas-memo <key:016x> <len> <digest:016x>\n` followed by `len` bytes
/// of [`LayerReport::to_portable`] (see [`loas_core::PORTABLE_FORMAT`]).
/// The digest is [`ContentHasher`] over the key (as a `u64`) and those
/// bytes.
///
/// **Writes.** [`store`](ResultStore::store) opens the log by path in
/// append mode, writes the whole frame with one `write_all` and closes
/// it, so concurrent shard processes sharing one store directory append
/// whole frames and never create a temporary file. Racing writers of one
/// key append byte-identical frames (both serialize the same
/// deterministic result); readers keep the first frame that checks.
///
/// **Reads.** Each store keeps an index from key to the offset, length
/// and digest of its frame, so a hit is one positioned read whose digest
/// is checked again. On a miss the store stats the log: if it grew, only
/// the new bytes are parsed; if it is another file (a prune replaced it)
/// or shorter, the index is rebuilt. Any entry appended before a load —
/// by this store or by another process — is visible to that load.
///
/// **Damage.** A frame cut off at the end of the log is taken for an
/// append in flight and parsed again on the next refresh. A frame whose
/// header does not parse or whose digest does not check is skipped, and
/// parsing resyncs at the next header whose frame checks. Damage reads
/// as a miss, never as a wrong entry; the engine also checks a replayed
/// report's workload and accelerator names against its job.
///
/// **Pruning.** [`prune`](MemoStore::prune) rewrites a damaged log with
/// only its valid frames, through a temporary file and a rename. A prune
/// that races a live writer can drop that writer's newest frames (an
/// append to the replaced file, or one the rewrite did not read): those
/// jobs simulate again on their next submission, and no report byte
/// changes.
#[derive(Debug)]
pub struct MemoStore {
    dir: PathBuf,
    log: PathBuf,
    index: Mutex<LogIndex>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stored: AtomicUsize,
}

/// A store's view of its log: which file it indexes and how far. Every
/// update leaves it valid (an interrupted refresh parses again from
/// `parsed`, and entries keep the first frame), so a poisoned lock is
/// recovered rather than propagated.
#[derive(Debug, Default)]
struct LogIndex {
    /// The indexed log, open for positioned reads, with its device and
    /// inode numbers; `None` until the log exists.
    file: Option<(File, (u64, u64))>,
    /// Where parsing resumes: the end of the last whole frame or damage,
    /// or the start of a frame still being appended.
    parsed: u64,
    entries: HashMap<u64, Entry>,
}

/// Where one key's frame body lies in the log.
#[derive(Debug, Clone, Copy)]
struct Entry {
    offset: u64,
    len: usize,
    digest: u64,
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
            log: dir.join(LOG_FILE),
            dir,
            index: Mutex::new(LogIndex::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            stored: AtomicUsize::new(0),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The append-only log inside [`dir`](Self::dir); no other file there
    /// belongs to the store.
    pub fn log_path(&self) -> &Path {
        &self.log
    }

    /// Number of distinct keys with a valid frame in the log.
    pub fn len(&self) -> usize {
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self.refresh(&mut index);
        index.entries.len()
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

    /// Counts the log's valid frames and damaged stretches.
    ///
    /// # Errors
    ///
    /// Propagates read failures (a missing log is an empty store).
    pub fn check(&self) -> std::io::Result<LogCheck> {
        let bytes = self.read_log()?;
        Ok(scan(&bytes).check(bytes.len()))
    }

    /// Checks the log and, if it holds damage, rewrites it with only its
    /// valid frames (through a temporary file and a rename). Returns what
    /// the check found: after a prune, `damaged` stretches are gone. See
    /// the type docs for a prune racing a live writer.
    ///
    /// # Errors
    ///
    /// Propagates read, write and rename failures; the log is unchanged
    /// when the rewrite fails.
    pub fn prune(&self) -> std::io::Result<LogCheck> {
        let bytes = self.read_log()?;
        let scan = scan(&bytes);
        let check = scan.check(bytes.len());
        if check.damaged > 0 {
            let kept: Vec<u8> = scan
                .frames
                .iter()
                .flat_map(|frame| &bytes[frame.start..frame.body.end])
                .copied()
                .collect();
            let temp = self
                .dir
                .join(format!(".{LOG_FILE}.{}.tmp", std::process::id()));
            let replaced = File::create(&temp)
                .and_then(|mut file| {
                    file.write_all(&kept)?;
                    file.sync_all()
                })
                .and_then(|()| std::fs::rename(&temp, &self.log));
            if let Err(error) = replaced {
                let _ = std::fs::remove_file(&temp);
                return Err(error);
            }
        }
        Ok(check)
    }

    fn read_log(&self) -> std::io::Result<Vec<u8>> {
        match std::fs::read(&self.log) {
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            read => read,
        }
    }

    /// Brings the index up to the log's current length (see the type
    /// docs): parses what was appended since the last refresh, or starts
    /// over on a replaced or shortened log.
    fn refresh(&self, index: &mut LogIndex) -> std::io::Result<()> {
        let meta = match std::fs::metadata(&self.log) {
            Ok(meta) => meta,
            Err(error) if error.kind() == std::io::ErrorKind::NotFound => {
                *index = LogIndex::default();
                return Ok(());
            }
            Err(error) => return Err(error),
        };
        let mut len = meta.len();
        let same_file = index
            .file
            .as_ref()
            .is_some_and(|(_, id)| *id == (meta.dev(), meta.ino()));
        if !same_file || len < index.parsed {
            let file = File::open(&self.log)?;
            // The file actually opened: a prune may have replaced the log
            // since the stat.
            let meta = file.metadata()?;
            len = meta.len();
            *index = LogIndex {
                file: Some((file, (meta.dev(), meta.ino()))),
                ..LogIndex::default()
            };
        } else if len == index.parsed {
            return Ok(());
        }
        let Some((file, _)) = &index.file else {
            return Ok(());
        };
        let mut bytes = vec![0; (len - index.parsed) as usize];
        file.read_exact_at(&mut bytes, index.parsed)?;
        let scan = scan(&bytes);
        let base = index.parsed;
        for frame in scan.frames {
            index.entries.entry(frame.key).or_insert(Entry {
                offset: base + frame.body.start as u64,
                len: frame.body.len(),
                digest: frame.digest,
            });
        }
        index.parsed = base + scan.end as u64;
        Ok(())
    }

    /// The body of `key`'s frame, refreshing the index on a miss.
    fn read_body(&self, key: MemoKey) -> Option<Vec<u8>> {
        let mut index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        if !index.entries.contains_key(&key.0) {
            self.refresh(&mut index).ok()?;
        }
        let entry = *index.entries.get(&key.0)?;
        let (file, _) = index.file.as_ref()?;
        let mut body = vec![0; entry.len];
        file.read_exact_at(&mut body, entry.offset).ok()?;
        (digest(key.0, &body) == entry.digest).then_some(body)
    }
}

impl ResultStore for MemoStore {
    fn load(&self, key: MemoKey) -> Option<LayerReport> {
        let loaded = self
            .read_body(key)
            .and_then(|body| String::from_utf8(body).ok())
            .and_then(|text| LayerReport::from_portable(&text).ok());
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    fn store(&self, key: MemoKey, report: &LayerReport) {
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log)
            .and_then(|mut log| log.write_all(&frame(key, report.to_portable().as_bytes())));
        if appended.is_ok() {
            self.stored.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A frame's digest: [`ContentHasher`] over its key and body, so damage
/// to the header's key field reads as a miss, not as another key's entry.
fn digest(key: u64, body: &[u8]) -> u64 {
    let mut hasher = ContentHasher::new();
    hasher.write_u64(key);
    hasher.write_bytes(body);
    hasher.finish()
}

/// One whole frame: its header line and `body`.
fn frame(key: MemoKey, body: &[u8]) -> Vec<u8> {
    let mut frame = format!(
        "loas-memo {key} {} {:016x}\n",
        body.len(),
        digest(key.0, body)
    )
    .into_bytes();
    frame.extend_from_slice(body);
    frame
}

/// A frame whose header and digest check, located in a scanned buffer.
#[derive(Debug)]
struct Frame {
    key: u64,
    digest: u64,
    /// Where its header starts.
    start: usize,
    body: Range<usize>,
}

/// Why no valid frame starts at some offset.
#[derive(Debug, PartialEq, Eq)]
enum NoFrame {
    /// The bytes there are a valid frame's prefix cut off at the end of
    /// the buffer: an append in flight, unless a valid frame follows.
    Incomplete,
    /// The header does not parse or the digest does not check.
    Damaged,
}

/// Parses the frame whose header starts at `at`.
fn frame_at(bytes: &[u8], at: usize) -> Result<Frame, NoFrame> {
    let rest = &bytes[at..];
    let Some(newline) = rest.iter().take(MAX_HEADER).position(|&b| b == b'\n') else {
        let header_prefix =
            rest.len() < MAX_HEADER && (rest.starts_with(FRAME_TAG) || FRAME_TAG.starts_with(rest));
        return Err(if header_prefix {
            NoFrame::Incomplete
        } else {
            NoFrame::Damaged
        });
    };
    let (key, len, want) = std::str::from_utf8(&rest[..newline])
        .ok()
        .and_then(parse_header)
        .ok_or(NoFrame::Damaged)?;
    let body_start = at + newline + 1;
    let body_end = body_start.checked_add(len).ok_or(NoFrame::Damaged)?;
    let Some(body) = bytes.get(body_start..body_end) else {
        return Err(NoFrame::Incomplete);
    };
    if digest(key, body) != want {
        return Err(NoFrame::Damaged);
    }
    Ok(Frame {
        key,
        digest: want,
        start: at,
        body: body_start..body_end,
    })
}

/// Splits a header line into key, body length and digest. Key and digest
/// are exactly 16 lowercase hex digits, the length plain decimal.
fn parse_header(line: &str) -> Option<(u64, usize, u64)> {
    fn hex16(field: &str) -> Option<u64> {
        let lower_hex = field.len() == 16
            && field
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        lower_hex.then(|| u64::from_str_radix(field, 16).ok())?
    }
    let mut fields = line.strip_prefix("loas-memo ")?.split(' ');
    let key = hex16(fields.next()?)?;
    let len = fields
        .next()
        .filter(|len| len.bytes().all(|b| b.is_ascii_digit()))?
        .parse()
        .ok()?;
    let digest = hex16(fields.next()?)?;
    fields.next().is_none().then_some((key, len, digest))
}

/// What one pass over a log buffer found.
#[derive(Debug)]
struct Scan {
    /// Every valid frame, in log order.
    frames: Vec<Frame>,
    /// Damaged stretches before [`end`](Self::end).
    damaged: usize,
    /// Where parsing stopped: the buffer's end, or the start of a frame
    /// cut off there.
    end: usize,
}

impl Scan {
    fn check(&self, len: usize) -> LogCheck {
        LogCheck {
            valid_frames: self.frames.len(),
            damaged: self.damaged + usize::from(self.end < len),
        }
    }
}

/// Parses a log buffer frame by frame. Past damage it resyncs at the
/// next offset where a valid frame starts; when none follows, parsing
/// ends at the first frame still being appended, if any.
fn scan(bytes: &[u8]) -> Scan {
    let mut scan = Scan {
        frames: Vec::new(),
        damaged: 0,
        end: bytes.len(),
    };
    let mut at = 0;
    while at < bytes.len() {
        let no_frame = match frame_at(bytes, at) {
            Ok(frame) => {
                at = frame.body.end;
                scan.frames.push(frame);
                continue;
            }
            Err(no_frame) => no_frame,
        };
        // Every header starts with `l`, so only those offsets can resync.
        let mut in_flight = (no_frame == NoFrame::Incomplete).then_some(at);
        let mut next = None;
        for candidate in (at + 1..bytes.len()).filter(|&i| bytes[i] == FRAME_TAG[0]) {
            match frame_at(bytes, candidate) {
                Ok(_) => {
                    next = Some(candidate);
                    break;
                }
                Err(NoFrame::Incomplete) => {
                    in_flight.get_or_insert(candidate);
                }
                Err(NoFrame::Damaged) => {}
            }
        }
        match next {
            Some(next) => {
                scan.damaged += 1;
                at = next;
            }
            None => {
                if in_flight != Some(at) {
                    scan.damaged += 1;
                }
                scan.end = in_flight.unwrap_or(bytes.len());
                break;
            }
        }
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobSpec, WorkloadSpec};
    use crate::AcceleratorSpec;
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
    fn non_default_config_memo_keys_are_pinned() {
        // The golden-v1 keys cover default configs only. These pin the
        // config half of the key layout: LoAS hashes every field, a
        // baseline hashes `cfg/2` and its fields when they differ from its
        // default (Gamma at 256 KiB is the default and adds nothing).
        use loas_baselines::{GammaConfig, GospaConfig, PtbConfig, SparTenConfig, StellarConfig};
        let mut specs = vec![
            AcceleratorSpec::loas_with(LoasConfig::builder().tppes(32).build()),
            AcceleratorSpec::loas_with(LoasConfig::builder().hbm_gbps(16.0).build()),
            AcceleratorSpec::loas_ft(),
        ];
        specs.extend(GammaConfig::CACHE_SWEEP_POINTS.map(|bytes| {
            AcceleratorSpec::from_config(GammaConfig::builder().cache_bytes(bytes).build())
        }));
        specs.extend([
            AcceleratorSpec::from_config(SparTenConfig::builder().pes(8).build()),
            AcceleratorSpec::from_config(GospaConfig::builder().lanes(8).build()),
            AcceleratorSpec::from_config(PtbConfig::builder().utilization(0.5).build()),
            AcceleratorSpec::from_config(StellarConfig::builder().array_cols(8).build()),
        ]);
        let keys: Vec<String> = specs
            .into_iter()
            .map(|spec| job("w", spec).memo_key().to_string())
            .collect();
        assert_eq!(
            keys,
            [
                "a2a3a02248f3f154", // LoAS, 32 TPPEs
                "bcd52d8dc38f21f4", // LoAS, 16 GB/s
                "fd9b68011e835aab", // LoAS-FT
                "8957da4fe3bb9b43", // Gamma, 64 KiB
                "0c46bb031d0a3cf2", // Gamma, 128 KiB
                "b1043f37edb348a0", // Gamma, 256 KiB (default)
                "43c83b9f7cad3e80", // Gamma, 512 KiB
                "da5286573270a79b", // SparTen, 8 PEs
                "53bfe16e8057ec60", // GoSPA, 8 lanes
                "f9f3a227ddecce64", // PTB, 50% utilization
                "9207e10fd7ed5b47", // Stellar, 8 columns
            ]
        );
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
        let other = job("w", AcceleratorSpec::gamma()).memo_key();
        store.store(other, &report(7));
        assert_eq!(store.load(other).unwrap().stats.cycles, Cycle(7));
        assert_eq!(store.load(key).unwrap().stats.cycles, Cycle(42));
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.stored), (3, 1, 2));
        let files: Vec<_> = std::fs::read_dir(store.dir()).unwrap().collect();
        assert_eq!(files.len(), 1, "one log, whatever the entry count");
        assert_eq!(
            store.check().unwrap(),
            LogCheck {
                valid_frames: 2,
                damaged: 0
            }
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let store = temp_store("corrupt");
        let key = job("w", AcceleratorSpec::gamma()).memo_key();
        std::fs::write(store.log_path(), "not a report").unwrap();
        assert!(store.load(key).is_none());
        // A frame that checks but holds no portable report is a miss too.
        std::fs::remove_file(store.log_path()).unwrap();
        std::fs::write(store.log_path(), frame(key, b"not a report")).unwrap();
        assert!(store.load(key).is_none());
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stores_on_one_directory_load_each_others_appends() {
        let first = temp_store("shared");
        let second = MemoStore::open(first.dir()).unwrap();
        let (a, b) = (MemoKey::new(1), MemoKey::new(2));
        assert!(first.load(a).is_none() && second.load(b).is_none());
        first.store(a, &report(1));
        second.store(b, &report(2));
        assert_eq!(second.load(a).unwrap().stats.cycles, Cycle(1));
        assert_eq!(first.load(b).unwrap().stats.cycles, Cycle(2));
        // A later append after the index was built is picked up too.
        let c = MemoKey::new(3);
        first.store(c, &report(3));
        assert_eq!(second.load(c).unwrap().stats.cycles, Cycle(3));
        assert_eq!((first.len(), second.len()), (3, 3));
        let _ = std::fs::remove_dir_all(first.dir());
    }

    /// A log of three frames, keys 1, 2 and 3, and where the last starts.
    fn three_frames() -> (Vec<u8>, usize) {
        let framed = |key| frame(MemoKey::new(key), report(key).to_portable().as_bytes());
        let mut log = [framed(1), framed(2)].concat();
        let last = log.len();
        log.extend(framed(3));
        (log, last)
    }

    fn cycles(store: &MemoStore, key: u64) -> Option<u64> {
        store
            .load(MemoKey::new(key))
            .map(|report| report.stats.cycles.get())
    }

    #[test]
    fn a_torn_last_frame_hides_only_itself() {
        let store = temp_store("torn");
        let (log, last) = three_frames();
        for cut in last..=log.len() {
            std::fs::write(store.log_path(), &log[..cut]).unwrap();
            // A fresh reader, and one that indexed the torn log before the
            // next append.
            let fresh = MemoStore::open(store.dir()).unwrap();
            let early = MemoStore::open(store.dir()).unwrap();
            let whole = cut == log.len();
            assert_eq!(early.len(), 2 + usize::from(whole), "cut at {cut}");
            assert_eq!(cycles(&early, 3).is_some(), whole, "cut at {cut}");
            fresh.store(MemoKey::new(4), &report(4));
            for reader in [&fresh, &early, &MemoStore::open(store.dir()).unwrap()] {
                assert_eq!(cycles(reader, 1), Some(1), "cut at {cut}");
                assert_eq!(cycles(reader, 2), Some(2), "cut at {cut}");
                assert_eq!(cycles(reader, 4), Some(4), "cut at {cut}");
                assert_eq!(cycles(reader, 3), whole.then_some(3), "cut at {cut}");
            }
            let check = store.check().unwrap();
            assert_eq!(check.valid_frames, 3 + usize::from(whole), "cut at {cut}");
            assert_eq!(
                check.damaged,
                usize::from(cut > last && !whole),
                "cut at {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_flipped_body_byte_misses_only_its_own_key() {
        let store = temp_store("flip");
        let (log, last) = three_frames();
        let second_body = last - report(2).to_portable().len()..last;
        for at in second_body {
            let mut flipped = log.clone();
            flipped[at] ^= 0x20;
            std::fs::write(store.log_path(), &flipped).unwrap();
            let reader = MemoStore::open(store.dir()).unwrap();
            assert_eq!(cycles(&reader, 1), Some(1), "flip at {at}");
            assert_eq!(cycles(&reader, 2), None, "flip at {at}");
            assert_eq!(cycles(&reader, 3), Some(3), "flip at {at}");
            let check = reader.check().unwrap();
            assert_eq!((check.valid_frames, check.damaged), (2, 1), "flip at {at}");
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_damaged_key_field_reads_as_a_miss() {
        let store = temp_store("key-damage");
        store.store(MemoKey::new(1), &report(1));
        store.store(MemoKey::new(2), &report(2));
        // Rewrite the first header's key to the second key's.
        let log = std::fs::read(store.log_path()).unwrap();
        let key_end = FRAME_TAG.len() + 16;
        assert_eq!(&log[key_end - 1..key_end], b"1");
        let mut damaged = log.clone();
        damaged[key_end - 1] = b'2';
        std::fs::remove_file(store.log_path()).unwrap();
        std::fs::write(store.log_path(), &damaged).unwrap();
        let reader = MemoStore::open(store.dir()).unwrap();
        assert_eq!(cycles(&reader, 1), None);
        assert_eq!(cycles(&reader, 2), Some(2), "not the first frame's report");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn frame_headers_parse_strictly() {
        let body = report(5).to_portable();
        let good = frame(MemoKey::new(0x0123_4567_89ab_cdef), body.as_bytes());
        let header_len = good.len() - body.len();
        let header = std::str::from_utf8(&good[..header_len - 1]).unwrap();
        assert_eq!(
            parse_header(header),
            Some((
                0x0123_4567_89ab_cdef,
                body.len(),
                digest(0x0123_4567_89ab_cdef, body.as_bytes())
            ))
        );
        let digest_hex = format!("{:016x}", digest(0x0123_4567_89ab_cdef, body.as_bytes()));
        let len = body.len();
        for bad in [
            format!("loas-memo 0123456789ABCDEF {len} {digest_hex}"), // uppercase
            format!("loas-memo 0123456789abcde {len} {digest_hex}"),  // short
            format!("loas-memo xyzw456789abcdef {len} {digest_hex}"), // non-hex
            format!("loas-memo 0123456789abcdef +{len} {digest_hex}"), // signed length
            format!("loas-memo 0123456789abcdef {len} {digest_hex} x"), // extra field
            format!("loas-memo 0123456789abcdef {len}"),              // no digest
            format!("loas-mem0 0123456789abcdef {len} {digest_hex}"), // wrong tag
        ] {
            assert_eq!(parse_header(&bad), None, "{bad}");
            let mut log = bad.into_bytes();
            log.push(b'\n');
            log.extend_from_slice(body.as_bytes());
            let scan = scan(&log);
            assert!(scan.frames.is_empty());
            assert_eq!(scan.check(log.len()).damaged, 1);
        }
    }

    #[test]
    fn duplicate_frames_of_one_key_are_harmless() {
        let store = temp_store("duplicates");
        store.store(MemoKey::new(1), &report(1));
        store.store(MemoKey::new(1), &report(1));
        store.store(MemoKey::new(2), &report(2));
        assert_eq!(store.len(), 2);
        assert_eq!(cycles(&store, 1), Some(1));
        assert_eq!(
            store.check().unwrap(),
            LogCheck {
                valid_frames: 3,
                damaged: 0
            }
        );
        // Readers keep the first frame that checks: a damaged first copy
        // falls through to the second.
        let mut log = std::fs::read(store.log_path()).unwrap();
        let body_end = log.iter().position(|&b| b == b'\n').unwrap() + 5;
        log[body_end] ^= 0x20;
        std::fs::write(store.log_path(), &log).unwrap();
        let reader = MemoStore::open(store.dir()).unwrap();
        assert_eq!(cycles(&reader, 1), Some(1));
        assert_eq!(reader.len(), 2);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn prune_keeps_every_valid_frame() {
        let store = temp_store("prune");
        let (log, last) = three_frames();
        let mut damaged = b"garbage\n".to_vec();
        damaged.extend_from_slice(&log[..last]);
        damaged.extend_from_slice(b"loas-memo 00000000deadbeef 3 0000000000000000\nbad");
        damaged.extend_from_slice(&log[last..]);
        damaged.extend_from_slice(&log[..20]);
        std::fs::write(store.log_path(), &damaged).unwrap();
        assert_eq!(cycles(&store, 1), Some(1));
        let found = store.prune().unwrap();
        assert_eq!(
            found,
            LogCheck {
                valid_frames: 3,
                damaged: 3
            }
        );
        assert_eq!(std::fs::read(store.log_path()).unwrap(), log);
        assert_eq!(
            store.check().unwrap(),
            LogCheck {
                valid_frames: 3,
                damaged: 0
            }
        );
        // The store that indexed the old log follows the replacement, and
        // appends land in the new log.
        store.store(MemoKey::new(4), &report(4));
        for key in 1..=4 {
            assert_eq!(cycles(&store, key), Some(key));
            assert_eq!(
                cycles(&MemoStore::open(store.dir()).unwrap(), key),
                Some(key)
            );
        }
        let files: Vec<_> = std::fs::read_dir(store.dir()).unwrap().collect();
        assert_eq!(files.len(), 1, "the prune left no temporary behind");
        // A clean log is not rewritten.
        let inode = std::fs::metadata(store.log_path()).unwrap().ino();
        assert_eq!(store.prune().unwrap().damaged, 0);
        assert_eq!(std::fs::metadata(store.log_path()).unwrap().ino(), inode);
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
