//! Banked, set-associative on-chip SRAM cache (FiberCache-style).
//!
//! LoAS uses a 256 KB, 16-bank, 16-way-associative unified global cache for
//! compressed fibers (Table III), following Gamma's FiberCache. The model
//! here simulates tag behaviour (LRU within each set) to produce the
//! normalized miss-rate comparison of Fig. 14, and ledgers all read/write
//! bytes for the on-chip traffic plots of Fig. 13.
//!
//! # Simulator performance
//!
//! Two layers of mechanism keep the tag-accurate model off the profile
//! without changing a single hit/miss outcome:
//!
//! 1. **Indexed lookup** — resident lines live in an O(1) hash index
//!    (line id → slot), replacing the per-access linear scan over the
//!    `ways` tags of a set (16 compares per access in the default
//!    geometry). The LRU victim scan on a miss is unchanged — and provably
//!    identical, because valid ways always form the prefix `[0, filled)`
//!    of a set.
//! 2. **Span batching** — callers that touch a multi-line object describe
//!    it once as a [`LineSpan`] and call [`SramCache::access_span`] /
//!    [`SramCache::probe_span`]: one ledger record and one tight loop
//!    instead of a function call per 64-byte line.
//!
//! A replay whose whole footprint fits the cache skips the tags
//! altogether: when [`SramCache::fits_without_eviction`] holds, every
//! distinct line misses exactly once in any access order, and
//! [`SramCache::record_unevicted`] ledgers the replay from its touch and
//! line counts (the LoAS and Gamma-SNN global-cache replays).

use crate::stats::{CacheStats, TrafficClass, TrafficLedger};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was fetched (and possibly evicted another line).
    Miss,
}

/// A contiguous run of cache lines covering one object, precomputed so the
/// hot replay loops do no per-access address arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineSpan {
    /// First covering line id.
    pub first_line: u64,
    /// Number of covering lines (0 for empty objects).
    pub n_lines: u64,
}

impl LineSpan {
    /// The lines covering `bytes` bytes starting at abstract address
    /// `addr`. Saturating span math: an object extending past `u64::MAX`
    /// clamps to the last representable line instead of wrapping around to
    /// line 0 (the `addr + bytes - 1` overflow hazard of the original
    /// `access_range`).
    pub fn of_range(addr: u64, bytes: u64, line_bytes: usize) -> Self {
        if bytes == 0 {
            return LineSpan::default();
        }
        let line = line_bytes as u64;
        let first = addr / line;
        let last = addr.saturating_add(bytes - 1) / line;
        LineSpan {
            first_line: first,
            n_lines: last - first + 1,
        }
    }

    /// The lines covering `bytes` bytes starting `intra` bytes into line
    /// `first_line` — the per-pair form: base line and intra-line offset
    /// are precomputed once per row, only the length varies per pair.
    /// Clamps to the last representable line like
    /// [`LineSpan::of_range`], so spans never wrap past `u64::MAX`.
    pub fn tail(first_line: u64, intra: u64, bytes: u64, line_bytes: usize) -> Self {
        if bytes == 0 {
            return LineSpan::default();
        }
        let extra_lines =
            (intra.saturating_add(bytes - 1) / line_bytes as u64).min(u64::MAX - first_line);
        LineSpan {
            first_line,
            // Saturates for the degenerate full-address-space span (the
            // count 2^64 is unrepresentable; the last line is dropped).
            n_lines: extra_lines.saturating_add(1),
        }
    }

    /// Whether the span covers no lines.
    pub fn is_empty(&self) -> bool {
        self.n_lines == 0
    }
}

/// Hashes abstract line ids with one multiply + xor-shift — line ids are
/// already well-distributed addresses, so SipHash would be pure overhead
/// on the hottest loop of the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineIdHash;

struct LineIdHasher(u64);

impl Hasher for LineIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; keep a correct fallback anyway.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut h = value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }
}

impl BuildHasher for LineIdHash {
    type Hasher = LineIdHasher;

    fn build_hasher(&self) -> LineIdHasher {
        LineIdHasher(0)
    }
}

/// Checks the geometry [`SramCache::new`] accepts: non-zero line size,
/// ways and banks, at least one set, and at most `u32::MAX` lines (slot
/// ids are `u32`). Configs call it so untrusted spec overrides fail as
/// errors instead of panicking a simulation.
///
/// # Errors
///
/// A message naming the violated constraint.
pub fn check_cache_geometry(
    capacity_bytes: usize,
    line_bytes: usize,
    ways: usize,
    banks: usize,
) -> Result<(), String> {
    if line_bytes == 0 || ways == 0 || banks == 0 {
        return Err("degenerate cache geometry".to_owned());
    }
    match line_bytes.checked_mul(ways) {
        Some(set_bytes) if capacity_bytes >= set_bytes => {}
        _ => return Err("cache capacity below one set".to_owned()),
    }
    if capacity_bytes / line_bytes > u32::MAX as usize {
        return Err(format!("cache holds more than {} lines", u32::MAX));
    }
    Ok(())
}

/// A set-associative cache with per-set LRU replacement.
///
/// Addresses are abstract line identifiers: callers hash whatever object
/// identity they track (fiber id, psum tile id, ...) into a `u64`.
///
/// # Examples
///
/// ```
/// use loas_sim::{Access, SramCache, TrafficClass};
///
/// let mut cache = SramCache::new(4 * 64, 64, 2, 1);
/// assert_eq!(cache.access_line(0, TrafficClass::Weight), Access::Miss);
/// assert_eq!(cache.access_line(0, TrafficClass::Weight), Access::Hit);
/// assert!(cache.stats().miss_rate() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SramCache {
    line_bytes: usize,
    ways: usize,
    sets: usize,
    banks: usize,
    /// `sets x ways` tags; `None` = invalid. Tag includes the set bits
    /// (full line id) for simplicity.
    tags: Vec<Option<u64>>,
    /// LRU counters parallel to `tags` (higher = more recently used).
    lru: Vec<u64>,
    /// Resident-line index: line id → slot in `tags`/`lru`. Kept exactly
    /// in sync with `tags` so lookups are O(1) instead of O(ways).
    index: HashMap<u64, u32, LineIdHash>,
    tick: u64,
    stats: CacheStats,
    traffic: TrafficLedger,
}

impl SramCache {
    /// The paper's global cache: 256 KB, 16 banks, 16-way associative, with
    /// 64-byte lines.
    pub fn loas_default() -> Self {
        SramCache::new(256 * 1024, 64, 16, 16)
    }

    /// Creates a cache of `capacity_bytes` with the given line size,
    /// associativity, and bank count.
    ///
    /// # Panics
    ///
    /// Panics when [`check_cache_geometry`] rejects the geometry.
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize, banks: usize) -> Self {
        if let Err(message) = check_cache_geometry(capacity_bytes, line_bytes, ways, banks) {
            panic!("{message}");
        }
        let sets = capacity_bytes / line_bytes / ways;
        SramCache {
            line_bytes,
            ways,
            sets,
            banks,
            tags: vec![None; sets * ways],
            lru: vec![0; sets * ways],
            index: HashMap::with_capacity_and_hasher(sets * ways, LineIdHash),
            tick: 0,
            stats: CacheStats::default(),
            traffic: TrafficLedger::new(),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }

    /// Number of banks (for concurrent-access modeling).
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// The [`LineSpan`] covering `bytes` at `addr` under this cache's line
    /// size.
    pub fn span_of(&self, addr: u64, bytes: u64) -> LineSpan {
        LineSpan::of_range(addr, bytes, self.line_bytes)
    }

    /// Tag-touches one line without ledgering traffic: the shared core of
    /// every access/probe entry point.
    #[inline]
    fn touch_line(&mut self, line_id: u64) -> Access {
        self.tick += 1;
        if let Some(&slot) = self.index.get(&line_id) {
            self.lru[slot as usize] = self.tick;
            self.stats.hits += 1;
            return Access::Hit;
        }
        // Miss: evict LRU way (invalid ways preferred, lowest index first —
        // the exact victim order of the pre-index linear-scan model).
        self.stats.misses += 1;
        let set = (line_id % self.sets as u64) as usize;
        let base = set * self.ways;
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                if self.tags[base + w].is_none() {
                    0 // prefer invalid ways
                } else {
                    self.lru[base + w] + 1
                }
            })
            .expect("ways > 0");
        let slot = base + victim;
        if let Some(evicted) = self.tags[slot] {
            self.index.remove(&evicted);
        }
        self.tags[slot] = Some(line_id);
        self.lru[slot] = self.tick;
        self.index.insert(line_id, slot as u32);
        Access::Miss
    }

    /// Looks up line `line_id`, inserting on miss (LRU eviction). Records
    /// one line of SRAM read traffic of the given class.
    #[inline]
    pub fn access_line(&mut self, line_id: u64, class: TrafficClass) -> Access {
        self.traffic.record(class, self.line_bytes as u64);
        self.touch_line(line_id)
    }

    /// Accesses an object spanning `bytes` starting at abstract address
    /// `addr`: touches every covering line, returns the number of missed
    /// lines. Span math saturates, so objects extending past `u64::MAX`
    /// clamp to the last line instead of wrapping.
    pub fn access_range(&mut self, addr: u64, bytes: u64, class: TrafficClass) -> u64 {
        self.access_span(self.span_of(addr, bytes), class)
    }

    /// Tags an access like [`SramCache::access_range`] but without
    /// ledgering line traffic — for sub-line streaming reads whose exact
    /// byte traffic the caller ledgers separately via
    /// [`SramCache::read_untagged`].
    pub fn probe_range(&mut self, addr: u64, bytes: u64) -> u64 {
        self.probe_span(self.span_of(addr, bytes))
    }

    /// Accesses every line of a precomputed span, ledgering one record of
    /// `n_lines` lines of read traffic. Hit/miss outcomes, statistics, and
    /// LRU state are identical to looping [`SramCache::access_line`] over
    /// the span.
    #[inline]
    pub fn access_span(&mut self, span: LineSpan, class: TrafficClass) -> u64 {
        if span.is_empty() {
            return 0;
        }
        self.traffic
            .record(class, span.n_lines * self.line_bytes as u64);
        self.touch_span(span)
    }

    /// Tag-touches every line of a span without ledgering traffic (the
    /// span form of [`SramCache::probe_range`]).
    #[inline]
    pub fn probe_span(&mut self, span: LineSpan) -> u64 {
        self.touch_span(span)
    }

    #[inline]
    fn touch_span(&mut self, span: LineSpan) -> u64 {
        let mut missed = 0;
        for i in 0..span.n_lines {
            if self.touch_line(span.first_line + i) == Access::Miss {
                missed += 1;
            }
        }
        missed
    }

    /// Whether touching `distinct_lines` (each line at most once in the
    /// iterator), in any order and any number of times, can never evict:
    /// the cache holds no line yet and no set receives more than `ways` of
    /// them. Stops at the first set that overflows, so it reads at most
    /// `sets·ways + 1` lines.
    pub fn fits_without_eviction(&self, distinct_lines: impl IntoIterator<Item = u64>) -> bool {
        if !self.index.is_empty() {
            return false;
        }
        let mut filled = vec![0usize; self.sets];
        for line in distinct_lines {
            let set = &mut filled[(line % self.sets as u64) as usize];
            *set += 1;
            if *set > self.ways {
                return false;
            }
        }
        true
    }

    /// Ledgers `touches` line touches, `first_touches` of them misses and
    /// the rest hits: the closed form of replaying them through
    /// [`SramCache::access_span`] (line reads of `Some(class)`) or
    /// [`SramCache::probe_span`] (`None`: tag touches that ledger no line
    /// traffic) when [`SramCache::fits_without_eviction`] holds for every
    /// line the replay touches, where each distinct line misses exactly
    /// once. Tag and LRU state are left as they are, so the call stands in
    /// for the whole replay, not for part of one.
    ///
    /// # Panics
    ///
    /// Panics when `first_touches > touches`.
    pub fn record_unevicted(
        &mut self,
        class: Option<TrafficClass>,
        touches: u64,
        first_touches: u64,
    ) {
        assert!(first_touches <= touches, "more first touches than touches");
        if let Some(class) = class {
            self.traffic.record(class, touches * self.line_bytes as u64);
        }
        self.stats.misses += first_touches;
        self.stats.hits += touches - first_touches;
    }

    /// Records a write of `bytes` (writes are ledgered, not tagged: the
    /// models use write-through traffic accounting).
    pub fn write(&mut self, class: TrafficClass, bytes: u64) {
        self.traffic.record(class, bytes);
    }

    /// Records a read of `bytes` that bypasses tag simulation (scratchpad
    /// reads within a known-resident buffer).
    pub fn read_untagged(&mut self, class: TrafficClass, bytes: u64) {
        self.traffic.record(class, bytes);
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// SRAM traffic ledger (reads + writes).
    pub fn traffic(&self) -> &TrafficLedger {
        &self.traffic
    }

    /// Extracts the ledger and statistics, resetting tag state.
    pub fn take_results(&mut self) -> (TrafficLedger, CacheStats) {
        let out = (std::mem::take(&mut self.traffic), self.stats);
        self.stats = CacheStats::default();
        self.tags.fill(None);
        self.lru.fill(0);
        self.index.clear();
        self.tick = 0;
        out
    }

    /// Full tag/LRU state in slot order — an equivalence-test hook (tag
    /// arrays equal ⇒ every eviction picked the same victim), not a
    /// modeling API.
    #[doc(hidden)]
    pub fn tag_snapshot(&self) -> Vec<(Option<u64>, u64)> {
        self.tags
            .iter()
            .copied()
            .zip(self.lru.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn geometry_of_default_matches_table3() {
        let c = SramCache::loas_default();
        assert_eq!(c.capacity_bytes(), 256 * 1024);
        assert_eq!(c.banks(), 16);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.sets(), 256);
    }

    #[test]
    fn geometry_check_mirrors_the_constructor() {
        assert!(check_cache_geometry(256 * 1024, 64, 16, 16).is_ok());
        assert!(check_cache_geometry(64 * 16, 64, 16, 1).is_ok());
        let bad = [
            (1024, 0, 2, 1),
            (1024, 64, 0, 1),
            (1024, 64, 2, 0),
            (64, 64, 2, 1),
            (usize::MAX, usize::MAX, 2, 1),
            (1 << 40, 64, 16, 16),
        ];
        for (capacity, line, ways, banks) in bad {
            assert!(
                check_cache_geometry(capacity, line, ways, banks).is_err(),
                "{capacity} / {line} / {ways} / {banks}"
            );
        }
    }

    #[test]
    fn hits_after_first_touch() {
        let mut c = SramCache::new(1024, 64, 2, 1);
        assert_eq!(c.access_line(7, TrafficClass::Weight), Access::Miss);
        assert_eq!(c.access_line(7, TrafficClass::Weight), Access::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set, 2 ways: line ids that collide in set 0.
        let mut c = SramCache::new(2 * 64, 64, 2, 1);
        c.access_line(0, TrafficClass::Input); // miss
        c.access_line(1, TrafficClass::Input); // miss
        c.access_line(0, TrafficClass::Input); // hit (0 now MRU)
        c.access_line(2, TrafficClass::Input); // miss, evicts 1
        assert_eq!(c.access_line(0, TrafficClass::Input), Access::Hit);
        assert_eq!(c.access_line(1, TrafficClass::Input), Access::Miss);
    }

    #[test]
    fn access_range_touches_all_lines() {
        let mut c = SramCache::new(16 * 64, 64, 4, 1);
        let missed = c.access_range(0, 200, TrafficClass::Weight); // lines 0..=3
        assert_eq!(missed, 4);
        assert_eq!(c.access_range(0, 200, TrafficClass::Weight), 0);
        assert_eq!(c.access_range(0, 0, TrafficClass::Weight), 0);
    }

    #[test]
    fn access_range_saturates_instead_of_wrapping() {
        // Regression: `addr + bytes - 1` used to wrap for objects near the
        // top of the address space, touching line 0 instead of the tail.
        let mut c = SramCache::new(16 * 64, 64, 4, 1);
        let addr = u64::MAX - 100;
        let missed = c.access_range(addr, 1000, TrafficClass::Weight);
        let first = addr / 64;
        let last = u64::MAX / 64;
        assert_eq!(missed, last - first + 1);
        // The clamped span re-touches as all hits; line 0 was never pulled.
        assert_eq!(c.access_range(addr, 1000, TrafficClass::Weight), 0);
        assert_eq!(c.access_line(0, TrafficClass::Weight), Access::Miss);
        // The span helper agrees with the saturating math.
        let span = LineSpan::of_range(addr, 1000, 64);
        assert_eq!(span.first_line, first);
        assert_eq!(span.n_lines, last - first + 1);
    }

    #[test]
    fn span_of_range_and_tail_agree() {
        for (addr, bytes) in [(0u64, 1u64), (63, 1), (63, 2), (100, 700), (64, 0)] {
            let direct = LineSpan::of_range(addr, bytes, 64);
            let tail = LineSpan::tail(addr / 64, addr % 64, bytes, 64);
            assert_eq!(direct, tail, "addr {addr} bytes {bytes}");
        }
        assert!(LineSpan::of_range(4, 0, 64).is_empty());
        // Each form clamps in its own address space instead of wrapping:
        // `of_range` at the last byte-addressable line, `tail` at the last
        // line id (its base is a line id, not a byte address).
        let top = LineSpan::tail(u64::MAX, 63, 1_000_000, 64);
        assert_eq!(top.first_line, u64::MAX);
        assert_eq!(top.n_lines, 1);
        let near_top = LineSpan::tail(u64::MAX - 3, 0, u64::MAX, 64);
        assert_eq!(near_top.n_lines, 4);
        // Degenerate full-address-space span: the count saturates instead
        // of overflowing to an empty (or panicking) span.
        let everything = LineSpan::tail(0, u64::MAX, 2, 1);
        assert_eq!(everything.n_lines, u64::MAX);
    }

    #[test]
    fn span_calls_match_per_line_loop() {
        let mut spanned = SramCache::new(8 * 64, 64, 2, 1);
        let mut lined = SramCache::new(8 * 64, 64, 2, 1);
        for (addr, bytes) in [(0u64, 500u64), (120, 130), (0, 500), (4096, 64)] {
            let span = spanned.span_of(addr, bytes);
            let a = spanned.access_span(span, TrafficClass::Weight);
            let mut b = 0;
            for i in 0..span.n_lines {
                if lined.access_line(span.first_line + i, TrafficClass::Weight) == Access::Miss {
                    b += 1;
                }
            }
            assert_eq!(a, b, "addr {addr} bytes {bytes}");
        }
        assert_eq!(spanned.stats(), lined.stats());
        assert_eq!(spanned.traffic(), lined.traffic());
        assert_eq!(spanned.tag_snapshot(), lined.tag_snapshot());
    }

    proptest! {
        #[test]
        fn unevicted_footprints_match_the_tag_walk(
            geometry in (1usize..=8, 1usize..=4),
            candidates in proptest::collection::btree_set(0u64..64, 1..40),
            retouches in proptest::collection::vec(any::<u64>(), 0..120),
            shuffle in any::<u64>(),
            crowded_set in any::<u64>(),
        ) {
            let (sets, ways) = geometry;
            let new_cache = || SramCache::new(sets * ways * 64, 64, ways, 1);
            let set_of = |line: u64| (line % sets as u64) as usize;
            // At most `ways` lines per set: a footprint that fits.
            let mut per_set = vec![0usize; sets];
            let footprint: Vec<u64> = candidates
                .iter()
                .copied()
                .filter(|&line| {
                    per_set[set_of(line)] += 1;
                    per_set[set_of(line)] <= ways
                })
                .collect();
            prop_assert!(new_cache().fits_without_eviction(footprint.iter().copied()));

            // Every line once plus random re-touches, in a random order.
            let mut touches = footprint.clone();
            touches.extend(retouches.iter().map(|&r| footprint[(r % footprint.len() as u64) as usize]));
            let mut state = shuffle | 1;
            for i in (1..touches.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                touches.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let mut walked = new_cache();
            let mut probed = new_cache();
            for &line in &touches {
                let span = LineSpan { first_line: line, n_lines: 1 };
                walked.access_span(span, TrafficClass::Weight);
                probed.probe_span(span);
            }
            let mut closed = new_cache();
            closed.record_unevicted(Some(TrafficClass::Weight), touches.len() as u64, footprint.len() as u64);
            prop_assert_eq!(walked.stats(), closed.stats());
            prop_assert_eq!(walked.traffic(), closed.traffic());
            let mut closed_probes = new_cache();
            closed_probes.record_unevicted(None, touches.len() as u64, footprint.len() as u64);
            prop_assert_eq!(probed.stats(), closed_probes.stats());
            prop_assert_eq!(probed.traffic(), closed_probes.traffic());
            // A cache that already holds lines never claims a fit.
            prop_assert!(!walked.fits_without_eviction([]));

            // One line more than `ways` in any one set overflows it.
            let set = crowded_set % sets as u64;
            let mut crowded = footprint.clone();
            let room = ways - per_set[set as usize].min(ways);
            crowded.extend((0..=room as u64).map(|j| set + sets as u64 * (64 + j)));
            prop_assert!(!new_cache().fits_without_eviction(crowded));
        }
    }

    #[test]
    fn traffic_ledgered_per_line() {
        let mut c = SramCache::new(1024, 64, 2, 1);
        c.access_line(0, TrafficClass::Weight);
        c.write(TrafficClass::Output, 10);
        c.read_untagged(TrafficClass::Psum, 6);
        assert_eq!(c.traffic().get(TrafficClass::Weight), 64);
        assert_eq!(c.traffic().get(TrafficClass::Output), 10);
        assert_eq!(c.traffic().total(), 80);
    }

    #[test]
    fn probe_span_tags_without_ledgering() {
        let mut c = SramCache::new(1024, 64, 2, 1);
        assert_eq!(c.probe_range(0, 100), 2);
        assert_eq!(c.traffic().total(), 0);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(
            c.probe_span(LineSpan {
                first_line: 0,
                n_lines: 2
            }),
            0
        );
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn take_results_resets() {
        let mut c = SramCache::new(1024, 64, 2, 1);
        c.access_line(3, TrafficClass::Input);
        let (ledger, stats) = c.take_results();
        assert_eq!(ledger.total(), 64);
        assert_eq!(stats.misses, 1);
        assert_eq!(c.stats().accesses(), 0);
        // After reset the same line misses again.
        assert_eq!(c.access_line(3, TrafficClass::Input), Access::Miss);
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = SramCache::new(4 * 64, 64, 2, 2);
        for i in 0..100u64 {
            c.access_line(i % 7, TrafficClass::Other);
        }
        assert_eq!(c.stats().accesses(), 100);
    }
}
