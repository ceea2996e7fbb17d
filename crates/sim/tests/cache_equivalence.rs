//! Property test: the indexed, span-batched [`SramCache`] is observationally identical to the original per-line
//! linear-tag-scan model over random access/probe/span sequences —
//! identical hit/miss outcomes, statistics, traffic ledger, and eviction
//! victims (asserted through full tag/LRU state equality after every
//! operation, which pins the victim choice of every eviction).

use loas_sim::{Access, LineSpan, SramCache, TrafficClass};
use proptest::prelude::*;

/// The pre-index reference model: a verbatim keep of the original
/// `SramCache` tag logic — per-access linear scan over the ways of a set,
/// one call per line, no index, no spans. Kept
/// private to this test on purpose: it exists only to pin behaviour.
struct ReferenceCache {
    line_bytes: usize,
    ways: usize,
    sets: usize,
    tags: Vec<Option<u64>>,
    lru: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    bytes: Vec<(TrafficClass, u64)>,
}

impl ReferenceCache {
    fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / line_bytes;
        let sets = lines / ways;
        ReferenceCache {
            line_bytes,
            ways,
            sets,
            tags: vec![None; sets * ways],
            lru: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
            bytes: Vec::new(),
        }
    }

    fn touch_line(&mut self, line_id: u64) -> Access {
        self.tick += 1;
        let set = (line_id % self.sets as u64) as usize;
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == Some(line_id) {
                self.lru[base + way] = self.tick;
                self.hits += 1;
                return Access::Hit;
            }
        }
        self.misses += 1;
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                if self.tags[base + w].is_none() {
                    0
                } else {
                    self.lru[base + w] + 1
                }
            })
            .expect("ways > 0");
        self.tags[base + victim] = Some(line_id);
        self.lru[base + victim] = self.tick;
        Access::Miss
    }

    fn access_line(&mut self, line_id: u64, class: TrafficClass) -> Access {
        self.bytes.push((class, self.line_bytes as u64));
        self.touch_line(line_id)
    }

    /// Span semantics the batched APIs must match: saturating line math,
    /// then one per-line touch each, in order.
    fn touch_span(&mut self, span: LineSpan) -> u64 {
        let mut missed = 0;
        for i in 0..span.n_lines {
            if self.touch_line(span.first_line + i) == Access::Miss {
                missed += 1;
            }
        }
        missed
    }

    fn access_span(&mut self, span: LineSpan, class: TrafficClass) -> u64 {
        if span.n_lines == 0 {
            return 0;
        }
        self.bytes
            .push((class, span.n_lines * self.line_bytes as u64));
        self.touch_span(span)
    }

    fn snapshot(&self) -> Vec<(Option<u64>, u64)> {
        self.tags
            .iter()
            .copied()
            .zip(self.lru.iter().copied())
            .collect()
    }

    fn take_results(&mut self) -> (u64, u64, Vec<(TrafficClass, u64)>) {
        let out = (self.hits, self.misses, std::mem::take(&mut self.bytes));
        self.hits = 0;
        self.misses = 0;
        self.tags.fill(None);
        self.lru.fill(0);
        self.tick = 0;
        out
    }
}

const CLASSES: [TrafficClass; 3] = [
    TrafficClass::Weight,
    TrafficClass::Input,
    TrafficClass::Format,
];

/// Fixed spans the replays re-touch many times: a 1-line hot object, a
/// multi-line object, one longer than the set count of the small geometry
/// (it evicts its own lines), and a prefix-probed payload region.
const TRACKED_SPANS: [LineSpan; 4] = [
    LineSpan {
        first_line: 3,
        n_lines: 1,
    },
    LineSpan {
        first_line: 16,
        n_lines: 5,
    },
    LineSpan {
        first_line: 40,
        n_lines: 11,
    },
    LineSpan {
        first_line: 64,
        n_lines: 6,
    },
];

fn ledger_of(cache: &SramCache) -> Vec<u64> {
    cache.traffic().iter().map(|(_, b)| b).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_cache_matches_linear_scan_reference(
        geometry in (0usize..3),
        ops in proptest::collection::vec(
            (0u8..8, any::<u64>(), 1u64..400, 0u64..3),
            1..120,
        ),
    ) {
        // Small geometries keep sets colliding and evictions frequent.
        let (capacity, line, ways) = [(8 * 64, 64, 2), (16 * 32, 32, 4), (64 * 64, 64, 16)][geometry];
        let mut cache = SramCache::new(capacity, line, ways, 1);
        let mut reference = ReferenceCache::new(capacity, line, ways);

        for (kind, raw_addr, bytes, class_pick) in ops {
            let class = CLASSES[class_pick as usize];
            // Mostly a small address window (collisions + reuse), sometimes
            // the far end of the address space (saturation paths).
            let addr = if raw_addr % 7 == 0 {
                u64::MAX - (raw_addr % 512)
            } else {
                raw_addr % (capacity as u64 * 3)
            };
            match kind {
                0 => {
                    let line_id = addr / line as u64;
                    prop_assert_eq!(
                        cache.access_line(line_id, class),
                        reference.access_line(line_id, class)
                    );
                }
                1 => {
                    let span = LineSpan::of_range(addr, bytes, line);
                    prop_assert_eq!(
                        cache.access_range(addr, bytes, class),
                        reference.access_span(span, class)
                    );
                }
                2 => {
                    let span = LineSpan::of_range(addr, bytes, line);
                    prop_assert_eq!(cache.probe_range(addr, bytes), reference.touch_span(span));
                }
                3 => {
                    let span = LineSpan::of_range(addr, bytes, line);
                    prop_assert_eq!(
                        cache.access_span(span, class),
                        reference.access_span(span, class)
                    );
                }
                4 | 5 => {
                    // Repeated access of one of the fixed spans: the
                    // re-broadcast pattern of the fiber and row walks.
                    let which = (raw_addr % TRACKED_SPANS.len() as u64) as usize;
                    let span = TRACKED_SPANS[which];
                    prop_assert_eq!(
                        cache.access_span(span, class),
                        reference.access_span(span, class)
                    );
                }
                6 => {
                    // Varying-length prefix probe of one base line — the
                    // per-pair payload-probe pattern of the LoAS replay.
                    let span = LineSpan {
                        first_line: TRACKED_SPANS[3].first_line,
                        n_lines: bytes % (TRACKED_SPANS[3].n_lines + 3),
                    };
                    prop_assert_eq!(cache.probe_span(span), reference.touch_span(span));
                }
                _ => {
                    let (ledger, stats) = cache.take_results();
                    let (hits, misses, ref_bytes) = reference.take_results();
                    prop_assert_eq!(stats.hits, hits);
                    prop_assert_eq!(stats.misses, misses);
                    let total: u64 = ref_bytes.iter().map(|&(_, b)| b).sum();
                    prop_assert_eq!(ledger.total(), total);
                }
            }
            // Tag arrays equal after every op ⇒ every eviction picked the
            // same victim; LRU equal ⇒ future victims stay locked together.
            prop_assert_eq!(cache.tag_snapshot(), reference.snapshot());
        }

        prop_assert_eq!(cache.stats().hits, reference.hits);
        prop_assert_eq!(cache.stats().misses, reference.misses);
        let mut per_class = vec![0u64; 6];
        for &(class, b) in &reference.bytes {
            let index = TrafficClass::ALL.iter().position(|&c| c == class).unwrap();
            per_class[index] += b;
        }
        prop_assert_eq!(ledger_of(&cache), per_class);
    }
}
