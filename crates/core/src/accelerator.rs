//! The end-to-end LoAS accelerator model (Section IV, Fig. 7).
//!
//! # Modeled execution
//!
//! The scheduler assigns one row fiber of `A` to each of the 16 TPPEs (a
//! *row tile*); weight fibers of `B` are broadcast column by column over the
//! swizzle-switch crossbar. Each TPPE runs the FTP-friendly inner-join and
//! accumulates all `T` timesteps of one output neuron, then a P-LIF fires
//! all `T` output spikes in one shot and the compressor packs them back
//! into fibers. Fiber-B loads are double-buffered behind compute.
//!
//! # Two-phase execution (simulator performance)
//!
//! `run_layer` runs in two phases. The **pure compute phase** hands the
//! whole pair-intersection sweep to the [`crate::kernel`] module: a
//! [`PairSweepKernel`] streams every row pair of a tile through the
//! workload's precomputed [`RowBlocks`] structure-of-arrays layout (with
//! fiber-B words hoisted), optionally fanned out across row tiles on
//! scoped worker threads. The **sequential traffic phase** then replays
//! the per-pair counts through the HBM/SRAM/crossbar models in the exact
//! pre-kernel order. On the kernel strategy the replay consumes the
//! layer's precomputed [`TrafficSpans`] — fixed cache-line spans per
//! row/column object, no per-pair address arithmetic — and carries
//! [`SpanResidency`](loas_sim::SpanResidency) tokens on the per-column
//! fiber-B broadcasts so re-touching a still-resident fiber takes the
//! cache's all-hits fast path; the reference strategy keeps the original
//! per-access arithmetic as the oracle. Reports are byte-identical by
//! construction for any [`SweepStrategy`] and worker count (asserted via
//! the portable serialization in this crate's tests).
//!
//! Only the final roofline reads the off-chip bandwidth. On the kernel
//! strategy both phases are memoized on the [`PreparedLayer`]: the sweep
//! under its kernel geometry and tile height, the replay under the whole
//! config but the bandwidth fields. A design sweep over one layer thus
//! simulates each distinct phase once. Reference and verification runs
//! always simulate in full and never touch the memo.
//!
//! # Traffic accounting (what the paper's Figs. 13-14 count)
//!
//! *Off-chip*: compressed `A` (packed payload [`Input`] + bitmasks/pointers
//! [`Format`]) and compressed `B` are read once — the FiberCache captures
//! intra-layer reuse — and compressed outputs are written once.
//!
//! *On-chip*: `bm-A` of each row is read once per layer into the TPPE
//! (held while every `n` streams by, the paper's "hold fibers of A as long
//! as possible"); `bm-B` + non-zero weights are re-broadcast once per
//! `(row-tile, n)`; matched packed words of `A` are fetched on demand
//! (`matches x T` bits); outputs are written once. The banked
//! set-associative cache is simulated tag-accurately for the Fig. 14 miss
//! rates.
//!
//! [`Input`]: loas_sim::TrafficClass::Input
//! [`Format`]: loas_sim::TrafficClass::Format
//! [`RowBlocks`]: crate::kernel::RowBlocks

use crate::compressor::Compressor;
use crate::config::LoasConfig;
use crate::inner_join::JoinScratch;
use crate::kernel::{fired_grand_total, PairSweepKernel, SweepMode, TileSweep};
use crate::layer_memo::MemoKey;
use crate::metrics::{Accelerator, LayerReport};
use crate::prepared::{PreparedLayer, TrafficSpans};
use crate::tppe::Tppe;
use loas_sim::{
    ClockDomain, Crossbar, Cycle, EnergyModel, HbmModel, SimStats, SpanResidency, SramCache,
    TrafficClass, TrafficLedger,
};
use loas_snn::SpikeTensor;
use loas_sparse::{Bitmask, PackedSpikes, POINTER_BITS};
use std::sync::Arc;

/// How a model computes its pure pair-intersection phase.
///
/// Both strategies produce byte-identical reports; [`SweepStrategy::Kernel`]
/// is the optimized default and [`SweepStrategy::Reference`] preserves the
/// pre-kernel scalar code path for cross-checking and as the benchmark
/// baseline every perf PR is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepStrategy {
    /// The cache-friendly [`PairSweepKernel`] sweep over the prepared
    /// structure-of-arrays layout, parallelizable across row tiles.
    #[default]
    Kernel,
    /// The pre-kernel scalar path: per-pair bitmask chunk iteration plus
    /// per-timestep `and_count`s, sequential.
    Reference,
}

impl SweepStrategy {
    /// Resolves the strategy from the `LOAS_SWEEP` environment variable:
    /// `scalar` / `reference` select the pre-kernel path (letting CI and
    /// A/B runs toggle whole campaigns without plumbing flags), `kernel` /
    /// unset the kernel.
    ///
    /// # Panics
    ///
    /// Panics on any other value: a typo here would silently turn the
    /// scalar-vs-kernel golden A/B into a kernel-vs-kernel no-op, so
    /// unknown toggles fail loud instead.
    pub fn from_env() -> Self {
        match std::env::var("LOAS_SWEEP").ok().as_deref() {
            Some("scalar") | Some("reference") => SweepStrategy::Reference,
            Some("kernel") | Some("") | None => SweepStrategy::Kernel,
            Some(other) => panic!(
                "unknown LOAS_SWEEP value `{other}` (expected `kernel`, `scalar`, or `reference`)"
            ),
        }
    }
}

/// The LoAS accelerator simulator.
///
/// # Examples
///
/// ```
/// use loas_core::{Accelerator, Loas, PreparedLayer};
/// use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
///
/// let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2)?;
/// let workload = WorkloadGenerator::default()
///     .generate("demo", LayerShape::new(4, 16, 32, 256), &profile)?;
/// let prepared = PreparedLayer::new(&workload);
/// let report = Loas::default().run_layer(&prepared);
/// assert!(report.stats.cycles.get() > 0);
/// # Ok::<(), loas_workloads::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Loas {
    config: LoasConfig,
    energy: EnergyModel,
    verify_outputs: bool,
    sweep: SweepStrategy,
    intra_workers: usize,
}

impl Loas {
    /// Creates a LoAS instance with the given configuration.
    pub fn new(config: LoasConfig) -> Self {
        Loas {
            config,
            energy: EnergyModel::default(),
            verify_outputs: false,
            sweep: SweepStrategy::from_env(),
            intra_workers: 1,
        }
    }

    /// Enables the bit-exact datapath (per-pair TPPE simulation producing
    /// output spikes) — slower, used for functional verification.
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify_outputs = verify;
        self
    }

    /// Selects the pure-phase sweep strategy explicitly (overriding the
    /// `LOAS_SWEEP` environment default).
    pub fn with_sweep(mut self, sweep: SweepStrategy) -> Self {
        self.sweep = sweep;
        self
    }

    /// Sets the intra-layer worker budget: the pure compute phase fans row
    /// tiles out over up to this many scoped threads. Reports are
    /// byte-identical for every value; `1` (the default) runs inline.
    pub fn with_intra_workers(mut self, workers: usize) -> Self {
        self.intra_workers = workers.max(1);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &LoasConfig {
        &self.config
    }

    fn chunk_words(&self) -> usize {
        self.config.bitmask_bits / 64
    }

    fn fifo_depth(&self) -> Option<usize> {
        // The two-fast-prefix ablation variant has both offsets ready every
        // cycle: no FIFO buffering, no backpressure — at double the
        // prefix-sum area/power (Section IV-C).
        if self.config.two_fast_prefix {
            None
        } else {
            Some(self.config.fifo_depth)
        }
    }

    fn sweep_kernel(&self) -> PairSweepKernel {
        PairSweepKernel::new(self.config.bitmask_bits.max(64), self.fifo_depth())
    }

    fn sweep_mode(&self) -> SweepMode {
        if self.config.temporal_parallel {
            SweepMode::TemporalParallel
        } else {
            SweepMode::SequentialT
        }
    }

    /// Per-pair cycle/op metrics from word-level popcounts.
    ///
    /// Counting semantics (matches, prefix-sum activity, backpressure)
    /// are identical to [`crate::InnerJoinUnit::join`]; the *latency* model
    /// here is the steady-state pipelined one: chunk streaming (one
    /// 128-bit chunk per cycle) overlaps match draining (one match per
    /// cycle from the fast prefix-sum), so a pair costs
    /// `max(chunks, matches + backpressure)`. The laggy-correction tail is
    /// amortized across back-to-back output neurons (the next pair's
    /// streaming proceeds while the previous corrections drain, Fig. 10's
    /// "new fetch") and is exposed once per row tile in `run_layer`.
    fn pair_metrics(&self, bm_a: &Bitmask, bm_b: &Bitmask) -> PairMetrics {
        let chunk_words = self.chunk_words().max(1);
        let fifo = self.fifo_depth().map_or(u64::MAX, |d| d as u64);
        let mut matches = 0u64;
        let mut laggy_chunks = 0u64;
        let mut stalls = 0u64;
        let mut chunks_scanned = 0u64;
        for chunk_matches in bm_a.chunked_and_counts(bm_b, chunk_words) {
            matches += chunk_matches;
            chunks_scanned += 1;
            stalls += chunk_matches.saturating_sub(fifo);
            if chunk_matches > 0 {
                laggy_chunks += 1;
            }
        }
        // Pipelined latency: streaming and draining overlap. Fast/laggy
        // prefix-sum activity (`chunks + matches` per pair, laggy sweeps
        // per active chunk) is folded into the stats from tile aggregates.
        PairMetrics {
            matches,
            chunks: chunks_scanned,
            cycles: chunks_scanned.max(matches + stalls),
            laggy_chunks,
            stall_cycles: stalls,
        }
    }

    /// The pre-kernel scalar sweep: fills the same per-tile results as
    /// [`PairSweepKernel::sweep_layer`] from per-pair [`Loas::pair_metrics`]
    /// calls plus per-timestep plane `and_count`s, sequentially.
    fn reference_sweep(&self, layer: &PreparedLayer, mode: SweepMode) -> Vec<TileSweep> {
        let shape = layer.shape;
        let planes = layer.workload.spikes.planes();
        let tppes = self.config.tppes;
        let mut sweeps = Vec::with_capacity(shape.m.div_ceil(tppes.max(1)));
        let mut tile_start = 0usize;
        while tile_start < shape.m {
            let tile_end = (tile_start + tppes).min(shape.m);
            let rows = tile_start..tile_end;
            let row_count = rows.len();
            let mut sweep = TileSweep {
                rows: rows.clone(),
                matches: vec![0u32; row_count * shape.n],
                worst: vec![0u64; shape.n],
                ..TileSweep::default()
            };
            for (n, fiber_b) in layer.b_fibers.iter().enumerate() {
                let mut worst = 0u64;
                for (r, m) in rows.clone().enumerate() {
                    let metrics = self.pair_metrics(layer.a_mask(m), fiber_b.bitmask());
                    sweep.matches[n * row_count + r] = metrics.matches as u32;
                    sweep.matches_total += metrics.matches;
                    sweep.stall_total += metrics.stall_cycles;
                    sweep.laggy_chunk_total += metrics.laggy_chunks;
                    let mut sequential_cycles = 0u64;
                    for plane in planes {
                        let matches_t =
                            plane.row(m).and_count(fiber_b.bitmask()).expect("equal K") as u64;
                        sweep.fired_total += matches_t;
                        sequential_cycles += metrics.chunks.max(matches_t) + 1; // + LIF step
                    }
                    worst = match mode {
                        SweepMode::TemporalParallel => worst.max(metrics.cycles + 1), // + P-LIF
                        SweepMode::SequentialT => worst.max(sequential_cycles),
                    };
                }
                sweep.worst[n] = worst;
            }
            sweeps.push(sweep);
            tile_start = tile_end;
        }
        sweeps
    }

    /// The memo key of this config's replay: every field but the two only
    /// the roofline reads, which take their Table III values.
    fn replay_key(&self) -> MemoKey {
        let table3 = LoasConfig::table3();
        MemoKey::Replay(LoasConfig {
            hbm_gbps: table3.hbm_gbps,
            hbm_channels: table3.hbm_channels,
            ..self.config.clone()
        })
    }

    /// The memo key of this config's sweep: exactly the inputs of
    /// [`Loas::sweep_layer`] besides the layer.
    fn sweep_key(&self) -> MemoKey {
        MemoKey::Sweep {
            kernel: self.sweep_kernel(),
            mode: self.sweep_mode(),
            tile_rows: self.config.tppes,
        }
    }

    /// Phase 1 (pure compute): the pair-intersection sweep, with no
    /// memory-system state touched, fanned out across row tiles.
    fn sweep_layer(&self, layer: &PreparedLayer) -> Vec<TileSweep> {
        let mode = self.sweep_mode();
        match self.sweep {
            SweepStrategy::Kernel => {
                let b_words: Vec<&[u64]> = layer
                    .b_fibers
                    .iter()
                    .map(|fiber| fiber.bitmask().words())
                    .collect();
                self.sweep_kernel().sweep_layer(
                    &layer.row_blocks,
                    &b_words,
                    self.config.tppes,
                    mode,
                    self.intra_workers,
                )
            }
            SweepStrategy::Reference => self.reference_sweep(layer, mode),
        }
    }

    /// Phase 2 (sequential traffic): off-chip streaming plus the
    /// tag-accurate cache replayed in the exact pre-kernel order, with the
    /// sweep's op counts folded in. It never reads the off-chip bandwidth.
    /// With `verified_output`, each pair also runs the bit-exact TPPE
    /// datapath and records its output spikes there.
    fn replay(
        &self,
        layer: &PreparedLayer,
        tile_sweeps: &[TileSweep],
        mut probes: TrafficProbes,
        mut verified_output: Option<&mut SpikeTensor>,
    ) -> Replay {
        let shape = layer.shape;
        let mut dram = TrafficLedger::new();
        let mut cache = SramCache::new(
            self.config.cache_bytes,
            self.config.cache_line_bytes,
            self.config.cache_ways,
            self.config.cache_banks,
        );
        let crossbar = Crossbar::new(self.config.tppes, self.config.crossbar_bus_bytes);
        let tppe = Tppe::new(&self.config);
        let compressor = Compressor::new(&self.config);
        let mut stats = SimStats::new();

        // Per-row per-timestep firing counts enter the report only through
        // global sums: corrections = T * matches - fired. The kernel path
        // computes the layer total in O(K) instead of sweeping plane rows.
        let fired_total: u64 = match (self.sweep_mode(), self.sweep) {
            (SweepMode::TemporalParallel, SweepStrategy::Kernel) => {
                fired_grand_total(&layer.col_spikes, &layer.b_row_nnz)
            }
            _ => tile_sweeps.iter().map(|sweep| sweep.fired_total).sum(),
        };

        // Off-chip traffic: the packed A payload streams in once
        // (compulsory); bitmasks and weight fibers are charged miss-driven
        // through the FiberCache tags below, so capacity behaviour (not an
        // assumption) decides refetches.
        let (a_payload_bits, _) = layer.a_compressed_bits();
        dram.record_bits(TrafficClass::Input, a_payload_bits);
        let (b_payload_bits, _) = layer.b_compressed_bits(self.config.weight_bits);
        dram.record_bits(TrafficClass::Weight, b_payload_bits);
        let line = self.config.cache_line_bytes as u64;

        let mut compute = 0u64;
        // Scratch state reused across every verified pair and output row
        // (no per-pair allocation churn on the bit-exact datapath).
        let mut join_scratch = JoinScratch::new(shape.t);
        let mut row_words_buf: Vec<PackedSpikes> = Vec::new();

        for sweep in tile_sweeps {
            let rows = sweep.rows.clone();
            let row_count = rows.len();
            // Load bm-A (+ held payload stream) for each TPPE in the tile:
            // one cache pass per row per layer.
            let mut a_scatter = Vec::with_capacity(row_count);
            for m in rows.clone() {
                let bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
                let missed = probes.load_a_bitmask(&mut cache, m);
                dram.record(TrafficClass::Format, missed * line);
                a_scatter.push(bm_bytes);
            }
            compute += crossbar.scatter_cycles(&a_scatter).get();

            let mut prev_b_load = 0u64;
            for (n, fiber_b) in layer.b_fibers.iter().enumerate() {
                // bm-B + weights broadcast: one cache read serves all TPPEs.
                let b_bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
                let b_payload_bytes = (fiber_b.nnz() * self.config.weight_bits).div_ceil(8) as u64;
                let missed_bm = probes.load_b_fiber(&mut cache, n, b_payload_bytes);
                dram.record(TrafficClass::Format, missed_bm * line);
                let b_load =
                    tppe.b_load_cycles(fiber_b.nnz()) + crossbar.broadcast_cycles(b_bm_bytes).get();

                // All TPPEs in the tile join against the same fiber-B; the
                // tile advances at the slowest TPPE (synchronous broadcast,
                // precomputed by the sweep as `worst`).
                for (r, m) in rows.clone().enumerate() {
                    let matches = sweep.matches[n * row_count + r] as u64;
                    // Matched packed words of A fetched on demand: exact
                    // bytes ledgered, lines tagged (resident payload hits).
                    let payload_bytes = (matches * shape.t as u64).div_ceil(8);
                    cache.read_untagged(TrafficClass::Input, payload_bytes);
                    probes.probe_a_payload(&mut cache, m, payload_bytes);

                    if let Some(out) = verified_output.as_deref_mut() {
                        let outcome = tppe.process_with(
                            &layer.a_fibers[m],
                            fiber_b,
                            layer.lif(),
                            &mut join_scratch,
                        );
                        debug_assert_eq!(outcome.join.matches, matches);
                        for t in 0..shape.t {
                            if outcome.plif.spikes.fires_at(t) {
                                out.set(m, n, t, true);
                            }
                        }
                    }
                }
                // Double-buffered fiber-B: the previous load overlaps this
                // compute; expose whichever is longer.
                compute += sweep.worst[n].max(prev_b_load);
                prev_b_load = b_load;
            }
            compute += prev_b_load.min(1); // drain

            // The last pair's laggy-correction tail is exposed once per
            // tile (hidden behind the next pair everywhere else). The
            // two-fast and sequential-T variants have no correction tail.
            if self.config.temporal_parallel && !self.config.two_fast_prefix {
                compute += self.config.laggy_latency_cycles();
            }

            // Output compression per row in the tile: the inverted laggy
            // prefix-sum overlaps the next tile's compute, so only traffic
            // is charged. Both execution paths charge the same estimate —
            // a bitmask + pointer per row plus packed payload at the ~90%
            // output sparsity the paper reports (Section II-B) — so that
            // verification mode never perturbs the performance model.
            let out_row_bytes = probes.out_row_bytes(shape.n, shape.t);
            for m in rows {
                if let Some(out) = verified_output.as_deref() {
                    // Exercise the real compressor datapath (discard filter
                    // included) on the verified outputs.
                    row_words_buf.clear();
                    row_words_buf.extend((0..shape.n).map(|n| {
                        let mut w = PackedSpikes::silent(shape.t).expect("t in range");
                        for t in 0..shape.t {
                            if out.get(m, n, t) {
                                w.set(t, true);
                            }
                        }
                        w
                    }));
                    let _ = compressor.compress_row(&row_words_buf);
                }
                cache.write(TrafficClass::Output, out_row_bytes);
                dram.record(TrafficClass::Output, out_row_bytes);
            }
        }

        // ---- Fold the sweep's op-count aggregates into the stats. Every
        // term is a commutative sum over pairs, so tile-level aggregation
        // reproduces the per-pair accumulation of the pre-kernel loop
        // exactly (asserted byte-identical in tests).
        let pairs = (shape.m * shape.n) as u64;
        let chunks_per_pair = self.sweep_kernel().chunks_for(shape.k.div_ceil(64));
        let matches_total: u64 = tile_sweeps.iter().map(|s| s.matches_total).sum();
        let stall_total: u64 = tile_sweeps.iter().map(|s| s.stall_total).sum();
        let laggy_chunk_total: u64 = tile_sweeps.iter().map(|s| s.laggy_chunk_total).sum();
        let fast_raw = pairs * chunks_per_pair + matches_total;
        if self.config.temporal_parallel {
            let corrections = matches_total * shape.t as u64 - fired_total;
            stats.ops.accumulates += matches_total + corrections;
            if self.config.two_fast_prefix {
                stats.ops.fast_prefix_cycles += 2 * fast_raw;
            } else {
                stats.ops.fast_prefix_cycles += fast_raw;
                stats.ops.laggy_prefix_cycles +=
                    laggy_chunk_total * self.config.laggy_latency_cycles();
            }
            stats.stall_cycles += Cycle(stall_total);
        } else {
            // Sequential-T ablation: same compression and hardware, but
            // each timestep re-runs the join and accumulates directly (no
            // pseudo/corrections, no laggy circuit involved).
            stats.ops.accumulates += fired_total;
            stats.ops.fast_prefix_cycles += shape.t as u64 * pairs * chunks_per_pair + fired_total;
        }
        stats.ops.lif_updates += pairs * shape.t as u64;

        stats.dram = dram;
        let (sram_traffic, cache_stats) = cache.take_results();
        stats.sram = sram_traffic;
        stats.cache = cache_stats;
        Replay { compute, stats }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PairMetrics {
    matches: u64,
    chunks: u64,
    cycles: u64,
    laggy_chunks: u64,
    stall_cycles: u64,
}

/// The traffic replay's outcome: a report but for the roofline, the one
/// step that reads the off-chip bandwidth.
#[derive(Debug, Clone, Copy)]
struct Replay {
    /// Tile-schedule compute cycles.
    compute: u64,
    /// Op counts, sweep stalls, DRAM/SRAM ledgers and cache counters
    /// (`cycles` still unset).
    stats: SimStats,
}

/// The tag-accurate probe endpoints of the sequential traffic replay.
///
/// [`SweepStrategy::Kernel`] drives the cache through the layer's
/// [`TrafficSpans`] — no per-access address arithmetic, and
/// [`SpanResidency`] tokens on the per-column fiber-B objects so the
/// re-broadcast of a still-resident fiber to the next row tile takes the
/// all-hits fast path. [`SweepStrategy::Reference`] keeps the original
/// address map and per-access `access_range`/`probe_range` arithmetic as
/// the oracle. Both variants touch the same lines in the same order, so
/// reports are byte-identical (asserted in tests and ci.sh).
enum TrafficProbes {
    Spans {
        spans: Arc<TrafficSpans>,
        a_payload_residency: Vec<SpanResidency>,
        b_bm_residency: Vec<SpanResidency>,
        b_payload_residency: Vec<SpanResidency>,
    },
    Address {
        a_addr: Vec<u64>,
        b_addr: Vec<u64>,
        bm_bytes: u64,
    },
}

impl TrafficProbes {
    fn spans(layer: &PreparedLayer, spans: Arc<TrafficSpans>) -> Self {
        TrafficProbes::Spans {
            a_payload_residency: vec![SpanResidency::default(); layer.shape.m],
            b_bm_residency: vec![SpanResidency::default(); layer.shape.n],
            b_payload_residency: vec![SpanResidency::default(); layer.shape.n],
            spans,
        }
    }

    fn address(layer: &PreparedLayer, weight_bits: usize) -> Self {
        // Address map for the tag-accurate cache: A fibers then B.
        let shape = layer.shape;
        let mut a_addr = Vec::with_capacity(shape.m);
        let mut addr = 0u64;
        for fiber in &layer.a_fibers {
            a_addr.push(addr);
            addr += fiber.storage_bits(shape.t).div_ceil(8) as u64;
        }
        let mut b_addr = Vec::with_capacity(shape.n);
        for fiber in layer.b_fibers.iter() {
            b_addr.push(addr);
            addr += fiber.storage_bits(weight_bits).div_ceil(8) as u64;
        }
        TrafficProbes::Address {
            a_addr,
            b_addr,
            bm_bytes: (shape.k + POINTER_BITS).div_ceil(8) as u64,
        }
    }

    /// Loads `bm-A` (+ pointer) of row `m`; returns missed lines.
    fn load_a_bitmask(&mut self, cache: &mut SramCache, m: usize) -> u64 {
        match self {
            TrafficProbes::Spans { spans, .. } => {
                cache.access_span(spans.a_bm_span[m], TrafficClass::Format)
            }
            TrafficProbes::Address {
                a_addr, bm_bytes, ..
            } => cache.access_range(a_addr[m], *bm_bytes, TrafficClass::Format),
        }
    }

    /// Broadcasts `bm-B` + the weight payload of column `n`; returns the
    /// bitmask's missed lines (the Format refetch the HBM model charges).
    fn load_b_fiber(&mut self, cache: &mut SramCache, n: usize, payload_bytes: u64) -> u64 {
        match self {
            TrafficProbes::Spans {
                spans,
                b_bm_residency,
                b_payload_residency,
                ..
            } => {
                let missed_bm = cache.access_span_resident(
                    spans.b_bm_span[n],
                    &mut b_bm_residency[n],
                    TrafficClass::Format,
                );
                cache.access_span_resident(
                    spans.b_payload_span[n],
                    &mut b_payload_residency[n],
                    TrafficClass::Weight,
                );
                missed_bm
            }
            TrafficProbes::Address {
                b_addr, bm_bytes, ..
            } => {
                let missed_bm = cache.access_range(b_addr[n], *bm_bytes, TrafficClass::Format);
                cache.access_range(b_addr[n] + *bm_bytes, payload_bytes, TrafficClass::Weight);
                missed_bm
            }
        }
    }

    /// Compressed output bytes written per output row (precomputed on the
    /// span path; the original formula on the oracle).
    fn out_row_bytes(&self, n: usize, t: usize) -> u64 {
        match self {
            TrafficProbes::Spans { spans, .. } => spans.out_row_bytes,
            TrafficProbes::Address { .. } => {
                ((n + POINTER_BITS) as u64 + (n as u64 / 10) * t as u64).div_ceil(8)
            }
        }
    }

    /// Tags the on-demand fetch of row `m`'s first `payload_bytes` packed
    /// payload bytes (byte traffic is ledgered separately by the caller).
    fn probe_a_payload(&mut self, cache: &mut SramCache, m: usize, payload_bytes: u64) {
        match self {
            TrafficProbes::Spans {
                spans,
                a_payload_residency,
                ..
            } => {
                // The per-pair probe: same base line every pair of row
                // `m`, only the length varies — the residency token's
                // prefix salvage keeps it at one tag compare per line.
                cache.probe_span_resident(
                    spans.a_payload_span(m, payload_bytes),
                    &mut a_payload_residency[m],
                );
            }
            TrafficProbes::Address {
                a_addr, bm_bytes, ..
            } => {
                cache.probe_range(a_addr[m] + *bm_bytes, payload_bytes);
            }
        }
    }
}

impl Default for Loas {
    /// The Table III configuration.
    fn default() -> Self {
        Loas::new(LoasConfig::table3())
    }
}

impl Accelerator for Loas {
    fn name(&self) -> String {
        let mut name = String::from("LoAS");
        if !self.config.temporal_parallel {
            name.push_str("-seqT");
        }
        if self.config.two_fast_prefix {
            name.push_str("-2fast");
        }
        if self.config.discard_low_activity_outputs {
            name.push_str("-FT");
        }
        name
    }

    fn set_intra_workers(&mut self, workers: usize) {
        self.intra_workers = workers.max(1);
    }

    fn run_layer(&mut self, layer: &PreparedLayer) -> LayerReport {
        let shape = layer.shape;
        assert_eq!(
            shape.t, self.config.timesteps,
            "configure LoAS with timesteps matching the workload (got T={} vs config {})",
            shape.t, self.config.timesteps
        );
        let mut verified_output = self
            .verify_outputs
            .then(|| SpikeTensor::zeros(shape.m, shape.n, shape.t));
        let (weight_bits, line_bytes) = (self.config.weight_bits, self.config.cache_line_bytes);
        let replay = match self.sweep {
            // Jobs sharing the layer reuse the replay of any config that
            // differs only in off-chip bandwidth, and the sweep of any with
            // the same kernel and tile height.
            SweepStrategy::Kernel if verified_output.is_none() => {
                *layer.memo.get_or_insert_with(self.replay_key(), || {
                    let sweeps = layer
                        .memo
                        .get_or_insert_with(self.sweep_key(), || self.sweep_layer(layer));
                    let spans = layer.traffic_spans(weight_bits, line_bytes);
                    self.replay(layer, &sweeps, TrafficProbes::spans(layer, spans), None)
                })
            }
            SweepStrategy::Kernel => {
                let spans = Arc::new(TrafficSpans::build(layer, weight_bits, line_bytes));
                let probes = TrafficProbes::spans(layer, spans);
                let sweeps = self.sweep_layer(layer);
                self.replay(layer, &sweeps, probes, verified_output.as_mut())
            }
            SweepStrategy::Reference => {
                let probes = TrafficProbes::address(layer, weight_bits);
                let sweeps = self.sweep_layer(layer);
                self.replay(layer, &sweeps, probes, verified_output.as_mut())
            }
        };

        // ---- Roofline: compute overlapped with off-chip streaming and
        // with aggregate banked-SRAM bandwidth (banks x 16-byte ports).
        let Replay { compute, mut stats } = replay;
        let hbm = HbmModel::new(
            self.config.hbm_gbps,
            self.config.hbm_channels,
            ClockDomain::default(),
        );
        let dram_cycles = hbm.transfer_cycles(stats.dram.total()).get();
        let sram_bw = (self.config.cache_banks * self.config.crossbar_bus_bytes) as u64;
        let sram_cycles = stats.sram.total().div_ceil(sram_bw.max(1));
        let total = compute.max(dram_cycles).max(sram_cycles);
        stats.cycles = Cycle(total);
        if total > compute {
            stats.stall_cycles += Cycle(total - compute);
        }
        let energy = self.energy.energy_of(&stats);
        LayerReport {
            workload: layer.name.clone(),
            accelerator: self.name(),
            stats,
            energy,
            output: verified_output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};

    fn small_layer() -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 68.0, 90.0).unwrap();
        let w = WorkloadGenerator::default()
            .generate("loas-test", LayerShape::new(4, 20, 12, 96), &profile)
            .unwrap();
        PreparedLayer::new(&w)
    }

    #[test]
    fn verified_output_matches_golden() {
        let layer = small_layer();
        let mut loas = Loas::default().with_verification(true);
        let report = loas.run_layer(&layer);
        let golden = layer
            .workload
            .golden_layer()
            .forward(&layer.workload.spikes)
            .unwrap();
        assert_eq!(report.output.as_ref().unwrap(), &golden.spikes);
    }

    #[test]
    fn fast_and_verified_paths_agree_on_cycles() {
        let layer = small_layer();
        let fast = Loas::default().run_layer(&layer);
        let slow = Loas::default().with_verification(true).run_layer(&layer);
        assert_eq!(fast.stats.cycles, slow.stats.cycles);
        assert_eq!(fast.stats.ops.accumulates, slow.stats.ops.accumulates);
    }

    #[test]
    fn report_has_sane_totals() {
        let layer = small_layer();
        let report = Loas::default().run_layer(&layer);
        assert!(report.stats.cycles.get() > 0);
        assert!(report.stats.dram.total() > 0);
        assert!(report.stats.sram.total() > 0);
        assert!(report.energy.total_pj() > 0.0);
        assert!(report.stats.cache.accesses() > 0);
    }

    #[test]
    fn ft_mode_reduces_or_preserves_cycles() {
        let layer = small_layer();
        let ft_layer = layer.fine_tuned();
        let base = Loas::default().run_layer(&layer);
        let ft = Loas::new(
            LoasConfig::builder()
                .discard_low_activity_outputs(true)
                .build(),
        )
        .run_layer(&ft_layer);
        assert!(ft.stats.cycles <= base.stats.cycles);
        assert!(ft.stats.ops.accumulates <= base.stats.ops.accumulates);
    }

    #[test]
    fn name_reflects_ft_mode() {
        assert_eq!(Loas::default().name(), "LoAS");
        let ft = Loas::new(
            LoasConfig::builder()
                .discard_low_activity_outputs(true)
                .build(),
        );
        assert_eq!(ft.name(), "LoAS-FT");
        let seq = Loas::new(LoasConfig::builder().temporal_parallel(false).build());
        assert_eq!(seq.name(), "LoAS-seqT");
        let two = Loas::new(LoasConfig::builder().two_fast_prefix(true).build());
        assert_eq!(two.name(), "LoAS-2fast");
    }

    #[test]
    fn sequential_t_ablation_is_slower_and_correction_free() {
        // The dataflow ablation: same compression and hardware, timesteps
        // processed sequentially — FTP's latency benefit in isolation.
        let layer = small_layer();
        let ftp = Loas::default().run_layer(&layer);
        let seq =
            Loas::new(LoasConfig::builder().temporal_parallel(false).build()).run_layer(&layer);
        assert!(
            seq.stats.cycles > ftp.stats.cycles,
            "sequential {} vs FTP {}",
            seq.stats.cycles.get(),
            ftp.stats.cycles.get()
        );
        assert_eq!(
            seq.stats.ops.laggy_prefix_cycles, 0,
            "no corrections sequentially"
        );
        // Same traffic: the ablation isolates latency, not data movement.
        assert_eq!(seq.stats.dram.total(), ftp.stats.dram.total());
    }

    #[test]
    fn two_fast_ablation_is_at_least_as_fast_but_never_stalls() {
        // The inner-join ablation: a second fast prefix-sum removes the
        // correction tail at roughly double the prefix-sum power.
        let layer = small_layer();
        let laggy = Loas::default().run_layer(&layer);
        let two = Loas::new(LoasConfig::builder().two_fast_prefix(true).build()).run_layer(&layer);
        assert!(two.stats.cycles <= laggy.stats.cycles);
        assert_eq!(two.stats.stall_cycles.get(), 0);
        assert_eq!(two.stats.ops.laggy_prefix_cycles, 0);
        assert!(two.stats.ops.fast_prefix_cycles > laggy.stats.ops.fast_prefix_cycles);
        // The paper's claim: "almost no throughput penalty". On this tiny
        // test layer the per-tile correction tail is proportionally large;
        // on paper-sized layers the ablation harness measures <1%.
        let penalty = laggy.stats.cycles.get() as f64 / two.stats.cycles.get().max(1) as f64;
        assert!(penalty < 1.15, "throughput penalty {penalty}");
    }

    /// Every LoAS variant must produce byte-identical portable reports for
    /// the kernel and pre-kernel sweep strategies, at any intra-layer
    /// worker count — the two-phase refactor's core guarantee.
    #[test]
    fn kernel_and_reference_sweeps_are_byte_identical() {
        let layer = small_layer();
        let configs = [
            LoasConfig::table3(),
            LoasConfig::builder().temporal_parallel(false).build(),
            LoasConfig::builder().two_fast_prefix(true).build(),
            LoasConfig::builder()
                .discard_low_activity_outputs(true)
                .build(),
        ];
        for config in configs {
            let golden = Loas::new(config.clone())
                .with_sweep(SweepStrategy::Reference)
                .run_layer(&layer)
                .to_portable();
            for workers in [1usize, 2, 4] {
                let report = Loas::new(config.clone())
                    .with_sweep(SweepStrategy::Kernel)
                    .with_intra_workers(workers)
                    .run_layer(&layer)
                    .to_portable();
                assert_eq!(
                    report,
                    golden,
                    "strategy/worker divergence for {} at {workers} workers",
                    Loas::new(config.clone()).name()
                );
            }
        }
    }

    /// The 13 LoAS points of the repository's TPPE, bandwidth and cache
    /// sweeps share 4 tile heights and 7 bandwidth-independent configs.
    #[test]
    fn design_sweep_simulates_each_phase_once() {
        let layer = small_layer();
        let tppes = [4, 8, 16, 32].map(|t| LoasConfig::builder().tppes(t).build());
        let bandwidth =
            [16.0, 32.0, 64.0, 128.0, 256.0].map(|g| LoasConfig::builder().hbm_gbps(g).build());
        let cache =
            [64, 128, 256, 512].map(|kb| LoasConfig::builder().cache_bytes(kb * 1024).build());
        for config in tppes.into_iter().chain(bandwidth).chain(cache) {
            let shared = Loas::new(config.clone())
                .with_sweep(SweepStrategy::Kernel)
                .run_layer(&layer);
            let fresh = Loas::new(config)
                .with_sweep(SweepStrategy::Kernel)
                .run_layer(&small_layer());
            assert_eq!(shared.to_portable(), fresh.to_portable());
        }
        let stats = layer.memo_stats();
        assert_eq!(stats.sweeps.misses, 4, "{stats:?}");
        assert_eq!(stats.replays.misses, 7, "{stats:?}");
        assert_eq!(stats.replays.hits, 6, "{stats:?}");
        assert_eq!(stats.spans.misses, 1, "{stats:?}");
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn reference_and_verified_runs_bypass_the_memo() {
        let layer = small_layer();
        Loas::default()
            .with_sweep(SweepStrategy::Reference)
            .run_layer(&layer);
        Loas::default()
            .with_sweep(SweepStrategy::Kernel)
            .with_verification(true)
            .run_layer(&layer);
        assert_eq!(layer.memo_stats(), crate::MemoStats::default());
    }

    #[test]
    fn sweep_strategy_env_parsing() {
        // from_env reads the process environment; the mapping itself is
        // what needs pinning (set_var would race the parallel harness).
        assert_eq!(SweepStrategy::default(), SweepStrategy::Kernel);
        let map = |v: Option<&str>| match v {
            Some("scalar") | Some("reference") => Some(SweepStrategy::Reference),
            Some("kernel") | Some("") | None => Some(SweepStrategy::Kernel),
            Some(_) => None, // from_env panics: a typo must not pass as Kernel
        };
        assert_eq!(map(Some("scalar")), Some(SweepStrategy::Reference));
        assert_eq!(map(Some("reference")), Some(SweepStrategy::Reference));
        assert_eq!(map(Some("kernel")), Some(SweepStrategy::Kernel));
        assert_eq!(map(Some("")), Some(SweepStrategy::Kernel));
        assert_eq!(map(None), Some(SweepStrategy::Kernel));
        assert_eq!(map(Some("Scalar")), None, "case typos fail loud");
    }
}
