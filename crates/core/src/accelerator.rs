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
//! [`PairSweepKernel`] streams every row pair through the workload's
//! precomputed [`RowBlocks`] structure-of-arrays layout (with fiber-B
//! words hoisted), optionally fanned out across row blocks on scoped
//! worker threads. The sweep does not depend on the TPPE count: the
//! **sequential traffic phase** applies the tile height, taking each
//! tile's broadcast barrier from the per-pair drains, and replays the
//! memory system along the layer's precomputed [`TrafficSpans`]. It first
//! builds the replay's [`Footprint`], the shared no-eviction decision's
//! input (Gamma-SNN builds one too):
//!
//! * **It fits** ([`SramCache::fits_without_eviction`]). Each distinct
//!   line misses on its first touch and hits after, so hits, misses and
//!   the `Format` refetches follow from first touches marked in the
//!   replay's object order, with one pass over each column's matches and
//!   no tag walk.
//! * **It does not fit.** The tag-accurate cache is walked span by span
//!   in the replay order.
//!
//! Verification runs take the span walk. This module's tests keep the
//! pre-kernel scalar sweep and the per-access address-arithmetic walk as
//! the oracle, and assert byte-identical reports at every worker count.
//!
//! The replay charges a [`Machine`], and only the final [`Roofline`],
//! the one every model's report closes on, reads the off-chip bandwidth.
//! Both phases are memoized on the [`PreparedLayer`]: the sweep under its
//! kernel geometry and cycle model, the replay under the whole config but
//! the bandwidth fields. A design sweep over one layer thus simulates each
//! distinct phase once. Verification runs always simulate in full and
//! never touch the memo.
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
use crate::kernel::{fired_grand_total, LayerSweep, PairSweepKernel, SweepMode};
use crate::layer_memo::MemoKey;
use crate::machine::{Machine, Roofline};
use crate::metrics::{Accelerator, LayerReport};
use crate::prepared::{PreparedLayer, TrafficSpans};
use crate::tppe::Tppe;
use loas_sim::{Crossbar, Cycle, Footprint, LineSpan, SimStats, SramCache, TrafficClass};
use loas_snn::SpikeTensor;
use loas_sparse::{PackedSpikes, POINTER_BITS};
use std::ops::Range;

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
    verify_outputs: bool,
    intra_workers: usize,
}

impl Loas {
    /// Creates a LoAS instance with the given configuration.
    pub fn new(config: LoasConfig) -> Self {
        Loas {
            config,
            verify_outputs: false,
            intra_workers: 1,
        }
    }

    /// Enables the bit-exact datapath (per-pair TPPE simulation producing
    /// output spikes) — slower, used for functional verification.
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify_outputs = verify;
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

    /// The memo key of this config's replay: every field but the two no
    /// replay reads (the bandwidth, read only by the roofline, and the
    /// channel count, read by nothing), which take their Table III values.
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
        }
    }

    /// Phase 1 (pure compute): the pair-intersection sweep, with no
    /// memory-system state touched. It does not depend on the TPPE count.
    fn sweep_layer(&self, layer: &PreparedLayer) -> LayerSweep {
        let b_words: Vec<&[u64]> = layer
            .b_fibers
            .iter()
            .map(|fiber| fiber.bitmask().words())
            .collect();
        self.sweep_kernel().sweep_layer(
            &layer.row_blocks,
            &b_words,
            self.sweep_mode(),
            self.intra_workers,
        )
    }

    /// The row tiles of an `m`-row layer: one row per TPPE.
    fn tiles(&self, m: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..m)
            .step_by(self.config.tppes)
            .map(move |start| start..(start + self.config.tppes).min(m))
    }

    /// Phase 2 (sequential traffic): off-chip streaming, the global cache
    /// and the tile schedule, with the sweep's op counts folded in. It
    /// never reads the off-chip bandwidth. The cache is counted from its
    /// footprint when that cannot evict and walked along the spans
    /// otherwise. With `verified_output`, each pair also runs the
    /// bit-exact TPPE datapath on the walk and records its output spikes
    /// there.
    fn replay(
        &self,
        layer: &PreparedLayer,
        sweep: &LayerSweep,
        spans: &TrafficSpans,
        verified_output: Option<&mut SpikeTensor>,
    ) -> Replay {
        let mut machine = self.offchip(layer, spans.out_row_bytes);
        let counted =
            verified_output.is_none() && self.count_unevicted(layer, sweep, spans, &mut machine);
        if !counted {
            self.walk_cache(layer, sweep, spans, &mut machine, verified_output);
        }
        // Per-row per-timestep firing counts enter the report only through
        // global sums: corrections = T * matches - fired. The temporal-
        // parallel sweep leaves them out, and the layer total follows in
        // O(K) from the column spike counts.
        let fired_total = match self.sweep_mode() {
            SweepMode::TemporalParallel => fired_grand_total(&layer.col_spikes, &layer.b_row_nnz),
            SweepMode::SequentialT => sweep.totals.fired,
        };
        self.fold(layer, sweep, fired_total, machine)
    }

    /// The replay's preamble: the machine with the compulsory streams
    /// charged — the packed `A` payload and the weights in,
    /// `out_row_bytes` per output row out. Bitmasks are charged
    /// miss-driven through the cache tags, so capacity behaviour (not an
    /// assumption) decides refetches.
    fn offchip(&self, layer: &PreparedLayer, out_row_bytes: u64) -> Machine {
        let shape = layer.shape;
        let mut machine = Machine::new(SramCache::new(
            self.config.cache_bytes,
            self.config.cache_line_bytes,
            self.config.cache_ways,
            self.config.cache_banks,
        ));
        let dram = &mut machine.dram;
        let (a_payload_bits, _) = layer.a_compressed_bits();
        dram.record_bits(TrafficClass::Input, a_payload_bits);
        let (b_payload_bits, _) = layer.b_compressed_bits(self.config.weight_bits);
        dram.record_bits(TrafficClass::Weight, b_payload_bits);

        // Output compression per row: the inverted laggy prefix-sum
        // overlaps the next tile's compute, so only traffic is charged.
        // Every run charges the same estimate — a bitmask + pointer per
        // row plus packed payload at the ~90% output sparsity the paper
        // reports (Section II-B) — so that verification mode never
        // perturbs the performance model.
        let out_bytes = shape.m as u64 * out_row_bytes;
        machine.cache.write(TrafficClass::Output, out_bytes);
        machine.dram.record(TrafficClass::Output, out_bytes);
        machine
    }

    /// Closes the replay: the tile schedule, and the sweep's op-count
    /// aggregates folded into the machine's stats with its ledgers. Every
    /// term is a commutative sum over pairs, so layer-level aggregation
    /// reproduces the per-pair accumulation of a scalar loop exactly.
    fn fold(
        &self,
        layer: &PreparedLayer,
        sweep: &LayerSweep,
        fired_total: u64,
        mut machine: Machine,
    ) -> Replay {
        let shape = layer.shape;
        let compute = self.schedule(layer, sweep);
        let stats = &mut machine.stats;
        let pairs = (shape.m * shape.n) as u64;
        let chunks_per_pair = self.sweep_kernel().chunks_for(shape.k.div_ceil(64));
        let totals = sweep.totals;
        let fast_raw = pairs * chunks_per_pair + totals.matches;
        if self.config.temporal_parallel {
            let corrections = totals.matches * shape.t as u64 - fired_total;
            stats.ops.accumulates += totals.matches + corrections;
            if self.config.two_fast_prefix {
                stats.ops.fast_prefix_cycles += 2 * fast_raw;
            } else {
                stats.ops.fast_prefix_cycles += fast_raw;
                stats.ops.laggy_prefix_cycles +=
                    totals.laggy_chunks * self.config.laggy_latency_cycles();
            }
            stats.stall_cycles += Cycle(totals.stalls);
        } else {
            // Sequential-T ablation: same compression and hardware, but
            // each timestep re-runs the join and accumulates directly (no
            // pseudo/corrections, no laggy circuit involved).
            stats.ops.accumulates += fired_total;
            stats.ops.fast_prefix_cycles += shape.t as u64 * pairs * chunks_per_pair + fired_total;
        }
        stats.ops.lif_updates += pairs * shape.t as u64;
        Replay {
            compute,
            stats: machine.into_stats(),
        }
    }

    /// The report assembly: the shared [`Roofline`] at this config's
    /// off-chip bandwidth and aggregate banked-SRAM ports (banks x bus
    /// bytes).
    fn report(
        &self,
        layer: &PreparedLayer,
        replay: Replay,
        output: Option<SpikeTensor>,
    ) -> LayerReport {
        let roofline = Roofline {
            hbm_gbps: self.config.hbm_gbps,
            sram_bytes_per_cycle: (self.config.cache_banks * self.config.crossbar_bus_bytes) as u64,
        };
        roofline.report(
            &layer.name,
            &self.name(),
            replay.compute,
            replay.stats,
            output,
        )
    }

    /// The tile schedule's compute cycles. Per row tile: the `bm-A`
    /// scatter, then per fiber-B the slowest TPPE's drain (the synchronous
    /// broadcast) overlapped with the double-buffered load of the next
    /// fiber-B, then the last load's drain and the correction tail.
    fn schedule(&self, layer: &PreparedLayer, sweep: &LayerSweep) -> u64 {
        let shape = layer.shape;
        let crossbar = Crossbar::new(self.config.tppes, self.config.crossbar_bus_bytes);
        let tppe = Tppe::new(&self.config);
        let bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
        let a_scatter = vec![bm_bytes; self.config.tppes.min(shape.m)];
        let b_load: Vec<u64> = layer
            .b_fibers
            .iter()
            .map(|fiber_b| {
                tppe.b_load_cycles(fiber_b.nnz()) + crossbar.broadcast_cycles(bm_bytes).get()
            })
            .collect();
        // The last pair's laggy-correction tail is exposed once per tile
        // (hidden behind the next pair everywhere else). The two-fast and
        // sequential-T variants have no correction tail.
        let tail = if self.config.temporal_parallel && !self.config.two_fast_prefix {
            self.config.laggy_latency_cycles()
        } else {
            0
        };
        let mut compute = 0u64;
        for rows in self.tiles(shape.m) {
            compute += crossbar.scatter_cycles(&a_scatter[..rows.len()]).get();
            let mut prev_b_load = 0u64;
            for (n, &load) in b_load.iter().enumerate() {
                compute += sweep.tile_worst(rows.clone(), n).max(prev_b_load);
                prev_b_load = load;
            }
            compute += prev_b_load.min(1) + tail; // drain
        }
        compute
    }

    /// Walks the global cache tag by tag in the replay order: per row tile,
    /// `bm-A` of each row; then per fiber-B its `bm-B` + weight broadcast
    /// (one cache read serves all TPPEs) and the matched packed words of
    /// each row, fetched on demand. Verification runs the TPPE datapath
    /// and the output compressor here.
    fn walk_cache(
        &self,
        layer: &PreparedLayer,
        sweep: &LayerSweep,
        spans: &TrafficSpans,
        machine: &mut Machine,
        mut verified_output: Option<&mut SpikeTensor>,
    ) {
        let shape = layer.shape;
        let tppe = Tppe::new(&self.config);
        let compressor = Compressor::new(&self.config);
        // Scratch state reused across every verified pair and output row
        // (no per-pair allocation churn on the bit-exact datapath).
        let mut join_scratch = JoinScratch::new(shape.t);
        let mut row_words_buf: Vec<PackedSpikes> = Vec::new();
        for rows in self.tiles(shape.m) {
            for &span in &spans.a_bm_span[rows.clone()] {
                machine.fetch(span, TrafficClass::Format);
            }
            for (n, fiber_b) in layer.b_fibers.iter().enumerate() {
                // One cache read of bm-B + weights serves all TPPEs; the
                // bitmask's misses are the Format refetch HBM is charged.
                machine.fetch(spans.b_bm_span[n], TrafficClass::Format);
                let cache = &mut machine.cache;
                cache.access_span(spans.b_payload_span[n], TrafficClass::Weight);
                for (m, &matches) in rows.clone().zip(sweep.column_matches(rows.clone(), n)) {
                    // Exact bytes ledgered, lines tagged (resident payload
                    // hits).
                    let payload_bytes = payload_bytes(matches, shape.t);
                    cache.read_untagged(TrafficClass::Input, payload_bytes);
                    cache.probe_span(spans.a_payload_span(m, payload_bytes));

                    if let Some(out) = verified_output.as_deref_mut() {
                        let outcome = tppe.process_with(
                            &layer.a_fibers[m],
                            fiber_b,
                            layer.lif(),
                            &mut join_scratch,
                        );
                        debug_assert_eq!(outcome.join.matches, u64::from(matches));
                        for t in 0..shape.t {
                            if outcome.plif.spikes.fires_at(t) {
                                out.set(m, n, t, true);
                            }
                        }
                    }
                }
            }
            if let Some(out) = verified_output.as_deref() {
                // Exercise the real compressor datapath (discard filter
                // included) on the verified outputs.
                for m in rows {
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
            }
        }
    }

    /// Ledgers [`Loas::walk_cache`]'s touches and `Format` refetches from
    /// the [`Footprint`], without a tag walk, when no line of it can be
    /// evicted ([`SramCache::fits_without_eviction`]); returns `false`,
    /// touching nothing, when one can. Without eviction a touch misses
    /// exactly when it is the line's first, so marking lines in the walk's
    /// object order attributes every miss to its class: `bm-A` at each
    /// tile start, then per fiber-B its `bm-B` and weights and each row's
    /// payload prefix. A row's prefix only grows, so each pair costs a
    /// compare against the longest prefix the row has reached.
    fn count_unevicted(
        &self,
        layer: &PreparedLayer,
        sweep: &LayerSweep,
        spans: &TrafficSpans,
        machine: &mut Machine,
    ) -> bool {
        let shape = layer.shape;
        if shape.m == 0 {
            return true; // no tile touches the cache
        }
        let footprint = replay_footprint(layer, sweep, spans);
        if !machine.cache.fits_without_eviction(&footprint) {
            return false;
        }

        let bounds = footprint.bounds();
        let base = bounds.start;
        let mut touched = vec![0u64; (bounds.end - base).div_ceil(64) as usize];
        let mut first_touches = |span: LineSpan| -> u64 {
            let mut first = 0;
            for line in span.first_line - base..span.end() - base {
                let (word, bit) = ((line / 64) as usize, 1u64 << (line % 64));
                first += u64::from(touched[word] & bit == 0);
                touched[word] |= bit;
            }
            first
        };
        // (touches, first touches) of the `Format` reads, the weight
        // reads and the payload probes.
        let (mut format, mut weight, mut payload) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
        // The lines of `TrafficSpans::a_payload_span` without a division
        // per pair for the power-of-two line sizes.
        let line = self.config.cache_line_bytes as u64;
        let shift = line.trailing_zeros();
        let payload_lines = |intra: u64, bytes: u64| match bytes {
            0 => 0,
            _ if line.is_power_of_two() => ((intra + bytes - 1) >> shift) + 1,
            _ => (intra + bytes - 1) / line + 1,
        };
        let mut input_bytes = 0u64;
        let mut reached = vec![0u64; shape.m];
        let mut tiles = 0u64;
        for rows in self.tiles(shape.m) {
            for &span in &spans.a_bm_span[rows.clone()] {
                format.0 += span.n_lines;
                format.1 += first_touches(span);
            }
            for n in 0..shape.n {
                // Every fiber-B line is touched in the first tile.
                if tiles == 0 {
                    format.1 += first_touches(spans.b_bm_span[n]);
                    weight.1 += first_touches(spans.b_payload_span[n]);
                }
                for (m, &matches) in rows.clone().zip(sweep.column_matches(rows.clone(), n)) {
                    let bytes = payload_bytes(matches, shape.t);
                    let lines = payload_lines(spans.a_payload_intra[m], bytes);
                    input_bytes += bytes;
                    payload.0 += lines;
                    if lines > reached[m] {
                        payload.1 += first_touches(LineSpan {
                            first_line: spans.a_payload_line[m] + reached[m],
                            n_lines: lines - reached[m],
                        });
                        reached[m] = lines;
                    }
                }
            }
            tiles += 1;
        }
        let lines_of = |spans: &[LineSpan]| spans.iter().map(|span| span.n_lines).sum::<u64>();
        format.0 += tiles * lines_of(&spans.b_bm_span);
        weight.0 = tiles * lines_of(&spans.b_payload_span);
        debug_assert_eq!(format.1 + weight.1 + payload.1, footprint.lines());
        let cache = &mut machine.cache;
        cache.record_unevicted(Some(TrafficClass::Format), format.0, format.1);
        cache.record_unevicted(Some(TrafficClass::Weight), weight.0, weight.1);
        cache.record_unevicted(None, payload.0, payload.1);
        cache.read_untagged(TrafficClass::Input, input_bytes);
        machine.dram.record(TrafficClass::Format, format.1 * line);
        true
    }
}

/// The packed payload bytes of `A` a pair with `matches` matches fetches.
fn payload_bytes(matches: u32, timesteps: usize) -> u64 {
    (u64::from(matches) * timesteps as u64).div_ceil(8)
}

/// Every line [`Loas::walk_cache`] touches, in address order: per row
/// `bm-A` and the longest payload prefix any fiber-B fetches, then per
/// column `bm-B` and weights. Neighbouring objects can share a line.
fn replay_footprint(layer: &PreparedLayer, sweep: &LayerSweep, spans: &TrafficSpans) -> Footprint {
    let shape = layer.shape;
    let mut longest = vec![0u32; shape.m];
    for n in 0..shape.n {
        for (longest, &matches) in longest.iter_mut().zip(sweep.column_matches(0..shape.m, n)) {
            *longest = (*longest).max(matches);
        }
    }
    let mut footprint = Footprint::default();
    for (m, &longest) in longest.iter().enumerate() {
        footprint.push(spans.a_bm_span[m]);
        footprint.push(spans.a_payload_span(m, payload_bytes(longest, shape.t)));
    }
    for (&bm, &payload) in spans.b_bm_span.iter().zip(&spans.b_payload_span) {
        footprint.push(bm);
        footprint.push(payload);
    }
    footprint
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
        if let Err(message) = self.config.check_workload(&shape) {
            panic!("{message}");
        }
        let mut verified_output = self
            .verify_outputs
            .then(|| SpikeTensor::zeros(shape.m, shape.n, shape.t));
        let (weight_bits, line_bytes) = (self.config.weight_bits, self.config.cache_line_bytes);
        let replay = match verified_output.as_mut() {
            // Jobs sharing the layer reuse the replay of any config that
            // differs only in off-chip bandwidth, and the sweep of any with
            // the same kernel and cycle model.
            None => *layer.memo.get_or_insert_with(self.replay_key(), || {
                let sweep = layer
                    .memo
                    .get_or_insert_with(self.sweep_key(), || self.sweep_layer(layer));
                let spans = layer.traffic_spans(weight_bits, line_bytes);
                self.replay(layer, &sweep, &spans, None)
            }),
            Some(output) => {
                let spans = TrafficSpans::build(layer, weight_bits, line_bytes);
                self.replay(layer, &self.sweep_layer(layer), &spans, Some(output))
            }
        };
        self.report(layer, replay, verified_output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_sim::TrafficLedger;
    use loas_sparse::Bitmask;
    use loas_workloads::{LayerShape, SparsityProfile, WorkloadGenerator};
    use proptest::prelude::*;

    /// The oracle's per-pair cycle/op metrics from word-level popcounts.
    #[derive(Debug, Clone, Copy, Default)]
    struct PairMetrics {
        matches: u64,
        chunks: u64,
        cycles: u64,
        laggy_chunks: u64,
        stall_cycles: u64,
    }

    /// One pair through the pre-kernel scalar join. Counting semantics
    /// (matches, prefix-sum activity, backpressure) are identical to
    /// [`crate::InnerJoinUnit::join`]; the latency is the steady-state
    /// pipelined one, `max(chunks, matches + backpressure)`: one 128-bit
    /// chunk streams per cycle while matches drain one per cycle.
    fn pair_metrics(loas: &Loas, bm_a: &Bitmask, bm_b: &Bitmask) -> PairMetrics {
        let chunk_words = (loas.config.bitmask_bits / 64).max(1);
        let fifo = loas.fifo_depth().map_or(u64::MAX, |d| d as u64);
        let mut metrics = PairMetrics::default();
        for chunk_matches in bm_a.chunked_and_counts(bm_b, chunk_words) {
            metrics.matches += chunk_matches;
            metrics.chunks += 1;
            metrics.stall_cycles += chunk_matches.saturating_sub(fifo);
            if chunk_matches > 0 {
                metrics.laggy_chunks += 1;
            }
        }
        metrics.cycles = metrics.chunks.max(metrics.matches + metrics.stall_cycles);
        metrics
    }

    /// The pre-kernel scalar sweep: fills the same [`LayerSweep`] as
    /// [`PairSweepKernel::sweep_layer`] from per-pair [`pair_metrics`]
    /// calls plus per-timestep plane `and_count`s, sequentially.
    fn reference_sweep(loas: &Loas, layer: &PreparedLayer) -> LayerSweep {
        let shape = layer.shape;
        let planes = layer.workload.spikes.planes();
        let mut sweep = LayerSweep::zeroed(shape.m, shape.n);
        for (n, fiber_b) in layer.b_fibers.iter().enumerate() {
            for m in 0..shape.m {
                let metrics = pair_metrics(loas, layer.a_mask(m), fiber_b.bitmask());
                sweep.totals.matches += metrics.matches;
                sweep.totals.stalls += metrics.stall_cycles;
                sweep.totals.laggy_chunks += metrics.laggy_chunks;
                let mut sequential_cycles = 0u64;
                for plane in planes {
                    let matches_t =
                        plane.row(m).and_count(fiber_b.bitmask()).expect("equal K") as u64;
                    sweep.totals.fired += matches_t;
                    sequential_cycles += metrics.chunks.max(matches_t) + 1; // + LIF step
                }
                let drain = match loas.sweep_mode() {
                    SweepMode::TemporalParallel => metrics.cycles + 1, // + P-LIF
                    SweepMode::SequentialT => sequential_cycles,
                };
                sweep.matches[n * shape.m + m] = metrics.matches as u32;
                sweep.drain[n * shape.m + m] = drain as u32;
            }
        }
        sweep
    }

    /// The oracle's cache walk: the replay order of [`Loas::walk_cache`]
    /// through per-access address arithmetic over an `A`-then-`B` address
    /// map, line by line through the tags.
    fn address_walk(
        loas: &Loas,
        layer: &PreparedLayer,
        sweep: &LayerSweep,
        cache: &mut SramCache,
        dram: &mut TrafficLedger,
    ) {
        let shape = layer.shape;
        let line = loas.config.cache_line_bytes as u64;
        let bm_bytes = (shape.k + POINTER_BITS).div_ceil(8) as u64;
        let mut addr = 0u64;
        let mut a_addr = Vec::with_capacity(shape.m);
        for fiber in &layer.a_fibers {
            a_addr.push(addr);
            addr += fiber.storage_bits(shape.t).div_ceil(8) as u64;
        }
        let mut b_addr = Vec::with_capacity(shape.n);
        for fiber in layer.b_fibers.iter() {
            b_addr.push(addr);
            addr += fiber.storage_bits(loas.config.weight_bits).div_ceil(8) as u64;
        }
        for start in (0..shape.m).step_by(loas.config.tppes) {
            let rows = start..(start + loas.config.tppes).min(shape.m);
            for m in rows.clone() {
                let missed = cache.access_range(a_addr[m], bm_bytes, TrafficClass::Format);
                dram.record(TrafficClass::Format, missed * line);
            }
            for (n, fiber_b) in layer.b_fibers.iter().enumerate() {
                let missed = cache.access_range(b_addr[n], bm_bytes, TrafficClass::Format);
                dram.record(TrafficClass::Format, missed * line);
                let weight_bytes = (fiber_b.nnz() * loas.config.weight_bits).div_ceil(8) as u64;
                cache.access_range(b_addr[n] + bm_bytes, weight_bytes, TrafficClass::Weight);
                for m in rows.clone() {
                    let matches = u64::from(sweep.matches[n * shape.m + m]);
                    let bytes = (matches * shape.t as u64).div_ceil(8);
                    cache.read_untagged(TrafficClass::Input, bytes);
                    cache.probe_range(a_addr[m] + bm_bytes, bytes);
                }
            }
        }
    }

    /// The oracle's report: [`reference_sweep`] and [`address_walk`], with
    /// the output estimate by its formula. It shares only the off-chip
    /// preamble and the report assembly (tile schedule, op-count fold and
    /// roofline) with [`Loas::run_layer`].
    fn reference_report(config: &LoasConfig, layer: &PreparedLayer) -> String {
        let loas = Loas::new(config.clone());
        let shape = layer.shape;
        let sweep = reference_sweep(&loas, layer);
        let out_row_bytes =
            ((shape.n + POINTER_BITS) as u64 + (shape.n as u64 / 10) * shape.t as u64).div_ceil(8);
        let mut machine = loas.offchip(layer, out_row_bytes);
        address_walk(&loas, layer, &sweep, &mut machine.cache, &mut machine.dram);
        let replay = loas.fold(layer, &sweep, sweep.totals.fired, machine);
        loas.report(layer, replay, None).to_portable()
    }

    /// 70 rows: three sweep blocks, so intra-layer workers split the layer,
    /// and several row tiles at any TPPE count up to 32.
    fn tiled_layer() -> PreparedLayer {
        let profile = SparsityProfile::from_percentages(75.0, 60.0, 68.0, 90.0).unwrap();
        let workload = WorkloadGenerator::default()
            .generate("loas-tiles", LayerShape::new(4, 70, 12, 96), &profile)
            .unwrap();
        PreparedLayer::new(&workload)
    }

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

    /// Whether `loas` counts its replay of `layer` from the footprint.
    fn fits(loas: &Loas, layer: &PreparedLayer) -> bool {
        let config = &loas.config;
        let spans = TrafficSpans::build(layer, config.weight_bits, config.cache_line_bytes);
        let mut machine = loas.offchip(layer, spans.out_row_bytes);
        loas.count_unevicted(layer, &loas.sweep_layer(layer), &spans, &mut machine)
    }

    /// Every LoAS variant must produce byte-identical portable reports to
    /// the oracle, at any intra-layer worker count and TPPE count, on
    /// global caches the replay's footprint fits (counted from first
    /// touches) and overflows (walked tag by tag) — the two-phase
    /// refactor's core guarantee.
    #[test]
    fn kernel_and_reference_sweeps_are_byte_identical() {
        let layer = tiled_layer();
        let variants = [
            LoasConfig::builder(),
            LoasConfig::builder().temporal_parallel(false),
            LoasConfig::builder().two_fast_prefix(true),
            LoasConfig::builder().discard_low_activity_outputs(true),
        ];
        // (capacity, ways): the Table III cache, a 1 KB direct-mapped one,
        // and capacities around the footprint.
        let caches = [
            (256 * 1024, 16),
            (1024, 1),
            (2048, 4),
            (4096, 1),
            (4096, 4),
            (8192, 2),
            (8192, 8),
            (16384, 16),
        ];
        let (mut fitting, mut evicting) = (0, 0);
        for variant in variants {
            for (cache_bytes, cache_ways) in caches {
                for tppes in [4, 32] {
                    let mut config = variant
                        .clone()
                        .cache_bytes(cache_bytes)
                        .tppes(tppes)
                        .build();
                    config.cache_ways = cache_ways;
                    let golden = reference_report(&config, &layer);
                    if fits(&Loas::new(config.clone()), &layer) {
                        fitting += 1;
                    } else {
                        evicting += 1;
                    }
                    for workers in [1usize, 2, 4] {
                        // A fresh layer each run: a memo hit would skip
                        // the sweep at this worker count.
                        let report = Loas::new(config.clone())
                            .with_intra_workers(workers)
                            .run_layer(&tiled_layer())
                            .to_portable();
                        assert_eq!(
                            report,
                            golden,
                            "{:?} with {tppes} TPPEs, a {cache_bytes}-byte {cache_ways}-way \
                             cache and {workers} workers",
                            variant.clone().build()
                        );
                    }
                }
            }
        }
        assert!(
            fitting >= 8 && evicting >= 8,
            "{fitting} fit, {evicting} evict"
        );

        // Full-size V-L8 (Table II): its replay overflows a 64 KB global
        // cache (the span walk) and fits the 256 KB one (the count).
        let profile = SparsityProfile {
            spike_origin: 0.881,
            silent: 0.765,
            silent_ft: 0.868,
            weight: 0.968,
        };
        let v_l8 = WorkloadGenerator::new(7)
            .generate("V-L8", LayerShape::new(4, 16, 512, 2304), &profile)
            .unwrap();
        let v_l8 = PreparedLayer::new(&v_l8);
        for (cache_bytes, fitting) in [(64 * 1024, false), (256 * 1024, true)] {
            for tppes in [4, 32] {
                let config = LoasConfig::builder()
                    .cache_bytes(cache_bytes)
                    .tppes(tppes)
                    .build();
                let loas = Loas::new(config.clone());
                assert_eq!(fits(&loas, &v_l8), fitting, "{cache_bytes}-byte cache");
                assert_eq!(
                    loas.clone().run_layer(&v_l8).to_portable(),
                    reference_report(&config, &v_l8),
                    "V-L8 with {tppes} TPPEs and a {cache_bytes}-byte cache"
                );
            }
        }
    }

    /// The footprint that decides whether the replay can evict holds
    /// exactly the lines the tag walk touches: every row's `bm-A` and each
    /// pair's payload prefix, and every fiber-B's `bm-B` and weights.
    #[test]
    fn replay_footprint_is_the_set_of_walked_lines() {
        // Rows several lines long whose payload prefixes vary by column.
        let profile = SparsityProfile::from_percentages(50.0, 40.0, 45.0, 50.0).unwrap();
        let dense = WorkloadGenerator::default()
            .generate("loas-dense", LayerShape::new(4, 48, 32, 1024), &profile)
            .unwrap();
        let dense = PreparedLayer::new(&dense);
        for (layer, weight_bits) in [(tiled_layer(), 8), (small_layer(), 4), (dense, 8)] {
            let sweep = Loas::default().sweep_layer(&layer);
            let spans = TrafficSpans::build(&layer, weight_bits, 64);
            let mut walked = std::collections::BTreeSet::new();
            let mut touch =
                |span: LineSpan| walked.extend(span.first_line..span.first_line + span.n_lines);
            for m in 0..layer.shape.m {
                touch(spans.a_bm_span[m]);
                for n in 0..layer.shape.n {
                    let matches = sweep.column_matches(m..m + 1, n)[0];
                    touch(spans.a_payload_span(m, payload_bytes(matches, layer.shape.t)));
                }
            }
            for n in 0..layer.shape.n {
                touch(spans.b_bm_span[n]);
                touch(spans.b_payload_span[n]);
            }
            let footprint = replay_footprint(&layer, &sweep, &spans);
            for pair in footprint.spans().windows(2) {
                assert!(
                    pair[0].first_line + pair[0].n_lines < pair[1].first_line,
                    "{pair:?}"
                );
            }
            let lines: std::collections::BTreeSet<u64> = footprint
                .spans()
                .iter()
                .flat_map(|span| span.first_line..span.end())
                .collect();
            assert_eq!(lines, walked);
        }
    }

    /// The 13 LoAS points of the repository's TPPE, bandwidth and cache
    /// sweeps share one pair sweep and 7 bandwidth-independent configs.
    #[test]
    fn design_sweep_simulates_each_phase_once() {
        let layer = small_layer();
        let tppes = [4, 8, 16, 32].map(|t| LoasConfig::builder().tppes(t).build());
        let bandwidth =
            [16.0, 32.0, 64.0, 128.0, 256.0].map(|g| LoasConfig::builder().hbm_gbps(g).build());
        let cache =
            [64, 128, 256, 512].map(|kb| LoasConfig::builder().cache_bytes(kb * 1024).build());
        for config in tppes.into_iter().chain(bandwidth).chain(cache) {
            let shared = Loas::new(config.clone()).run_layer(&layer);
            let fresh = Loas::new(config).run_layer(&small_layer());
            assert_eq!(shared.to_portable(), fresh.to_portable());
        }
        let stats = layer.memo_stats();
        assert_eq!(stats.sweeps.misses, 1, "{stats:?}");
        assert_eq!(stats.sweeps.hits, 6, "{stats:?}");
        assert_eq!(stats.replays.misses, 7, "{stats:?}");
        assert_eq!(stats.replays.hits, 6, "{stats:?}");
        assert_eq!(stats.spans.misses, 1, "{stats:?}");
        assert_eq!(stats.evictions, 0);
    }

    /// The HBM channel count changes no report: the roofline reads only
    /// the aggregate bandwidth. The reference oracle bypasses the replay
    /// memo, so each channel count also simulates in full.
    #[test]
    fn hbm_channel_count_changes_no_report() {
        let layer = small_layer();
        let table3 = Loas::default().run_layer(&layer).to_portable();
        for hbm_channels in [1, 4, 16] {
            let config = LoasConfig {
                hbm_channels,
                ..LoasConfig::table3()
            };
            let served = Loas::new(config.clone()).run_layer(&layer).to_portable();
            assert_eq!(served, table3, "{hbm_channels} channels");
            assert_eq!(reference_report(&config, &layer), table3);
        }
    }

    #[test]
    fn reference_and_verified_runs_bypass_the_memo() {
        let layer = small_layer();
        reference_report(&LoasConfig::table3(), &layer);
        Loas::default().with_verification(true).run_layer(&layer);
        assert_eq!(layer.memo_stats(), crate::MemoStats::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The span-driven replay against the oracle on random shapes.
        #[test]
        fn span_replay_is_byte_identical_to_the_reference_oracle(
            shape in (2usize..=20, 2usize..=16, 16usize..=160),
            profile in (60.0f64..88.0, 45.0f64..65.0, 1.0f64..10.0, 82.0f64..98.0),
        ) {
            let (m, n, k) = shape;
            let (origin, silent, ft_extra, weight) = profile;
            let Ok(profile) =
                SparsityProfile::from_percentages(origin, silent, silent + ft_extra, weight)
            else {
                continue;
            };
            let Ok(workload) = WorkloadGenerator::default().generate(
                &format!("span-prop-{m}-{n}-{k}"),
                LayerShape::new(4, m, n, k),
                &profile,
            ) else {
                continue; // infeasible profile draw: nothing to check
            };
            let layer = PreparedLayer::new(&workload);
            prop_assert_eq!(
                Loas::default().run_layer(&layer).to_portable(),
                reference_report(&LoasConfig::table3(), &layer)
            );
        }
    }
}
