//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's hardware relies on.

use loas::core::kernel::{PairSweepKernel, RowBlocks};
use loas::core::{reference_sums, AccumulatorBank, InnerJoinUnit, ParallelLif};
use loas::sparse::{Bitmask, PackedSpikes, SpikeFiber, WeightFiber};
use loas::{LifParams, LoasConfig, SpikeTensor};
use proptest::prelude::*;

/// Strategy: a row of packed spike words for `k` neurons at `t` timesteps.
fn packed_row(k: usize, t: usize) -> impl Strategy<Value = Vec<PackedSpikes>> {
    let mask = if t == 16 { u16::MAX } else { (1u16 << t) - 1 };
    proptest::collection::vec(0u16..=mask, k).prop_map(move |bits| {
        bits.into_iter()
            .map(|b| PackedSpikes::from_bits(b, t).expect("t within range"))
            .collect()
    })
}

fn weight_row(k: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(-20i8..=20, k)
}

proptest! {
    #[test]
    fn compression_roundtrip_is_identity(row in packed_row(40, 4)) {
        let fiber = SpikeFiber::from_packed_row(&row);
        let rebuilt = fiber.to_dense(PackedSpikes::silent(4).unwrap());
        prop_assert_eq!(rebuilt, row);
    }

    #[test]
    fn tensor_pack_unpack_roundtrip(rows in proptest::collection::vec(packed_row(12, 4), 1..6)) {
        let tensor = SpikeTensor::from_packed_rows(&rows, 4).unwrap();
        for (m, row) in rows.iter().enumerate() {
            let packed: Vec<PackedSpikes> = (0..12).map(|k| tensor.packed_word(m, k)).collect();
            prop_assert_eq!(&packed, row);
            prop_assert_eq!(&tensor.to_row_fibers()[m], &SpikeFiber::from_packed_row(row));
        }
        // Statistics consistency: spikes counted both ways agree.
        let by_words: usize = rows.iter().flatten().map(|w| w.fire_count()).sum();
        prop_assert_eq!(tensor.spike_count(), by_words);
    }

    #[test]
    fn inner_join_equals_dense_dot_product(
        row in packed_row(64, 4),
        weights in weight_row(64),
    ) {
        let fiber_a = SpikeFiber::from_packed_row(&row);
        let fiber_b = WeightFiber::from_weights(&weights);
        let unit = InnerJoinUnit::new(&LoasConfig::table3());
        let outcome = unit.join(&fiber_a, &fiber_b);
        prop_assert_eq!(&outcome.sums, &reference_sums(&fiber_a, &fiber_b, 4));
        // Dense check from first principles.
        for t in 0..4 {
            let mut expected = 0i64;
            for (k, w) in weights.iter().enumerate() {
                if *w != 0 && row[k].fires_at(t) {
                    expected += *w as i64;
                }
            }
            prop_assert_eq!(outcome.sums[t], expected, "t={}", t);
        }
        prop_assert_eq!(outcome.overflows, 0, "evaluation widths never overflow here");
    }

    #[test]
    fn pseudo_plus_correction_identity(
        row in packed_row(32, 4),
        weights in weight_row(32),
    ) {
        // The hardware identity: O[t] = pseudo - correction[t], where the
        // pseudo presumes all-ones and corrections subtract missing
        // timesteps.
        let mut bank = AccumulatorBank::loas_default(4);
        for (k, w) in weights.iter().enumerate() {
            if *w != 0 && !row[k].is_silent() {
                bank.accumulate(*w as i64);
                for t in 0..4 {
                    if !row[k].fires_at(t) {
                        bank.correct(*w as i64, [t]);
                    }
                }
            }
        }
        let sums = bank.finalize();
        prop_assert_eq!(sums.len(), 4);
        for (t, &sum) in sums.iter().enumerate() {
            let mut expected = 0i64;
            for (k, w) in weights.iter().enumerate() {
                if *w != 0 && row[k].fires_at(t) {
                    expected += *w as i64;
                }
            }
            prop_assert_eq!(sum, expected);
        }
    }

    #[test]
    fn plif_equals_sequential_lif(
        sums in proptest::collection::vec(-100i64..100, 1..9),
        v_th in 0i32..50,
        leak in 0u32..3,
    ) {
        let params = LifParams::new(v_th, leak);
        let plif = ParallelLif::new(params, sums.len());
        let out = plif.fire(&sums);
        let inputs: Vec<i32> = sums.iter().map(|&s| s as i32).collect();
        let (expected, membrane) = params.run(&inputs);
        prop_assert_eq!(out.spikes.to_vec(), expected);
        prop_assert_eq!(out.membrane, membrane);
    }

    #[test]
    fn rank_equals_exclusive_scan(bits in proptest::collection::vec(any::<bool>(), 1..128)) {
        // rank(i) is the exclusive prefix sum the inner-join's prefix-sum
        // circuits compute: set bits strictly before position i.
        let mask = Bitmask::from_bools(bits.clone());
        let mut scan = 0;
        for (i, &bit) in bits.iter().enumerate() {
            prop_assert_eq!(mask.rank(i), scan);
            scan += bit as usize;
        }
        prop_assert_eq!(mask.rank(bits.len()), scan);
    }

    #[test]
    fn bitmask_and_count_is_intersection_popcount(
        a in proptest::collection::vec(any::<bool>(), 96),
        b in proptest::collection::vec(any::<bool>(), 96),
    ) {
        let ma = Bitmask::from_bools(a.clone());
        let mb = Bitmask::from_bools(b.clone());
        let expected = a.iter().zip(&b).filter(|(x, y)| **x && **y).count();
        prop_assert_eq!(ma.and_count(&mb).unwrap(), expected);
        prop_assert_eq!(ma.and(&mb).unwrap().popcount(), expected);
    }

    #[test]
    fn select_is_right_inverse_of_rank(indices in proptest::collection::btree_set(0usize..200, 0..40)) {
        let idx: Vec<usize> = indices.into_iter().collect();
        let mask = Bitmask::from_indices(200, &idx).unwrap();
        for (i, &pos) in idx.iter().enumerate() {
            prop_assert_eq!(mask.select(i), Some(pos));
            prop_assert_eq!(mask.rank(pos), i);
        }
        prop_assert_eq!(mask.select(idx.len()), None);
    }

    #[test]
    fn pair_sweep_kernel_agrees_with_inner_join(
        row in packed_row(300, 4),
        weights in weight_row(300),
    ) {
        // The two-phase kernel's pure pair counts must agree with the
        // bit-exact inner-join unit and the dense reference on every
        // randomized fiber pair: matches, stall/backpressure cycles,
        // fast/laggy prefix activity, per-timestep counts, fired totals.
        let fiber_a = SpikeFiber::from_packed_row(&row);
        let fiber_b = WeightFiber::from_weights(&weights);
        let config = LoasConfig::table3();
        let unit = InnerJoinUnit::new(&config);
        let outcome = unit.join(&fiber_a, &fiber_b);

        let blocks = RowBlocks::from_tensor(&SpikeTensor::from_packed_rows(std::slice::from_ref(&row), 4).unwrap());
        let kernel = PairSweepKernel::new(config.bitmask_bits, Some(config.fifo_depth));
        let counts = kernel.pair_counts(&blocks, 0, fiber_b.bitmask().words());

        prop_assert_eq!(counts.matches, outcome.matches);
        prop_assert_eq!(counts.stalls, outcome.stall_cycles);
        prop_assert_eq!(counts.chunks, 300u64.div_ceil(config.bitmask_bits as u64).max(1));
        // Fast prefix: one scan cycle per chunk plus one per match; laggy:
        // one sweep per chunk that produced work.
        prop_assert_eq!(counts.chunks + counts.matches, outcome.fast_prefix_cycles);
        prop_assert_eq!(
            counts.laggy_chunks * config.laggy_latency_cycles(),
            outcome.laggy_prefix_cycles
        );
        // Fired totals: the join applies `corrections` for every matched
        // timestep that did not fire, so fired = T·matches − corrections.
        prop_assert_eq!(counts.fired, 4 * outcome.matches - outcome.corrections);
        prop_assert_eq!(counts.fired, counts.t_counts[..4].iter().map(|&c| c as u64).sum::<u64>());
        // Per-timestep counts against dense first principles, and the sums
        // against the dense reference join.
        for t in 0..4 {
            let dense = row
                .iter()
                .zip(&weights)
                .filter(|(word, &w)| w != 0 && word.fires_at(t))
                .count() as u32;
            prop_assert_eq!(counts.t_counts[t], dense, "t={}", t);
        }
        prop_assert_eq!(&outcome.sums, &reference_sums(&fiber_a, &fiber_b, 4));
    }

    #[test]
    fn join_cycle_counts_are_bounded(
        row in packed_row(96, 4),
        weights in weight_row(96),
    ) {
        // Sanity bounds on the documented cycle model: at least one cycle
        // per chunk, at most chunk scans + matches + stalls + tail.
        let fiber_a = SpikeFiber::from_packed_row(&row);
        let fiber_b = WeightFiber::from_weights(&weights);
        let config = LoasConfig::table3();
        let unit = InnerJoinUnit::new(&config);
        let outcome = unit.join(&fiber_a, &fiber_b);
        let chunks = 96usize.div_ceil(config.bitmask_bits).max(1) as u64;
        prop_assert!(outcome.cycles >= chunks);
        let upper = chunks + outcome.matches + outcome.stall_cycles + config.laggy_latency_cycles();
        prop_assert!(outcome.cycles <= upper, "{} > {}", outcome.cycles, upper);
    }
}
