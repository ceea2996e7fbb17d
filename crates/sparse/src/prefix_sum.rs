//! Functional and timing models of the prefix-sum circuits used by
//! inner-join units.
//!
//! SparTen-style inner-joins need prefix sums ("rank" over a bitmask) to
//! translate matched bit positions into payload memory offsets. The paper
//! distinguishes:
//!
//! * the **fast prefix-sum circuit** — a tree structure with `O(log n)`
//!   depth that produces all offsets in a single clock cycle, at high area
//!   and power cost (>45% of a SparTen PE);
//! * the **laggy prefix-sum circuit** (the paper's proposal) — a group of
//!   `adders` sequential adders that sweep the bitmask and produce all
//!   offsets after `len / adders` cycles, at roughly an eighth of the area.
//!
//! Both compute the same function; only latency/cost differ. The functional
//! results here are shared by all accelerator models and checked against
//! [`Bitmask::rank`].

use crate::bitmask::Bitmask;

/// Exclusive prefix sum over the bits of a mask: `out[i]` = number of set
/// bits strictly before position `i`. `out` has `len + 1` entries; the last
/// is the total popcount.
///
/// # Examples
///
/// ```
/// use loas_sparse::{Bitmask, prefix_sum::exclusive_prefix_sum};
///
/// let bm = Bitmask::from_indices(4, &[0, 2]).unwrap();
/// assert_eq!(exclusive_prefix_sum(&bm), vec![0, 1, 1, 2, 2]);
/// ```
pub fn exclusive_prefix_sum(mask: &Bitmask) -> Vec<u32> {
    let mut out = Vec::with_capacity(mask.len() + 1);
    let mut acc = 0u32;
    out.push(0);
    for i in 0..mask.len() {
        if mask.get(i) {
            acc += 1;
        }
        out.push(acc);
    }
    out
}

/// Timing/energy-relevant parameters of a prefix-sum circuit instance.
pub trait PrefixSumCircuit {
    /// Cycles from presenting a `width`-bit mask to all offsets being ready.
    fn latency_cycles(&self) -> u64;

    /// Datapath width in bits (the size of the bitmask buffer it scans).
    fn width(&self) -> usize;

    /// Computes the offset (exclusive rank) for every position of `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() > self.width()`.
    fn offsets(&self, mask: &Bitmask) -> Vec<u32> {
        assert!(
            mask.len() <= self.width(),
            "mask of {} bits exceeds circuit width {}",
            mask.len(),
            self.width()
        );
        exclusive_prefix_sum(mask)
    }
}

/// The fast, single-cycle tree prefix-sum circuit (as assumed for SparTen in
/// the paper's footnote 7: `O(log n)` tree running in one clock cycle, `n =
/// 128`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastPrefixSum {
    width: usize,
}

impl FastPrefixSum {
    /// Creates a fast prefix-sum circuit over `width`-bit masks.
    pub fn new(width: usize) -> Self {
        FastPrefixSum { width }
    }

    /// Number of adder nodes in the Brent-Kung style tree, used by the area
    /// model: roughly `2n - log2(n) - 2`.
    pub fn adder_count(&self) -> usize {
        let n = self.width.max(2);
        let log = usize::BITS as usize - 1 - n.leading_zeros() as usize;
        2 * n - log - 2
    }
}

impl PrefixSumCircuit for FastPrefixSum {
    fn latency_cycles(&self) -> u64 {
        1
    }

    fn width(&self) -> usize {
        self.width
    }
}

/// The laggy prefix-sum circuit (Fig. 9, left): `adders` parallel sequential
/// adders sweep the mask, producing all offsets after `width / adders`
/// cycles. The default LoAS configuration uses 16 adders over 128-bit masks
/// (8 cycles, Table III discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaggyPrefixSum {
    width: usize,
    adders: usize,
}

impl LaggyPrefixSum {
    /// Creates a laggy prefix-sum circuit with `adders` adders over
    /// `width`-bit masks.
    ///
    /// # Panics
    ///
    /// Panics when `adders == 0`.
    pub fn new(width: usize, adders: usize) -> Self {
        assert!(adders > 0, "laggy prefix-sum needs at least one adder");
        LaggyPrefixSum { width, adders }
    }

    /// Number of adders in the group.
    pub fn adder_count(&self) -> usize {
        self.adders
    }
}

impl PrefixSumCircuit for LaggyPrefixSum {
    /// `len(bm) / #adders` cycles, per Section IV-C.
    fn latency_cycles(&self) -> u64 {
        self.width.div_ceil(self.adders) as u64
    }

    fn width(&self) -> usize {
        self.width
    }
}

/// The *inverted* prefix-sum used by the output compressor (Section IV-D):
/// given a dense vector of output spikes, it produces the compacted write
/// positions for the non-silent entries. LoAS uses a laggy implementation
/// because compression is off the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvertedPrefixSum {
    inner: LaggyPrefixSum,
}

impl InvertedPrefixSum {
    /// Creates an inverted (compression-direction) laggy prefix-sum circuit.
    pub fn new(width: usize, adders: usize) -> Self {
        InvertedPrefixSum {
            inner: LaggyPrefixSum::new(width, adders),
        }
    }

    /// For each set bit of `keep`, the index in the compacted output where
    /// its payload is written.
    pub fn compact_positions(&self, keep: &Bitmask) -> Vec<(usize, usize)> {
        keep.iter_ones()
            .enumerate()
            .map(|(dst, src)| (src, dst))
            .collect()
    }

    /// Cycles to compress one `width`-bit output group.
    pub fn latency_cycles(&self) -> u64 {
        self.inner.latency_cycles()
    }

    /// Datapath width in bits.
    pub fn width(&self) -> usize {
        self.inner.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_prefix_sum_matches_rank() {
        let bm = Bitmask::from_indices(130, &[0, 5, 64, 127, 129]).unwrap();
        let ps = exclusive_prefix_sum(&bm);
        assert_eq!(ps.len(), bm.len() + 1);
        for (i, &p) in ps.iter().enumerate() {
            assert_eq!(p as usize, bm.rank(i), "at {i}");
        }
    }

    #[test]
    fn fast_is_single_cycle() {
        let fast = FastPrefixSum::new(128);
        assert_eq!(fast.latency_cycles(), 1);
        assert_eq!(fast.width(), 128);
        assert!(fast.adder_count() > 128, "tree has ~2n adders");
    }

    #[test]
    fn laggy_matches_paper_configuration() {
        // Table III discussion: 16 adders, 128-bit buffer -> 8 cycles.
        let laggy = LaggyPrefixSum::new(128, 16);
        assert_eq!(laggy.latency_cycles(), 8);
        assert_eq!(laggy.adder_count(), 16);
    }

    #[test]
    fn laggy_rounds_up() {
        assert_eq!(LaggyPrefixSum::new(100, 16).latency_cycles(), 7);
        assert_eq!(LaggyPrefixSum::new(1, 16).latency_cycles(), 1);
    }

    #[test]
    fn circuits_compute_identical_offsets() {
        let bm = Bitmask::from_indices(128, &[2, 3, 70, 100]).unwrap();
        let fast = FastPrefixSum::new(128);
        let laggy = LaggyPrefixSum::new(128, 16);
        assert_eq!(fast.offsets(&bm), laggy.offsets(&bm));
    }

    #[test]
    #[should_panic(expected = "exceeds circuit width")]
    fn oversized_mask_panics() {
        FastPrefixSum::new(64).offsets(&Bitmask::zeros(65));
    }

    #[test]
    fn inverted_compacts_in_order() {
        let keep = Bitmask::from_indices(8, &[1, 4, 7]).unwrap();
        let inv = InvertedPrefixSum::new(8, 4);
        assert_eq!(inv.compact_positions(&keep), vec![(1, 0), (4, 1), (7, 2)]);
        assert_eq!(inv.latency_cycles(), 2);
    }
}
