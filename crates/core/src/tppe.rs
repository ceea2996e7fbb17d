//! The Temporal-Parallel Processing Element (TPPE, Fig. 7).
//!
//! Each TPPE produces the full sum of **one output neuron across all
//! timesteps** (Algorithm 1, line 5): it holds the bitmask of one row fiber
//! of `A` in a 128-bit buffer, receives the broadcast weight fiber of `B`
//! (bitmask into the second buffer, non-zeros into the 128-byte weight
//! buffer), runs the FTP-friendly inner-join, and hands the corrected
//! per-timestep sums to a P-LIF unit that emits all output spikes in one
//! shot.

use crate::config::LoasConfig;
use crate::inner_join::{InnerJoinUnit, JoinOutcome, JoinScratch};
use crate::plif::{ParallelLif, PlifOutcome};
use loas_snn::LifParams;
use loas_sparse::{SpikeFiber, WeightFiber};

/// The result of one TPPE pass over one output neuron.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TppeOutcome {
    /// Inner-join result (sums, matches, corrections, circuit activity).
    pub join: JoinOutcome,
    /// P-LIF result (packed output spikes + final membrane).
    pub plif: PlifOutcome,
    /// Cycles to load the broadcast fiber-B payload into the weight buffer
    /// (overlappable with the previous neuron's compute by double
    /// buffering).
    pub b_load_cycles: u64,
    /// Total compute cycles for this neuron (join + one P-LIF cycle).
    pub compute_cycles: u64,
}

/// One temporal-parallel processing element.
#[derive(Debug, Clone, PartialEq)]
pub struct Tppe {
    join_unit: InnerJoinUnit,
    weight_bits: usize,
    crossbar_bus_bytes: usize,
    timesteps: usize,
}

impl Tppe {
    /// Builds a TPPE from the LoAS configuration.
    pub fn new(config: &LoasConfig) -> Self {
        Tppe {
            join_unit: InnerJoinUnit::new(config),
            weight_bits: config.weight_bits,
            crossbar_bus_bytes: config.crossbar_bus_bytes,
            timesteps: config.timesteps,
        }
    }

    /// The inner-join unit (exposed for component-level studies).
    pub fn join_unit(&self) -> &InnerJoinUnit {
        &self.join_unit
    }

    /// Cycles to stream a fiber-B payload of `nnz` weights over the
    /// crossbar into the weight buffer. Payloads larger than the buffer are
    /// streamed in rounds; the transfer count is unchanged, so the cost
    /// model is simply bandwidth-bound.
    pub fn b_load_cycles(&self, nnz: usize) -> u64 {
        let bytes = (nnz * self.weight_bits).div_ceil(8) as u64;
        bytes.div_ceil(self.crossbar_bus_bytes as u64)
    }

    /// Processes one output neuron: inner-join `fiber_a` (row of `A`) with
    /// `fiber_b` (column of `B`), then fire the P-LIF.
    ///
    /// # Panics
    ///
    /// Panics when fiber lengths disagree.
    pub fn process(
        &self,
        fiber_a: &SpikeFiber,
        fiber_b: &WeightFiber,
        lif: LifParams,
    ) -> TppeOutcome {
        self.process_with(fiber_a, fiber_b, lif, &mut JoinScratch::new(self.timesteps))
    }

    /// [`Tppe::process`] with caller-provided join scratch, reused across
    /// output neurons (the verified datapath's hot loop).
    ///
    /// # Panics
    ///
    /// Panics when fiber lengths disagree.
    pub fn process_with(
        &self,
        fiber_a: &SpikeFiber,
        fiber_b: &WeightFiber,
        lif: LifParams,
        scratch: &mut JoinScratch,
    ) -> TppeOutcome {
        let join = self.join_unit.join_with(fiber_a, fiber_b, scratch);
        let plif = ParallelLif::new(lif, self.timesteps).fire(&join.sums);
        let b_load_cycles = self.b_load_cycles(fiber_b.nnz());
        let compute_cycles = join.cycles + 1; // P-LIF one-shot
        TppeOutcome {
            join,
            plif,
            b_load_cycles,
            compute_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loas_sparse::PackedSpikes;

    fn tppe() -> Tppe {
        Tppe::new(&LoasConfig::table3())
    }

    fn sample_fibers() -> (SpikeFiber, WeightFiber) {
        let mut row = vec![PackedSpikes::silent(4).unwrap(); 16];
        row[1] = PackedSpikes::from_bits(0b1111, 4).unwrap();
        row[9] = PackedSpikes::from_bits(0b0101, 4).unwrap();
        let fa = SpikeFiber::from_packed_row(&row);
        let mut dense = vec![0i8; 16];
        dense[1] = 4;
        dense[9] = 100;
        dense[12] = -3;
        (fa, WeightFiber::from_weights(&dense))
    }

    #[test]
    fn process_produces_exact_spikes() {
        let (fa, fb) = sample_fibers();
        let lif = LifParams::new(50, 0);
        let out = tppe().process(&fa, &fb, lif);
        // sums: t0: 104, t1: 4, t2: 104, t3: 4
        assert_eq!(out.join.sums, vec![104, 4, 104, 4]);
        // v_th = 50, no leak: t0 fires (104) and resets; t1 integrates 4;
        // t2 fires (108) and resets; t3 leaves U = 4.
        assert_eq!(out.plif.spikes.to_vec(), vec![true, false, true, false]);
        assert_eq!(out.plif.membrane, 4);
        assert_eq!(out.compute_cycles, out.join.cycles + 1);
    }

    #[test]
    fn b_load_bandwidth_model() {
        let t = tppe();
        assert_eq!(t.b_load_cycles(0), 0);
        assert_eq!(t.b_load_cycles(16), 1); // 16 bytes over a 16-byte bus
        assert_eq!(t.b_load_cycles(17), 2);
    }

    #[test]
    fn silent_row_outputs_nothing() {
        let fa = SpikeFiber::from_packed_row(&[PackedSpikes::silent(4).unwrap(); 8]);
        let mut dense = vec![0i8; 8];
        dense[3] = 7;
        let fb = WeightFiber::from_weights(&dense);
        let out = tppe().process(&fa, &fb, LifParams::new(1, 0));
        assert!(out.plif.spikes.is_silent());
        assert_eq!(out.join.matches, 0);
    }
}
