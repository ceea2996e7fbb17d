//! The output-side compressor (Section IV-D).
//!
//! Output spikes from the P-LIF units are re-compressed into the same
//! packed-fiber format before being written back, so the next layer can be
//! consumed by the FTP dataflow directly. Following SparTen's observation
//! that output compression is off the critical path, LoAS uses an *inverted
//! laggy* prefix-sum for this step. When the fine-tuned-preprocessing
//! execution mode is on, the compressor also discards output neurons that
//! fired at most once (Section V: "the compressor will discard the output
//! neurons that have 0 or only 1 output spike").

use crate::config::LoasConfig;
use loas_sparse::{PackedSpikes, SpikeFiber, POINTER_BITS};

/// The result of compressing one output row.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedRow {
    /// The compressed fiber (bitmask over kept neurons + packed words).
    pub fiber: SpikeFiber,
    /// Cycles spent in the inverted laggy prefix-sum.
    pub cycles: u64,
    /// Bits written back (payload + bitmask + pointer).
    pub bits_written: u64,
    /// Output neurons discarded by the low-activity filter.
    pub discarded: u64,
}

/// The output compressor shared by all TPPEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compressor {
    group_bits: usize,
    laggy_latency: u64,
    timesteps: usize,
    discard_low_activity: bool,
}

impl Compressor {
    /// Builds the compressor from the LoAS configuration.
    pub fn new(config: &LoasConfig) -> Self {
        Compressor {
            group_bits: config.bitmask_bits,
            laggy_latency: config.laggy_latency_cycles(),
            timesteps: config.timesteps,
            discard_low_activity: config.discard_low_activity_outputs,
        }
    }

    /// Compresses the output words of one row of `C` (one word per output
    /// neuron, in column order).
    pub fn compress_row(&self, words: &[PackedSpikes]) -> CompressedRow {
        let mut kept: Vec<PackedSpikes> = words.to_vec();
        let mut discarded = 0u64;
        if self.discard_low_activity {
            for w in &mut kept {
                if !w.is_silent() && w.fires_at_most_once() {
                    discarded += 1;
                    *w = PackedSpikes::silent(self.timesteps).expect("lanes in range");
                }
            }
        }
        let fiber = SpikeFiber::from_packed_row(&kept);
        // The inverted laggy prefix-sum sweeps the row in bitmask-width
        // groups, `laggy_latency` cycles each; it overlaps the next row's
        // compute, so these cycles are reported but rarely exposed.
        let groups = words.len().div_ceil(self.group_bits).max(1) as u64;
        let bits_written =
            (fiber.nnz() * self.timesteps + fiber.bitmask().storage_bits() + POINTER_BITS) as u64;
        CompressedRow {
            fiber,
            cycles: groups * self.laggy_latency,
            bits_written,
            discarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words() -> Vec<PackedSpikes> {
        vec![
            PackedSpikes::from_bits(0b0101, 4).unwrap(), // 2 fires: kept
            PackedSpikes::silent(4).unwrap(),
            PackedSpikes::from_bits(0b0100, 4).unwrap(), // 1 fire
            PackedSpikes::from_bits(0b1111, 4).unwrap(), // 4 fires: kept
        ]
    }

    #[test]
    fn compress_without_discarding() {
        let c = Compressor::new(&LoasConfig::table3());
        let row = c.compress_row(&words());
        assert_eq!(row.fiber.nnz(), 3);
        assert_eq!(row.discarded, 0);
        // 3 words * 4 bits + 4-bit mask + 32-bit pointer.
        assert_eq!(row.bits_written, 12 + 4 + 32);
        assert_eq!(
            row.cycles, 8,
            "one group through the inverted laggy circuit"
        );
    }

    #[test]
    fn discarding_drops_single_fires() {
        let config = LoasConfig::builder()
            .discard_low_activity_outputs(true)
            .build();
        let c = Compressor::new(&config);
        let row = c.compress_row(&words());
        assert_eq!(row.discarded, 1);
        assert_eq!(row.fiber.nnz(), 2);
        assert_eq!(
            row.fiber.bitmask().iter_ones().collect::<Vec<_>>(),
            vec![0, 3]
        );
    }

    #[test]
    fn wide_rows_take_more_groups() {
        let c = Compressor::new(&LoasConfig::table3());
        let row = c.compress_row(&vec![PackedSpikes::silent(4).unwrap(); 300]);
        assert_eq!(row.cycles, 3 * 8); // ceil(300/128) groups
        assert_eq!(row.fiber.nnz(), 0);
    }
}
