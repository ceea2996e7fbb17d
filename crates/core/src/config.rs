//! LoAS configuration (Table III).

/// Checks a model's precision fields: weights of 1 to 32 bits and, for a
/// model with psums, psums of 1 to 8 bytes. Fiber sizes and cache
/// footprints grow with them, so an unbounded value from a spec would
/// stall a simulation.
///
/// # Errors
///
/// A message naming the field out of range.
pub fn check_precision(weight_bits: usize, psum_bytes: Option<usize>) -> Result<(), String> {
    if !(1..=32).contains(&weight_bits) {
        return Err("weight_bits must be in 1..=32".to_owned());
    }
    if psum_bytes.is_some_and(|bytes| !(1..=8).contains(&bytes)) {
        return Err("psum_bytes must be in 1..=8".to_owned());
    }
    Ok(())
}

crate::model_config! {
    model = "loas", builder = LoasConfigBuilder;
    /// Configuration of a LoAS instance. Defaults reproduce Table III:
    /// 16 TPPEs, 8-bit weights, 256 KB 16-bank 16-way global cache, 16×16
    /// swizzle-switch crossbars, 128 GB/s HBM, fast prefix-sum in 1 cycle,
    /// laggy prefix-sum with 16 adders over 128-bit buffers (8 cycles),
    /// depth-8 FIFOs, 128-byte TPPE weight buffer, and T = 4 timesteps.
    ///
    /// # Examples
    ///
    /// ```
    /// use loas_core::LoasConfig;
    ///
    /// let config = LoasConfig::builder().tppes(32).timesteps(8).build();
    /// assert_eq!(config.tppes, 32);
    /// assert_eq!(config.timesteps, 8);
    /// assert_eq!(config.laggy_latency_cycles(), 8);
    /// ```
    #[derive(Debug, Clone, PartialEq)]
    pub struct LoasConfig {
        /// Number of temporal-parallel processing elements.
        pub tppes: usize = 16,
        /// Timesteps supported in parallel (accumulator lanes per TPPE).
        pub timesteps: usize = 4,
        /// Weight precision in bits.
        pub weight_bits: usize = 8,
        /// Bitmask buffer width in bits (chunk size streamed through the
        /// inner-join).
        pub bitmask_bits: usize = 128,
        /// Adders in the laggy prefix-sum circuit.
        pub laggy_adders: usize = 16,
        /// Depth of FIFO-mp / FIFO-B.
        pub fifo_depth: usize = 8,
        /// TPPE weight buffer capacity in bytes.
        pub weight_buffer_bytes: usize = 128,
        /// Global cache capacity in bytes.
        pub cache_bytes: usize = 256 * 1024,
        /// Global cache banks.
        pub cache_banks: usize = 16,
        /// Global cache associativity.
        pub cache_ways: usize = 16,
        /// Global cache line size in bytes.
        pub cache_line_bytes: usize = 64,
        /// Off-chip bandwidth in GB/s, at least 1 (the lowest bandwidth
        /// sweep point is 16): far lower bandwidths saturate the cycle
        /// count.
        pub hbm_gbps: f64 = 128.0,
        /// Off-chip channels, at least 1. Accepted, checked and hashed into
        /// the content key, but it changes no report: the roofline models
        /// only the aggregate bandwidth `hbm_gbps`, whatever the channel
        /// count.
        pub hbm_channels: usize = 16,
        /// Crossbar per-beat bus width in bytes.
        pub crossbar_bus_bytes: usize = 16,
        /// Whether the runtime compressor discards output neurons with 0 or
        /// 1 spikes (the fine-tuned-preprocessing execution mode, Section V).
        pub discard_low_activity_outputs: bool = false,
        /// Whether timesteps are processed in parallel (FTP, the paper's
        /// contribution) or sequentially on the same hardware — the
        /// dataflow ablation `repro ablations` runs on V-L8. Default: true.
        pub temporal_parallel: bool = true,
        /// Whether the inner-join uses two fast prefix-sum circuits
        /// (SparTen-style) instead of the FTP-friendly fast + laggy pair —
        /// the inner-join ablation. Two fast circuits remove the correction
        /// tail and FIFO backpressure but roughly double the prefix-sum
        /// area/power (Section IV-C). Default: false (fast + laggy).
        pub two_fast_prefix: bool = false,
    }
}

impl LoasConfig {
    /// The Table III configuration.
    pub fn table3() -> Self {
        Self::default()
    }

    /// Checks the cross-field invariants the simulator relies on (the
    /// builder panics on violations; the serve spec parser surfaces them
    /// as schema errors).
    ///
    /// # Errors
    ///
    /// A message naming the first degenerate field.
    pub fn check(&self) -> Result<(), String> {
        if self.tppes == 0 {
            return Err("need at least one TPPE".to_owned());
        }
        if self.timesteps == 0 || self.timesteps > loas_sparse::MAX_TIMESTEPS {
            return Err(format!(
                "timesteps must be in 1..={}",
                loas_sparse::MAX_TIMESTEPS
            ));
        }
        if self.laggy_adders == 0 {
            return Err("laggy prefix-sum needs adders".to_owned());
        }
        if self.bitmask_bits == 0 {
            return Err("degenerate bitmask width".to_owned());
        }
        if self.hbm_gbps.is_nan() || self.hbm_gbps < 1.0 {
            return Err("off-chip bandwidth must be at least 1 GB/s".to_owned());
        }
        if self.hbm_channels == 0 {
            return Err("need at least one off-chip channel".to_owned());
        }
        if self.crossbar_bus_bytes == 0 {
            return Err("degenerate crossbar bus width".to_owned());
        }
        check_precision(self.weight_bits, None)?;
        loas_sim::check_cache_geometry(
            self.cache_bytes,
            self.cache_line_bytes,
            self.cache_ways,
            self.cache_banks,
        )
    }

    /// Checks that the workload's `t` equals `timesteps`, to which the
    /// TPPEs' accumulator lanes are fixed (Section IV).
    ///
    /// # Errors
    ///
    /// A message naming both timestep counts.
    pub fn check_workload(&self, shape: &loas_workloads::LayerShape) -> Result<(), String> {
        if shape.t != self.timesteps {
            return Err(format!(
                "LoAS runs {} timesteps, its workload t = {}",
                self.timesteps, shape.t
            ));
        }
        Ok(())
    }

    /// Laggy prefix-sum latency over one bitmask chunk:
    /// `bitmask_bits / laggy_adders` cycles (8 with Table III values).
    pub fn laggy_latency_cycles(&self) -> u64 {
        (self.bitmask_bits as u64).div_ceil(self.laggy_adders as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let c = LoasConfig::table3();
        assert_eq!(c.tppes, 16);
        assert_eq!(c.timesteps, 4);
        assert_eq!(c.cache_bytes, 256 * 1024);
        assert_eq!(c.cache_banks, 16);
        assert_eq!(c.cache_ways, 16);
        assert!((c.hbm_gbps - 128.0).abs() < 1e-12);
        assert_eq!(c.hbm_channels, 16);
        assert_eq!(c.laggy_latency_cycles(), 8);
    }

    #[test]
    fn laggy_latency_rounds_up() {
        // The one laggy prefix-sum latency: a partial adder sweep costs a
        // whole cycle.
        let latency = |bitmask_bits, laggy_adders| {
            LoasConfig {
                bitmask_bits,
                laggy_adders,
                ..LoasConfig::table3()
            }
            .laggy_latency_cycles()
        };
        assert_eq!(latency(128, 16), 8);
        assert_eq!(latency(100, 16), 7);
        assert_eq!(latency(1, 16), 1);
    }

    #[test]
    fn builder_overrides() {
        let c = LoasConfig::builder()
            .tppes(8)
            .timesteps(16)
            .cache_bytes(1024)
            .hbm_gbps(64.0)
            .discard_low_activity_outputs(true)
            .build();
        assert_eq!(c.tppes, 8);
        assert_eq!(c.timesteps, 16);
        assert!(c.discard_low_activity_outputs);
    }

    #[test]
    #[should_panic(expected = "timesteps")]
    fn excessive_timesteps_rejected() {
        LoasConfig::builder().timesteps(17).build();
    }

    #[test]
    fn simulator_preconditions_are_checked() {
        let bad = [
            LoasConfig {
                hbm_channels: 0,
                ..LoasConfig::table3()
            },
            LoasConfig {
                cache_bytes: 1 << 40,
                ..LoasConfig::table3()
            },
            LoasConfig {
                cache_ways: usize::MAX,
                ..LoasConfig::table3()
            },
            LoasConfig {
                weight_bits: 0,
                ..LoasConfig::table3()
            },
            LoasConfig {
                weight_bits: 33,
                ..LoasConfig::table3()
            },
        ];
        for config in bad {
            assert!(config.check().is_err(), "{config:?}");
        }
    }
}
