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

/// Configuration of a LoAS instance. Defaults reproduce Table III:
/// 16 TPPEs, 8-bit weights, 256 KB 16-bank 16-way global cache, 16×16
/// swizzle-switch crossbars, 128 GB/s HBM, fast prefix-sum in 1 cycle,
/// laggy prefix-sum with 16 adders over 128-bit buffers (8 cycles), depth-8
/// FIFOs, 128-byte TPPE weight buffer, and T = 4 timesteps.
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
    pub tppes: usize,
    /// Timesteps supported in parallel (accumulator lanes per TPPE).
    pub timesteps: usize,
    /// Weight precision in bits.
    pub weight_bits: usize,
    /// Bitmask buffer width in bits (chunk size streamed through the
    /// inner-join).
    pub bitmask_bits: usize,
    /// Adders in the laggy prefix-sum circuit.
    pub laggy_adders: usize,
    /// Depth of FIFO-mp / FIFO-B.
    pub fifo_depth: usize,
    /// TPPE weight buffer capacity in bytes.
    pub weight_buffer_bytes: usize,
    /// Global cache capacity in bytes.
    pub cache_bytes: usize,
    /// Global cache banks.
    pub cache_banks: usize,
    /// Global cache associativity.
    pub cache_ways: usize,
    /// Global cache line size in bytes.
    pub cache_line_bytes: usize,
    /// Off-chip bandwidth in GB/s, at least 1 (the lowest bandwidth sweep
    /// point is 16): far lower bandwidths saturate the cycle count.
    pub hbm_gbps: f64,
    /// Off-chip channels, at least 1. Accepted, checked and hashed into
    /// the content key, but it changes no report: the roofline models
    /// only the aggregate bandwidth `hbm_gbps`, whatever the channel count.
    pub hbm_channels: usize,
    /// Crossbar per-beat bus width in bytes.
    pub crossbar_bus_bytes: usize,
    /// Whether the runtime compressor discards output neurons with 0 or 1
    /// spikes (the fine-tuned-preprocessing execution mode, Section V).
    pub discard_low_activity_outputs: bool,
    /// Whether timesteps are processed in parallel (FTP, the paper's
    /// contribution) or sequentially on the same hardware — the dataflow
    /// ablation `repro ablations` runs on V-L8. Default: true.
    pub temporal_parallel: bool,
    /// Whether the inner-join uses two fast prefix-sum circuits
    /// (SparTen-style) instead of the FTP-friendly fast + laggy pair — the
    /// inner-join ablation. Two fast circuits remove the correction tail
    /// and FIFO backpressure but roughly double the prefix-sum area/power
    /// (Section IV-C). Default: false (fast + laggy).
    pub two_fast_prefix: bool,
}

impl LoasConfig {
    /// The Table III configuration.
    pub fn table3() -> Self {
        LoasConfig {
            tppes: 16,
            timesteps: 4,
            weight_bits: 8,
            bitmask_bits: 128,
            laggy_adders: 16,
            fifo_depth: 8,
            weight_buffer_bytes: 128,
            cache_bytes: 256 * 1024,
            cache_banks: 16,
            cache_ways: 16,
            cache_line_bytes: 64,
            hbm_gbps: 128.0,
            hbm_channels: 16,
            crossbar_bus_bytes: 16,
            discard_low_activity_outputs: false,
            temporal_parallel: true,
            two_fast_prefix: false,
        }
    }

    /// A builder starting from the Table III defaults.
    pub fn builder() -> LoasConfigBuilder {
        LoasConfigBuilder {
            config: Self::table3(),
        }
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

    /// Absorbs every configuration field into a stable content hash, so
    /// memoization keys distinguish any two configurations that could
    /// simulate differently.
    pub fn write_content(&self, hasher: &mut crate::ContentHasher) {
        hasher.write_usize(self.tppes);
        hasher.write_usize(self.timesteps);
        hasher.write_usize(self.weight_bits);
        hasher.write_usize(self.bitmask_bits);
        hasher.write_usize(self.laggy_adders);
        hasher.write_usize(self.fifo_depth);
        hasher.write_usize(self.weight_buffer_bytes);
        hasher.write_usize(self.cache_bytes);
        hasher.write_usize(self.cache_banks);
        hasher.write_usize(self.cache_ways);
        hasher.write_usize(self.cache_line_bytes);
        hasher.write_f64(self.hbm_gbps);
        hasher.write_usize(self.hbm_channels);
        hasher.write_usize(self.crossbar_bus_bytes);
        hasher.write_bool(self.discard_low_activity_outputs);
        hasher.write_bool(self.temporal_parallel);
        hasher.write_bool(self.two_fast_prefix);
    }
}

impl Default for LoasConfig {
    fn default() -> Self {
        Self::table3()
    }
}

// Field introspection: order mirrors `write_content` exactly (LoAS's
// memo key hashes these values raw, its legacy layout).
crate::impl_model_config!(LoasConfig, "loas", {
    tppes: usize,
    timesteps: usize,
    weight_bits: usize,
    bitmask_bits: usize,
    laggy_adders: usize,
    fifo_depth: usize,
    weight_buffer_bytes: usize,
    cache_bytes: usize,
    cache_banks: usize,
    cache_ways: usize,
    cache_line_bytes: usize,
    hbm_gbps: f64,
    hbm_channels: usize,
    crossbar_bus_bytes: usize,
    discard_low_activity_outputs: bool,
    temporal_parallel: bool,
    two_fast_prefix: bool,
});

/// Builder for [`LoasConfig`] (non-consuming terminal, Table III defaults).
#[derive(Debug, Clone)]
pub struct LoasConfigBuilder {
    config: LoasConfig,
}

impl LoasConfigBuilder {
    /// Sets the TPPE count.
    pub fn tppes(mut self, tppes: usize) -> Self {
        self.config.tppes = tppes;
        self
    }

    /// Sets the parallel timestep count.
    pub fn timesteps(mut self, timesteps: usize) -> Self {
        self.config.timesteps = timesteps;
        self
    }

    /// Sets the global cache capacity in bytes.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Sets the off-chip bandwidth in GB/s.
    pub fn hbm_gbps(mut self, gbps: f64) -> Self {
        self.config.hbm_gbps = gbps;
        self
    }

    /// Enables runtime discarding of 0/1-spike output neurons.
    pub fn discard_low_activity_outputs(mut self, enable: bool) -> Self {
        self.config.discard_low_activity_outputs = enable;
        self
    }

    /// Selects parallel (FTP) or sequential timestep processing (ablation).
    pub fn temporal_parallel(mut self, enable: bool) -> Self {
        self.config.temporal_parallel = enable;
        self
    }

    /// Selects the two-fast-prefix-sum inner-join variant (ablation).
    pub fn two_fast_prefix(mut self, enable: bool) -> Self {
        self.config.two_fast_prefix = enable;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values (zero TPPEs, zero timesteps, timesteps
    /// beyond the packed-word limit — see [`LoasConfig::check`]).
    pub fn build(self) -> LoasConfig {
        if let Err(message) = self.config.check() {
            panic!("{message}");
        }
        self.config
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
