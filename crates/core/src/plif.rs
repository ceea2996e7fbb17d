//! The parallel LIF unit (P-LIF, Fig. 7).
//!
//! FTP produces the full sums `O[m, n, t]` for *all* timesteps of one output
//! neuron at once, so the LIF recurrence (Eqs. 2-3) collapses to a short,
//! spatially-unrolled chain over `T` lanes: lane `t` adds the carried
//! membrane potential from lane `t-1`, compares against `v_th`, and either
//! fires (hard reset) or leaks the potential (a shift) into the next lane.
//! All `T` output spikes emerge "in one shot" — one P-LIF pass per output
//! neuron — instead of `T` sequential LIF invocations.
//!
//! The unit is bit-exact with the sequential golden model
//! [`LifParams::run`]; a property test enforces this.

use loas_snn::LifParams;
use loas_sparse::PackedSpikes;

/// The result of one P-LIF pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlifOutcome {
    /// Output spikes for all timesteps, packed.
    pub spikes: PackedSpikes,
    /// Final membrane potential `U[T-1]`.
    pub membrane: i32,
}

/// A spatially-unrolled parallel LIF unit with `lanes` timestep lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelLif {
    params: LifParams,
    lanes: usize,
}

impl ParallelLif {
    /// Creates a P-LIF with the given neuron parameters and lane count.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or exceeds the packed-word limit.
    pub fn new(params: LifParams, lanes: usize) -> Self {
        assert!(
            lanes > 0 && lanes <= loas_sparse::MAX_TIMESTEPS,
            "P-LIF lanes must be in 1..={}",
            loas_sparse::MAX_TIMESTEPS
        );
        ParallelLif { params, lanes }
    }

    /// Number of timestep lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The LIF parameters.
    pub fn params(&self) -> LifParams {
        self.params
    }

    /// Generates all output spikes for one neuron in one shot.
    ///
    /// # Panics
    ///
    /// Panics when `sums.len() != lanes`.
    pub fn fire(&self, sums: &[i64]) -> PlifOutcome {
        assert_eq!(sums.len(), self.lanes, "one sum per lane required");
        // The unrolled chain: lane t's adder combines O[t] with the carried
        // potential, the v-checker compares, the shifter leaks (Fig. 7).
        let mut membrane = 0i32;
        let mut spikes = PackedSpikes::silent(self.lanes).expect("lanes within packed range");
        for (t, &o) in sums.iter().enumerate() {
            let (fired, next) = self.params.step(o as i32, membrane);
            if fired {
                spikes.set(t, true);
            }
            membrane = next;
        }
        PlifOutcome { spikes, membrane }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_lif() {
        let params = LifParams::new(4, 1);
        let plif = ParallelLif::new(params, 4);
        let sums = [5i64, 1, 3, 9];
        let out = plif.fire(&sums);
        let inputs: Vec<i32> = sums.iter().map(|&s| s as i32).collect();
        let (expected, u) = params.run(&inputs);
        assert_eq!(out.spikes.to_vec(), expected);
        assert_eq!(out.membrane, u);
    }

    #[test]
    fn one_shot_produces_all_timesteps() {
        let plif = ParallelLif::new(LifParams::new(0, 0), 8);
        let out = plif.fire(&[1; 8]);
        assert!(out.spikes.is_all_ones());
    }

    #[test]
    fn membrane_chains_through_lanes() {
        // Threshold 5, no leak: 3, 3 -> second lane fires from carried 3+3.
        let plif = ParallelLif::new(LifParams::new(5, 0), 2);
        let out = plif.fire(&[3, 3]);
        assert_eq!(out.spikes.to_vec(), vec![false, true]);
        assert_eq!(out.membrane, 0, "hard reset after firing");
    }

    #[test]
    #[should_panic(expected = "one sum per lane")]
    fn wrong_lane_count_panics() {
        ParallelLif::new(LifParams::default(), 4).fire(&[0; 3]);
    }

    #[test]
    #[should_panic(expected = "lanes must be in")]
    fn zero_lanes_rejected() {
        ParallelLif::new(LifParams::default(), 0);
    }
}
