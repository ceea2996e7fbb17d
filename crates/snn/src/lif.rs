//! The Leaky-Integrate-and-Fire (LIF) neuron model (Section II-A).
//!
//! The paper's layer semantics are (Eqs. 1-3):
//!
//! ```text
//! O[m,n,t]  = Σ_k A[m,k,t] · B[k,n]                   (spMspM, step 1)
//! X[m,n,t]  = O[m,n,t] + U[m,n,t-1]
//! C[m,n,t]  = 1 if X[m,n,t] > v_th else 0             (firing, step 2)
//! U[m,n,t]  = τ · X[m,n,t] · (1 − C[m,n,t])           (hard reset, step 3)
//! ```
//!
//! The reset is always hard: a spike zeroes the membrane potential. That
//! is the paper's choice (its footnote 2: other reset schemes exist, and
//! "sticking with one of them will not lose generality in the hardware
//! design"), and the only one the P-LIF unit of Fig. 7 implements, so the
//! golden layer and LoAS's verified datapath share it. The leak
//! `τ ∈ (0, 1)` is a power-of-two arithmetic right shift
//! (`τ = 2^-leak_shift`), which is both what fixed-point accelerators (and
//! the P-LIF's shifters) implement and bit-exactly reproducible.

/// Parameters of a LIF neuron.
///
/// # Examples
///
/// ```
/// use loas_snn::LifParams;
///
/// let lif = LifParams::new(4, 1); // v_th = 4, τ = 1/2
/// let (spikes, _) = lif.run(&[5, 1, 2, 9]);
/// assert_eq!(spikes, vec![true, false, false, true]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LifParams {
    /// Firing threshold `v_th` (a pre-defined scalar, Section II-A).
    pub v_threshold: i32,
    /// Leak expressed as a right shift: `τ = 2^-leak_shift`. A shift of 0
    /// means no leak (integrate-and-fire).
    pub leak_shift: u32,
}

impl LifParams {
    /// Creates LIF parameters with the given threshold and leak shift.
    pub fn new(v_threshold: i32, leak_shift: u32) -> Self {
        LifParams {
            v_threshold,
            leak_shift,
        }
    }

    /// One timestep of LIF dynamics: returns `(spike, new_membrane)` from
    /// the incoming accumulated current `input` (the spMspM full-sum
    /// `O[m,n,t]`) and the carried membrane potential `u_prev`.
    pub fn step(&self, input: i32, u_prev: i32) -> (bool, i32) {
        let x = input.saturating_add(u_prev);
        if x > self.v_threshold {
            (true, 0)
        } else {
            (false, x >> self.leak_shift)
        }
    }

    /// Runs the neuron over a full timestep window, returning the output
    /// spike train and the final membrane potential. This is the sequential
    /// golden model the spatially-unrolled P-LIF unit must match bit-exactly.
    pub fn run(&self, inputs: &[i32]) -> (Vec<bool>, i32) {
        let mut u = 0i32;
        let mut spikes = Vec::with_capacity(inputs.len());
        for &o in inputs {
            let (c, u_next) = self.step(o, u);
            spikes.push(c);
            u = u_next;
        }
        (spikes, u)
    }
}

impl Default for LifParams {
    /// The defaults used across the evaluation workloads: threshold 1 in
    /// accumulator units and `τ = 1/2` (the common direct-coded SNN choice).
    fn default() -> Self {
        LifParams::new(1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_above_threshold_and_hard_resets() {
        let lif = LifParams::new(3, 0);
        let (spike, u) = lif.step(5, 0);
        assert!(spike);
        assert_eq!(u, 0, "hard reset zeroes the membrane");
    }

    #[test]
    fn subthreshold_integrates_with_leak() {
        let lif = LifParams::new(10, 1); // τ = 1/2
        let (s1, u1) = lif.step(4, 0);
        assert!(!s1);
        assert_eq!(u1, 2); // 4 >> 1
        let (s2, u2) = lif.step(4, u1);
        assert!(!s2);
        assert_eq!(u2, 3); // (4 + 2) >> 1
    }

    #[test]
    fn threshold_is_strict() {
        // Eq. 2 fires only when X > v_th, not >=.
        let lif = LifParams::new(4, 0);
        let (spike, u) = lif.step(4, 0);
        assert!(!spike);
        assert_eq!(u, 4);
    }

    #[test]
    fn membrane_carries_across_timesteps() {
        let lif = LifParams::new(5, 0); // no leak
        let (spikes, u) = lif.run(&[3, 3, 3]);
        // u: 3, 6 -> fire+reset, 3
        assert_eq!(spikes, vec![false, true, false]);
        assert_eq!(u, 3);
    }

    #[test]
    fn negative_inputs_leak_toward_negative() {
        let lif = LifParams::new(3, 1);
        let (spike, u) = lif.step(-5, 0);
        assert!(!spike);
        // Arithmetic shift: -5 >> 1 == -3 (rounds toward -inf); documented
        // fixed-point behaviour.
        assert_eq!(u, -3);
    }

    #[test]
    fn saturating_add_prevents_overflow_panic() {
        let lif = LifParams::new(0, 0);
        let (spike, _) = lif.step(i32::MAX, 5);
        assert!(spike);
    }
}
