//! Sparsity profiles and the firing-model calibration.
//!
//! Table II characterises each workload by three spike statistics —
//! `AvSpA-origin` (per-timestep spike sparsity), `AvSpA-packed` (silent
//! neuron fraction), and `AvSpA-packed+FT` (silent fraction after masking
//! fire-once neurons) — plus the weight sparsity `AvSpB`. Real SNN firing is
//! over-dispersed (these three numbers cannot be produced by an i.i.d.
//! Bernoulli model), so the generator uses a three-category neuron mixture:
//!
//! * **silent** with probability `s` (never fires);
//! * **fire-once** with probability `l = silent_ft − silent` (fires at
//!   exactly one uniformly chosen timestep — the neurons the fine-tuned
//!   preprocessing removes);
//! * **active** with probability `a = 1 − silent_ft`, whose spike count is
//!   Binomial(`T`, `p`) conditioned on at least two fires, with `p` solved
//!   by bisection so the total spike density matches `1 − origin`.
//!
//! This hits all three Table II statistics simultaneously and exactly (in
//! expectation).

use crate::draw::below;
use crate::error::WorkloadError;
use loas_sparse::MAX_TIMESTEPS;

/// The sparsity statistics of a dual-sparse workload (fractions in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityProfile {
    /// `AvSpA-origin`: fraction of zero spike bits over `M·K·T`.
    pub spike_origin: f64,
    /// `AvSpA-packed`: fraction of silent neurons over `M·K`.
    pub silent: f64,
    /// `AvSpA-packed+FT`: silent fraction after fine-tuned preprocessing.
    pub silent_ft: f64,
    /// `AvSpB`: fraction of zero weights.
    pub weight: f64,
}

impl SparsityProfile {
    /// Creates a profile from percentages as printed in Table II.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] when any percentage is outside `[0, 100]`
    /// or the values are mutually inconsistent (`silent_ft < silent`).
    pub fn from_percentages(
        spike_origin: f64,
        silent: f64,
        silent_ft: f64,
        weight: f64,
    ) -> Result<Self, WorkloadError> {
        check_fields([spike_origin, silent, silent_ft, weight], 100.0)?;
        if silent_ft < silent {
            return Err(WorkloadError::InfeasibleProfile {
                reason: format!(
                    "silent_ft ({silent_ft}%) below silent ({silent}%): preprocessing cannot reduce silence"
                ),
            });
        }
        Ok(SparsityProfile {
            spike_origin: spike_origin / 100.0,
            silent: silent / 100.0,
            silent_ft: silent_ft / 100.0,
            weight: weight / 100.0,
        })
    }

    /// Overall spike density `1 − origin`.
    pub fn spike_density(&self) -> f64 {
        1.0 - self.spike_origin
    }

    /// Solves the three-category firing model for `t` timesteps.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InfeasibleProfile`] when the statistics are
    /// unreachable (e.g. density outside what the mixture can express).
    pub fn firing_model(&self, t: usize) -> Result<FiringModel, WorkloadError> {
        FiringModel::solve(self, t)
    }
}

/// The calibrated per-neuron firing model (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FiringModel {
    timesteps: usize,
    silent_p: f64,
    once_p: f64,
    /// Conditional probability mass over spike counts `2..=T` for active
    /// neurons.
    active_count_pmf: Vec<f64>,
    bernoulli_p: f64,
}

impl FiringModel {
    /// Checks what [`FiringModel::solve`] requires before it solves, and
    /// allocates nothing when it passes: every profile fraction in `[0, 1]`
    /// (a profile built field by field has not been through
    /// [`SparsityProfile::from_percentages`]) and `t` from 1 up to what a
    /// packed spike word holds.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::FractionOutOfRange`],
    /// [`WorkloadError::TooManyTimesteps`], or
    /// [`WorkloadError::InfeasibleProfile`] for `t = 0`.
    pub fn check(profile: &SparsityProfile, t: usize) -> Result<(), WorkloadError> {
        let p = profile;
        check_fields([p.spike_origin, p.silent, p.silent_ft, p.weight], 1.0)?;
        if t > MAX_TIMESTEPS {
            return Err(WorkloadError::TooManyTimesteps {
                timesteps: t,
                max: MAX_TIMESTEPS,
            });
        }
        if t == 0 {
            return Err(WorkloadError::InfeasibleProfile {
                reason: "zero timesteps".to_owned(),
            });
        }
        Ok(())
    }

    /// Solves the model for a profile at `t` timesteps.
    ///
    /// # Errors
    ///
    /// Every error of [`FiringModel::check`], and
    /// [`WorkloadError::InfeasibleProfile`] when no Bernoulli parameter can
    /// reach the requested density.
    pub fn solve(profile: &SparsityProfile, t: usize) -> Result<Self, WorkloadError> {
        Self::check(profile, t)?;
        let s = profile.silent;
        let l = profile.silent_ft - profile.silent;
        let a = 1.0 - profile.silent_ft;
        let density = profile.spike_density();
        if t == 1 {
            // A one-timestep window: packed view == per-timestep view, so
            // the silent fraction is exactly the origin sparsity and every
            // non-silent neuron fires exactly once.
            return Ok(FiringModel {
                timesteps: 1,
                silent_p: profile.spike_origin,
                once_p: density,
                active_count_pmf: vec![],
                bernoulli_p: 0.0,
            });
        }
        let expected_fires = density * t as f64; // per neuron
        if a <= 1e-12 {
            // No active neurons: all spikes come from fire-once neurons.
            if (expected_fires - l).abs() > 0.02 {
                return Err(WorkloadError::InfeasibleProfile {
                    reason: format!(
                        "no active neurons but density requires {expected_fires:.3} fires/neuron vs {l:.3} from fire-once"
                    ),
                });
            }
            return Ok(FiringModel {
                timesteps: t,
                silent_p: s,
                once_p: l,
                active_count_pmf: vec![],
                bernoulli_p: 0.0,
            });
        }
        let e2_target = (expected_fires - l) / a;
        if t >= 2 && !(2.0 - 1e-9..=t as f64 + 1e-9).contains(&e2_target) {
            return Err(WorkloadError::InfeasibleProfile {
                reason: format!(
                    "active neurons would need {e2_target:.3} mean fires, outside [2, {t}]"
                ),
            });
        }
        // Bisection on p: E[X | X >= 2] is monotone increasing in p.
        let (mut lo, mut hi) = (1e-9, 1.0 - 1e-9);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if conditional_mean_ge2(t, mid) < e2_target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let p = 0.5 * (lo + hi);
        let pmf = conditional_pmf_ge2(t, p);
        Ok(FiringModel {
            timesteps: t,
            silent_p: s,
            once_p: l,
            active_count_pmf: pmf,
            bernoulli_p: p,
        })
    }

    /// Number of timesteps the model covers.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Probability a neuron is silent.
    pub fn silent_p(&self) -> f64 {
        self.silent_p
    }

    /// Probability a neuron fires exactly once.
    pub fn once_p(&self) -> f64 {
        self.once_p
    }

    /// The solved Bernoulli parameter for active neurons.
    pub fn bernoulli_p(&self) -> f64 {
        self.bernoulli_p
    }

    /// The spike-count sampler of this model, on 53-bit unit draws.
    pub(crate) fn count_sampler(&self) -> CountSampler {
        let mut active = [0; MAX_TIMESTEPS - 1];
        let mut acc = 0.0;
        for (threshold, &p) in active.iter_mut().zip(&self.active_count_pmf) {
            acc += p;
            *threshold = below(acc);
        }
        CountSampler {
            silent: below(self.silent_p),
            quiet: below(self.silent_p + self.once_p),
            active,
            most: self.active_count_pmf.len() + 1,
        }
    }
}

/// Draws a neuron's spike count from two 53-bit unit draws, a category
/// draw and a count draw, as integer compares against thresholds built
/// once per [`FiringModel`] (see [`crate::draw`]).
///
/// A neuron is silent below the silent threshold, fires once below the
/// quiet one, and is otherwise active: it fires `2 + j` times, `j` being
/// how many cumulative pmf thresholds the count draw reaches, capped at
/// `T` (or at 1 when the model has no active counts). The category costs
/// no branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CountSampler {
    silent: u64,
    quiet: u64,
    /// Per active count `2..=T`, the draws below its cumulative probability
    /// (the first `most - 1` entries are used).
    active: [u64; MAX_TIMESTEPS - 1],
    /// The largest count: `T`, or 1 for a model without active counts.
    most: usize,
}

impl CountSampler {
    /// The spike count for a category draw and a count draw.
    #[inline]
    pub(crate) fn sample(&self, category: u64, count: u64) -> usize {
        let fires = (category >= self.silent) as usize;
        let active = (category >= self.quiet) as usize;
        let thresholds = &self.active[..self.most - 1];
        let reached: usize = thresholds.iter().map(|&t| (count >= t) as usize).sum();
        let active_count = (2 + reached).min(self.most);
        fires * (1 + active * (active_count - 1))
    }
}

/// Extrapolates silent-neuron statistics to other timestep counts
/// (Fig. 16(b), Fig. 17's T sweep).
///
/// Neuron firing rates are modeled as a three-point mixture fitted to the
/// `T = 4` profile: a *dead* mass (never fires at any window length), a
/// *slow* mass (rate `r_slow`, the neurons whose silence erodes as `T`
/// grows), and a *fast* mass (rate `r_fast`, carrying the bulk of the spike
/// density). The dead share of the observed silent fraction is the
/// `alpha` parameter: larger `alpha` means silence persists longer with
/// growing `T`. The paper publishes no such split; the default 0.6 keeps
/// the `T = 8` silent ratio after FT at no less than 95% of the `T = 4`
/// ratio before it, Fig. 16(b)'s trend
/// (`silent_ratio_declines_with_timesteps`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalScalingModel {
    pi_dead: f64,
    pi_slow: f64,
    r_slow: f64,
    pi_fast: f64,
    r_fast: f64,
    weight: f64,
}

impl TemporalScalingModel {
    /// Default dead share of the silent fraction.
    pub const DEFAULT_ALPHA: f64 = 0.6;

    /// Fits the mixture to a profile calibrated at `t_cal` timesteps.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] for an `alpha` outside `(0, 1)` or an
    /// unsolvable profile.
    pub fn fit(profile: &SparsityProfile, t_cal: usize, alpha: f64) -> Result<Self, WorkloadError> {
        if !(0.0..1.0).contains(&alpha) || alpha <= 0.0 {
            return Err(WorkloadError::FractionOutOfRange {
                name: "alpha",
                value: alpha,
            });
        }
        let t = t_cal as f64;
        let s4 = profile.silent;
        let once4 = (profile.silent_ft - profile.silent).max(0.0);
        let density = profile.spike_density();
        let pi_dead = alpha * s4;
        let slow_silent = (1.0 - alpha) * s4; // pi_slow * (1-r_slow)^t

        // Divide the once-firing identity by the slow-silent identity:
        // t * r / (1 - r) = once4 / slow_silent.
        let ratio = if slow_silent > 1e-12 {
            once4 / slow_silent
        } else {
            0.0
        };
        let r_slow = ratio / (t + ratio);
        let pi_slow = if r_slow < 1.0 {
            slow_silent / (1.0 - r_slow).powf(t)
        } else {
            0.0
        };
        let pi_fast = (1.0 - pi_dead - pi_slow).max(0.0);
        let r_fast = if pi_fast > 1e-12 {
            ((density - pi_slow * r_slow) / pi_fast).clamp(0.0, 1.0)
        } else {
            0.0
        };
        if pi_dead + pi_slow > 1.0 + 1e-9 {
            return Err(WorkloadError::InfeasibleProfile {
                reason: format!("mixture masses exceed 1 (dead {pi_dead:.3} + slow {pi_slow:.3})"),
            });
        }
        Ok(TemporalScalingModel {
            pi_dead,
            pi_slow,
            r_slow,
            pi_fast,
            r_fast,
            weight: profile.weight,
        })
    }

    /// Silent-neuron fraction at window length `t`.
    pub fn silent_at(&self, t: usize) -> f64 {
        self.pi_dead
            + self.pi_slow * (1.0 - self.r_slow).powf(t as f64)
            + self.pi_fast * (1.0 - self.r_fast).powf(t as f64)
    }

    /// Silent fraction after fine-tuned preprocessing (silent + fire-once).
    pub fn silent_ft_at(&self, t: usize) -> f64 {
        let tf = t as f64;
        let once = self.pi_slow * tf * self.r_slow * (1.0 - self.r_slow).powf(tf - 1.0)
            + self.pi_fast * tf * self.r_fast * (1.0 - self.r_fast).powf(tf - 1.0);
        (self.silent_at(t) + once).min(1.0)
    }

    /// Per-timestep spike density (independent of `t` in this model).
    pub fn density(&self) -> f64 {
        self.pi_slow * self.r_slow + self.pi_fast * self.r_fast
    }

    /// A full profile at window length `t`, suitable for workload
    /// generation (Fig. 17's `T = 8` LoAS runs).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if the extrapolated statistics are
    /// mutually infeasible at `t`.
    pub fn profile_at(&self, t: usize) -> Result<SparsityProfile, WorkloadError> {
        SparsityProfile::from_percentages(
            (1.0 - self.density()) * 100.0,
            self.silent_at(t) * 100.0,
            self.silent_ft_at(t) * 100.0,
            self.weight * 100.0,
        )
    }
}

/// Checks the four profile fields (spike origin, silent, silent+FT,
/// weight) are in `[0, max]`.
fn check_fields(values: [f64; 4], max: f64) -> Result<(), WorkloadError> {
    let names = ["spike_origin", "silent", "silent_ft", "weight"];
    match names
        .into_iter()
        .zip(values)
        .find(|(_, v)| !(0.0..=max).contains(v))
    {
        Some((name, value)) => Err(WorkloadError::FractionOutOfRange { name, value }),
        None => Ok(()),
    }
}

/// `E[X | X >= 2]` for `X ~ Binomial(t, p)`.
fn conditional_mean_ge2(t: usize, p: f64) -> f64 {
    let q = 1.0 - p;
    let p0 = q.powi(t as i32);
    let p1 = t as f64 * p * q.powi(t as i32 - 1);
    let z = 1.0 - p0 - p1;
    if z <= 1e-300 {
        2.0
    } else {
        (t as f64 * p - p1) / z
    }
}

/// PMF of `X | X >= 2` over `x = 2..=t` for `X ~ Binomial(t, p)`.
fn conditional_pmf_ge2(t: usize, p: f64) -> Vec<f64> {
    let q = 1.0 - p;
    let mut probs = Vec::with_capacity(t.saturating_sub(1));
    let mut z = 0.0;
    for x in 2..=t {
        let prob = binomial(t, x) * p.powi(x as i32) * q.powi((t - x) as i32);
        probs.push(prob);
        z += prob;
    }
    if z > 0.0 {
        for pr in &mut probs {
            *pr /= z;
        }
    }
    probs
}

fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut acc = 1.0;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Table II network-average profiles.
    fn table2_profiles() -> Vec<(&'static str, SparsityProfile)> {
        vec![
            (
                "AlexNet",
                SparsityProfile::from_percentages(81.2, 71.3, 76.7, 98.2).unwrap(),
            ),
            (
                "VGG16",
                SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap(),
            ),
            (
                "ResNet19",
                SparsityProfile::from_percentages(68.6, 59.6, 66.1, 96.8).unwrap(),
            ),
            (
                "A-L4",
                SparsityProfile::from_percentages(75.8, 63.2, 69.7, 98.9).unwrap(),
            ),
            (
                "V-L8",
                SparsityProfile::from_percentages(88.1, 76.5, 86.8, 96.8).unwrap(),
            ),
            (
                "R-L19",
                SparsityProfile::from_percentages(57.9, 51.4, 55.7, 99.1).unwrap(),
            ),
        ]
    }

    /// Spike density implied by a solved model: equals the profile's
    /// `1 − origin` when solvable.
    fn expected_density(model: &FiringModel) -> f64 {
        let a = 1.0 - model.silent_p - model.once_p;
        let mean_active: f64 = model
            .active_count_pmf
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as f64 + 2.0) * p)
            .sum();
        (model.once_p + a * mean_active) / model.timesteps as f64
    }

    #[test]
    fn all_table2_profiles_are_solvable_at_t4() {
        for (name, profile) in table2_profiles() {
            let model = profile.firing_model(4).unwrap_or_else(|e| {
                panic!("profile {name} should be solvable: {e}");
            });
            assert!(
                (expected_density(&model) - profile.spike_density()).abs() < 1e-6,
                "{name}: model density {} vs target {}",
                expected_density(&model),
                profile.spike_density()
            );
        }
    }

    #[test]
    fn category_probabilities_match_profile() {
        let profile = SparsityProfile::from_percentages(68.6, 59.6, 66.1, 96.8).unwrap();
        let model = profile.firing_model(4).unwrap();
        assert!((model.silent_p() - 0.596).abs() < 1e-9);
        assert!((model.once_p() - 0.065).abs() < 1e-9);
        assert!(
            model.bernoulli_p() > 0.5,
            "ResNet19 active neurons fire often"
        );
    }

    /// The float spike-count sampler `CountSampler` replaces: category by
    /// `u_category` against the silent and fire-once masses, then a
    /// linear scan of the active pmf with `u_count`.
    fn sample_count(model: &FiringModel, u_category: f64, u_count: f64) -> usize {
        if u_category < model.silent_p {
            return 0;
        }
        if u_category < model.silent_p + model.once_p {
            return 1;
        }
        let mut acc = 0.0;
        for (i, &p) in model.active_count_pmf.iter().enumerate() {
            acc += p;
            if u_count < acc {
                return i + 2;
            }
        }
        model.timesteps.min(model.active_count_pmf.len() + 1)
    }

    /// `gen::<f64>()`'s value for a 53-bit draw.
    fn as_float(u: u64) -> f64 {
        u as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn sample_count_respects_categories() {
        let profile = SparsityProfile::from_percentages(80.0, 70.0, 75.0, 98.0).unwrap();
        let model = profile.firing_model(4).unwrap();
        assert_eq!(sample_count(&model, 0.0, 0.5), 0); // silent region
        assert_eq!(sample_count(&model, 0.72, 0.5), 1); // once region
        let c = sample_count(&model, 0.9, 0.0);
        assert!(c >= 2, "active neurons fire at least twice, got {c}");
    }

    proptest! {
        #[test]
        fn count_sampler_equals_the_float_sampler(
            masses in (0u64..=1000, 0u64..=1000, 0u64..=1000),
            t in 1usize..=16,
            mean_fires in 0.0f64..1.0,
            draws in (any::<u64>(), any::<u64>()),
        ) {
            // A solvable profile by construction: silent, fire-once and
            // active masses, and an active mean in [2, T].
            let total = (masses.0 + masses.1 + masses.2).max(1) as f64;
            let (silent, once) = (masses.0 as f64 / total, masses.1 as f64 / total);
            let active = (1.0 - silent - once).max(0.0);
            let e2 = 2.0 + mean_fires * (t as f64 - 2.0).max(0.0);
            let density = ((once + active * e2) / t as f64).min(1.0);
            let profile = SparsityProfile::from_percentages(
                (1.0 - density) * 100.0,
                silent * 100.0,
                (silent + once).min(1.0) * 100.0,
                98.0,
            )
            .unwrap();
            let Ok(model) = profile.firing_model(t) else {
                return;
            };
            let sampler = model.count_sampler();
            // Random draws, and draws on either side of every threshold.
            let mut probes = vec![draws.0 >> 11, draws.1 >> 11, 0, (1 << 53) - 1];
            let thresholds = [sampler.silent, sampler.quiet];
            for edge in thresholds.into_iter().chain(sampler.active) {
                for u in [edge.saturating_sub(1), edge, edge.saturating_add(1)] {
                    if u < 1 << 53 {
                        probes.push(u);
                    }
                }
            }
            for &category in &probes {
                for &count in &probes {
                    prop_assert_eq!(
                        sampler.sample(category, count),
                        sample_count(&model, as_float(category), as_float(count))
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_density_detected() {
        // 90% silent but density 0.5: impossible (max 0.1 non-silent * 1.0).
        let p = SparsityProfile::from_percentages(50.0, 90.0, 92.0, 98.0).unwrap();
        assert!(matches!(
            p.firing_model(4),
            Err(WorkloadError::InfeasibleProfile { .. })
        ));
    }

    #[test]
    fn ft_below_silent_rejected() {
        assert!(SparsityProfile::from_percentages(80.0, 70.0, 60.0, 98.0).is_err());
    }

    #[test]
    fn percent_out_of_range_rejected() {
        assert!(SparsityProfile::from_percentages(120.0, 70.0, 75.0, 98.0).is_err());
    }

    #[test]
    fn conditional_mean_bounds() {
        assert!(conditional_mean_ge2(4, 1e-6) - 2.0 < 1e-3);
        assert!((conditional_mean_ge2(4, 1.0 - 1e-9) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn pmf_sums_to_one() {
        let pmf = conditional_pmf_ge2(8, 0.3);
        let sum: f64 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(pmf.len(), 7); // counts 2..=8
    }

    #[test]
    fn binomial_coefficients() {
        assert_eq!(binomial(4, 2) as u64, 6);
        assert_eq!(binomial(10, 3) as u64, 120);
    }

    #[test]
    fn temporal_model_reproduces_calibration_point() {
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        let model =
            TemporalScalingModel::fit(&profile, 4, TemporalScalingModel::DEFAULT_ALPHA).unwrap();
        assert!((model.silent_at(4) - 0.741).abs() < 5e-3);
        assert!((model.silent_ft_at(4) - 0.796).abs() < 5e-3);
        assert!((model.density() - profile.spike_density()).abs() < 1e-9);
    }

    #[test]
    fn silent_ratio_declines_with_timesteps() {
        // Fig. 16(b): silence erodes as the window grows, but the FT curve
        // at T=8 stays close to the origin curve at T=4.
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        let model =
            TemporalScalingModel::fit(&profile, 4, TemporalScalingModel::DEFAULT_ALPHA).unwrap();
        let s4 = model.silent_at(4);
        let s8 = model.silent_at(8);
        let s16 = model.silent_at(16);
        assert!(s8 < s4 && s16 < s8, "silence erodes: {s4} {s8} {s16}");
        let ft8 = model.silent_ft_at(8);
        assert!(
            ft8 >= s4 * 0.95,
            "FT at T=8 keeps near the T=4 silent ratio: {ft8} vs {s4}"
        );
    }

    #[test]
    fn extrapolated_profiles_are_generatable() {
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        let model =
            TemporalScalingModel::fit(&profile, 4, TemporalScalingModel::DEFAULT_ALPHA).unwrap();
        for t in [4usize, 8] {
            let p = model.profile_at(t).unwrap();
            p.firing_model(t)
                .unwrap_or_else(|e| panic!("T={t} profile unsolvable: {e}"));
        }
    }

    #[test]
    fn bad_alpha_rejected() {
        let profile = SparsityProfile::from_percentages(82.3, 74.1, 79.6, 98.2).unwrap();
        assert!(TemporalScalingModel::fit(&profile, 4, 0.0).is_err());
        assert!(TemporalScalingModel::fit(&profile, 4, 1.0).is_err());
    }
}
