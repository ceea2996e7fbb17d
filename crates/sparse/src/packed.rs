//! Packed spike words: the FTP-friendly compression unit of LoAS.
//!
//! LoAS packs the `T` single-bit spikes of one pre-synaptic neuron (one
//! `(m, k)` coordinate of the spike tensor, across all timesteps) into a
//! single `T`-bit word (Fig. 8 of the paper). A neuron whose packed word is
//! all zeros never fires in the inference window and is called a *silent
//! neuron*; silent neurons are dropped entirely from memory, which is where
//! the compression ratio of the scheme comes from.

use crate::error::SparseError;

/// Maximum number of timesteps a [`PackedSpikes`] word can hold.
pub const MAX_TIMESTEPS: usize = 16;

/// The spikes of one pre-synaptic neuron across all `T` timesteps, packed
/// into one word. Bit `t` is the spike at timestep `t`.
///
/// # Examples
///
/// ```
/// use loas_sparse::PackedSpikes;
///
/// // Fires at timesteps 0 and 2 out of T=4 (the `1010` example of Fig. 8,
/// // reading bit 0 as t0).
/// let word = PackedSpikes::from_bits(0b0101, 4).unwrap();
/// assert!(word.fires_at(0));
/// assert!(!word.fires_at(1));
/// assert_eq!(word.fire_count(), 2);
/// assert!(!word.is_silent());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct PackedSpikes {
    bits: u16,
    timesteps: u8,
}

impl PackedSpikes {
    /// Creates a silent word for `timesteps` timesteps.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::TimestepOverflow`] when `timesteps` exceeds
    /// [`MAX_TIMESTEPS`].
    pub fn silent(timesteps: usize) -> Result<Self, SparseError> {
        Self::from_bits(0, timesteps)
    }

    /// Creates a word from raw bits; bits at positions `>= timesteps` must be
    /// zero (they are masked off).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::TimestepOverflow`] when `timesteps` exceeds
    /// [`MAX_TIMESTEPS`].
    pub fn from_bits(bits: u16, timesteps: usize) -> Result<Self, SparseError> {
        if timesteps > MAX_TIMESTEPS {
            return Err(SparseError::TimestepOverflow {
                timesteps,
                max: MAX_TIMESTEPS,
            });
        }
        let mask = if timesteps == MAX_TIMESTEPS {
            u16::MAX
        } else {
            (1u16 << timesteps) - 1
        };
        Ok(PackedSpikes {
            bits: bits & mask,
            timesteps: timesteps as u8,
        })
    }

    /// Raw packed bits (bit `t` = spike at timestep `t`).
    pub fn bits(&self) -> u16 {
        self.bits
    }

    /// Number of timesteps this word covers.
    pub fn timesteps(&self) -> usize {
        self.timesteps as usize
    }

    /// Whether the neuron fires at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= timesteps`.
    pub fn fires_at(&self, t: usize) -> bool {
        assert!(
            t < self.timesteps as usize,
            "timestep {t} out of range {}",
            self.timesteps
        );
        (self.bits >> t) & 1 == 1
    }

    /// Sets the spike at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= timesteps`.
    pub fn set(&mut self, t: usize, fires: bool) {
        assert!(
            t < self.timesteps as usize,
            "timestep {t} out of range {}",
            self.timesteps
        );
        if fires {
            self.bits |= 1 << t;
        } else {
            self.bits &= !(1 << t);
        }
    }

    /// Total number of spikes across the window.
    pub fn fire_count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the neuron never fires (a *silent neuron*, Fig. 8).
    pub fn is_silent(&self) -> bool {
        self.bits == 0
    }

    /// Whether the neuron fires at every timestep — the case in which the
    /// FTP-friendly inner-join's optimistic accumulation needs no correction.
    pub fn is_all_ones(&self) -> bool {
        self.fire_count() == self.timesteps as usize && self.timesteps > 0
    }

    /// Whether the word would be removed by the paper's fine-tuned
    /// preprocessing, which masks neurons firing at most once.
    pub fn fires_at_most_once(&self) -> bool {
        self.fire_count() <= 1
    }

    /// Unpacks into a per-timestep boolean vector.
    pub fn to_vec(self) -> Vec<bool> {
        (0..self.timesteps as usize)
            .map(|t| self.fires_at(t))
            .collect()
    }

    /// Storage footprint of the packed word in bits (`T` bits; 4 bits for
    /// the paper's default `T = 4`).
    pub fn storage_bits(&self) -> usize {
        self.timesteps as usize
    }

    /// The timesteps at which the neuron fires, ascending.
    pub fn firing_timesteps(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.timesteps as usize).filter(move |&t| self.fires_at(t))
    }
}

impl std::fmt::Display for PackedSpikes {
    /// Formats the word as the paper does: most-significant timestep first
    /// (e.g. `1010` for a neuron firing at t0 and t2 with T=4 read as
    /// `t3 t2 t1 t0`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for t in (0..self.timesteps as usize).rev() {
            write!(f, "{}", if self.fires_at(t) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let word = PackedSpikes::from_bits(0b0101, 4).unwrap();
        assert_eq!(word.to_vec(), [true, false, true, false]);
        assert_eq!(word.fire_count(), 2);
    }

    #[test]
    fn paper_example_a00() {
        // Fig. 8: a_{0,0} fires at t0 and t2 -> displayed as 0101 read
        // t3..t0, i.e. bits 0b0101.
        let word = PackedSpikes::from_bits(0b0101, 4).unwrap();
        assert!(word.fires_at(0));
        assert!(word.fires_at(2));
        assert!(!word.fires_at(1));
        assert_eq!(word.to_string(), "0101");
    }

    #[test]
    fn silent_detection() {
        let word = PackedSpikes::silent(4).unwrap();
        assert!(word.is_silent());
        assert!(word.fires_at_most_once());
        assert_eq!(word.fire_count(), 0);
    }

    #[test]
    fn all_ones_detection() {
        let word = PackedSpikes::from_bits(0b1111, 4).unwrap();
        assert!(word.is_all_ones());
        assert_eq!(word.bits(), 0b1111);
        let partial = PackedSpikes::from_bits(0b0111, 4).unwrap();
        assert!(!partial.is_all_ones());
    }

    #[test]
    fn timestep_overflow_rejected() {
        assert!(matches!(
            PackedSpikes::from_bits(0, 17),
            Err(SparseError::TimestepOverflow { .. })
        ));
        assert!(PackedSpikes::from_bits(u16::MAX, 16).unwrap().is_all_ones());
    }

    #[test]
    fn set_and_firing_timesteps() {
        let mut word = PackedSpikes::silent(8).unwrap();
        word.set(3, true);
        word.set(7, true);
        assert_eq!(word.firing_timesteps().collect::<Vec<_>>(), vec![3, 7]);
        word.set(3, false);
        assert_eq!(word.fire_count(), 1);
        assert!(word.fires_at_most_once());
    }

    #[test]
    fn extra_bits_are_masked() {
        let word = PackedSpikes::from_bits(0xFFFF, 4).unwrap();
        assert_eq!(word.bits(), 0b1111);
        assert_eq!(word.timesteps(), 4);
    }

    #[test]
    fn storage_bits_equals_t() {
        assert_eq!(PackedSpikes::silent(4).unwrap().storage_bits(), 4);
        assert_eq!(PackedSpikes::silent(8).unwrap().storage_bits(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fires_at_out_of_range_panics() {
        PackedSpikes::silent(4).unwrap().fires_at(4);
    }
}
