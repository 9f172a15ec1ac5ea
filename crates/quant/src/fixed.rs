//! Fixed-point arithmetic for the integer LIF datapath.
//!
//! Two pieces: [`Rescale`], the multiply+shift requantizer that turns
//! raw `i32` accumulator sums into Q-format membrane current, and
//! [`FixedLif`], the LIF step parameters with `beta` as an integer
//! multiply + shift. Neither touches f32 at inference time: all f32 →
//! fixed conversion happens once, at quantization time.
//!
//! **The LIF certificate.** [`FixedLif::step`] sums its terms in `i64`
//! and clamps once to `i32`. The row kernel
//! [`FixedLif::step_row_certified`] adds them on plain wrapping `i32`
//! lanes instead, which is exact whenever the true sum fits `i32`.
//! [`FixedLif::certify`] proves that from magnitude bounds alone:
//! `validate` keeps `beta_mult <= 2^beta_shift`, so `|leak(m)| <= |m|`
//! and every new potential obeys `|u| <= |m| + |c| + |b| + theta_q`.
//! When that total is at most `i32::MAX`, wrapping never happens and
//! the clamp never acts. The bounds come cheap: [`magnitude_bound`]
//! is one OR pass, and the requantize pass returns its own
//! ([`Rescale::apply_row`]).

use serde::{Deserialize, Serialize};
use snn_core::{LifConfig, ResetMode};

use crate::error::QuantError;
use crate::qtensor::saturate_i32;

/// Fractional bits of the `beta` multiplier (Q15: `beta ≈
/// beta_mult / 2^15`). One fixed choice for every artifact keeps leak
/// precision uniform and the artifact simpler; with `beta ∈ [0, 1]`
/// the multiplier always fits 16 bits.
pub const BETA_FRAC_BITS: u32 = 15;

/// `round(wide / 2^shift)`, rounding half away from zero; `wide` is
/// the product of two `i32`s (so `|wide| <= 2^62`) and `shift <= 62`.
///
/// Branch-free: the magnitude is shifted and the sign put back with
/// two's-complement masks, and `shift == 0` needs no special case
/// because its rounding term is zero.
#[inline]
fn round_shift(wide: i64, shift: u32) -> i64 {
    let sign = wide >> 63;
    let half = (1i64 << shift) >> 1;
    let mag = ((wide ^ sign) - sign + half) >> shift;
    (mag ^ sign) - sign
}

/// The OR of `|x|` over `values`: at least their largest magnitude
/// and below twice it, in one pass the autovectorizer takes
/// (`|i32::MIN| = 2^31` fits the `u32`).
pub fn magnitude_bound(values: &[i32]) -> u32 {
    values.iter().fold(0, |bound, &x| bound | x.unsigned_abs())
}

/// The loop of [`Rescale::apply_row`] and [`Rescale::apply_zip`], for
/// a shared factor or one per element. Returns the
/// [`magnitude_bound`] of the results, ORed from the magnitudes it
/// already holds.
#[inline(always)]
fn rescale_lanes(row: &mut [i32], rescale: impl Iterator<Item = Rescale>) -> u32 {
    let mut bound = 0;
    for (a, rs) in row.iter_mut().zip(rescale) {
        let (mult, shift) = (rs.mult as u32 as u64, rs.shift);
        let half = (1u64 << shift) >> 1;
        let sign = *a >> 31;
        let wide = (a.unsigned_abs() as u64 * mult + half) >> shift;
        let limit = i32::MAX as u32 + (sign & 1) as u32;
        let mag = if wide >> 31 == 0 { wide as u32 } else { limit };
        bound |= mag;
        *a = (mag as i32 ^ sign).wrapping_sub(sign);
    }
    bound
}

/// A positive real factor `r` encoded as `mult / 2^shift`, applied to
/// `i32` accumulators with rounding and a single saturating cast.
///
/// `mult` is normalized into `[2^22, 2^23)` whenever `shift > 0`
/// allows it, giving ~7 significant decimal digits — far below the
/// error introduced by 8-bit weights themselves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rescale {
    /// Fixed-point multiplier, `0 <= mult <= i32::MAX`.
    pub mult: i32,
    /// Right shift applied after the widening multiply, `<= 62`.
    pub shift: u32,
}

impl Rescale {
    /// Encodes a nonnegative finite real factor.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Malformed`] for negative or non-finite
    /// input and [`QuantError::Overflow`]-shaped messages (via
    /// `Malformed`) when `r` exceeds what a 31-bit multiplier with
    /// zero shift can express (`r > i32::MAX`).
    pub fn from_real(r: f64) -> Result<Self, QuantError> {
        if !r.is_finite() || r < 0.0 {
            return Err(QuantError::Malformed(format!("rescale factor {r} must be finite and >= 0")));
        }
        if r == 0.0 {
            return Ok(Rescale { mult: 0, shift: 0 });
        }
        // Find the shift that lands round(r * 2^shift) in [2^22, 2^23).
        let mut shift: i64 = 22 - r.log2().ceil() as i64;
        shift = shift.clamp(0, 62);
        let mut mult = (r * (1u64 << shift) as f64).round();
        // log2 rounding can leave us one octave off; renormalize.
        while mult >= (1 << 23) as f64 && shift > 0 {
            shift -= 1;
            mult = (r * (1u64 << shift) as f64).round();
        }
        while mult < (1 << 22) as f64 && shift < 62 {
            shift += 1;
            mult = (r * (1u64 << shift) as f64).round();
        }
        if mult > i32::MAX as f64 {
            return Err(QuantError::Malformed(format!(
                "rescale factor {r} exceeds the i32 multiplier range"
            )));
        }
        Ok(Rescale { mult: mult as i32, shift: shift as u32 })
    }

    /// Applies the factor: `sat_i32(round(acc * mult / 2^shift))`.
    ///
    /// The widening product of two `i32`s plus the rounding term fits
    /// `i64` exactly, so the only lossy operation is the final
    /// saturating narrow.
    #[inline]
    pub fn apply(&self, acc: i32) -> i32 {
        // Round half away from zero so +x and -x rescale to mirrored
        // values; plain `+ half` would bias negatives toward +inf by
        // one ulp.
        saturate_i32(round_shift(acc as i64 * self.mult as i64, self.shift))
    }

    /// [`Rescale::apply`] over a row, in place.
    ///
    /// Equal to `apply` element by element for every `Rescale` that
    /// passes [`Rescale::validate`], but in the shape the
    /// autovectorizer takes: the magnitude `|acc|·mult + half` is
    /// rounded in `u64` (a 32×32→64 multiply, below `2^63`), saturated
    /// to `2^31 − 1` (or `2^31` for a negative `acc`) by one test of
    /// its bits above 31, and the sign is put back with a mask.
    ///
    /// Returns the [`magnitude_bound`] of the rescaled row, the current
    /// bound that [`FixedLif::certify`] takes.
    pub fn apply_row(&self, row: &mut [i32]) -> u32 {
        rescale_lanes(row, std::iter::repeat(*self))
    }

    /// [`Rescale::apply_row`] with one factor per element: `row[i]`
    /// is rescaled by `rescale[i]` (a dense stage, whose neurons are
    /// each their own channel). Returns the same bound as `apply_row`.
    ///
    /// # Panics
    ///
    /// Panics if `rescale` and `row` differ in length.
    pub fn apply_zip(rescale: &[Rescale], row: &mut [i32]) -> u32 {
        assert_eq!(rescale.len(), row.len(), "one rescale per element");
        rescale_lanes(row, rescale.iter().copied())
    }

    /// The real factor this encodes (for diagnostics and tests).
    pub fn real(&self) -> f64 {
        self.mult as f64 / (1u64 << self.shift) as f64
    }

    /// Validation for untrusted artifacts.
    ///
    /// # Errors
    ///
    /// Returns a message if `mult` is negative or `shift > 62`.
    pub fn validate(&self) -> Result<(), String> {
        if self.mult < 0 {
            return Err(format!("negative rescale multiplier {}", self.mult));
        }
        if self.shift > 62 {
            return Err(format!("rescale shift {} exceeds 62", self.shift));
        }
        Ok(())
    }
}

/// LIF parameters in fixed point: membrane potential and threshold in
/// Q`frac_bits`, leak as a Q15 multiply + shift.
///
/// The step mirrors [`snn_core::neuron::lif_step`] exactly in
/// structure:
///
/// * `Subtract`: `u = leak(u_prev) + I - s_prev * theta_q`
/// * `Zero`:     `u = (s_prev ? 0 : leak(u_prev)) + I`
/// * spike iff `u > theta_q`
///
/// with `leak(m) = round(m * beta_mult / 2^beta_shift)` and every sum
/// taken in `i64` before one saturating narrow to `i32`. All
/// operations are elementwise integer arithmetic — no ordering or
/// thread-count sensitivity exists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedLif {
    /// Fractional bits of the membrane potential and threshold
    /// (Q-format `Q(31-frac_bits).frac_bits`).
    pub frac_bits: u32,
    /// Leak multiplier, `round(beta * 2^beta_shift)`.
    pub beta_mult: i32,
    /// Leak shift; always [`BETA_FRAC_BITS`] for artifacts written by
    /// this crate, carried explicitly for forward compatibility.
    pub beta_shift: u32,
    /// Threshold in Q`frac_bits`.
    pub theta_q: i32,
    /// Reset semantics, shared with the f32 configuration.
    pub reset: ResetMode,
}

impl FixedLif {
    /// Converts a validated f32 LIF configuration at a chosen
    /// Q-format.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::Malformed`] if the configuration fails
    /// its own validation, or if `theta` does not fit Q`frac_bits`.
    pub fn from_config(cfg: &LifConfig, frac_bits: u32) -> Result<Self, QuantError> {
        cfg.validate().map_err(QuantError::Malformed)?;
        if frac_bits > 30 {
            return Err(QuantError::Malformed(format!("frac_bits {frac_bits} exceeds 30")));
        }
        let theta_q = (cfg.theta as f64 * (1u64 << frac_bits) as f64).round();
        if theta_q > i32::MAX as f64 || theta_q < 1.0 {
            return Err(QuantError::Malformed(format!(
                "theta {} does not fit Q{frac_bits}",
                cfg.theta
            )));
        }
        Ok(FixedLif {
            frac_bits,
            beta_mult: (cfg.beta as f64 * (1u64 << BETA_FRAC_BITS) as f64).round() as i32,
            beta_shift: BETA_FRAC_BITS,
            theta_q: theta_q as i32,
            reset: cfg.reset,
        })
    }

    /// The leak `round(m * beta / 1)` in pure integer arithmetic.
    ///
    /// Rounds half away from zero (matching [`Rescale::apply`]) so
    /// decay is symmetric around zero.
    #[inline]
    pub fn leak(&self, m: i32) -> i32 {
        saturate_i32(round_shift(m as i64 * self.beta_mult as i64, self.beta_shift))
    }

    /// One membrane update: previous potential, previous output
    /// spike, and the Q`frac_bits` input current (already including
    /// any bias). Returns `(new_potential, spike)`.
    ///
    /// This is the specification that [`FixedLif::step_row`] computes
    /// a row at a time.
    pub fn step(&self, m_prev: i32, spiked_prev: bool, current_q: i64) -> (i32, bool) {
        let leaked = self.leak(m_prev) as i64;
        let u = saturate_i32(match (self.reset, spiked_prev) {
            (_, false) => leaked + current_q,
            (ResetMode::Subtract, true) => leaked + current_q - self.theta_q as i64,
            (ResetMode::Zero, true) => current_q,
        });
        (u, u > self.theta_q)
    }

    /// Certifies a step of [`FixedLif::step_row_certified`] over
    /// neurons whose membranes, currents and biases have magnitudes of
    /// at most `mem`, `current` and `bias`.
    ///
    /// Returns the bound `mem + current + bias + theta_q` on every new
    /// potential's magnitude if it is at most `i32::MAX`, and `None`
    /// otherwise. For an artifact that passes [`FixedLif::validate`],
    /// `Some` proves that the wrapping lanes equal [`FixedLif::step`]:
    /// the leak never grows a magnitude, so the true sum obeys the
    /// bound, fits `i32`, and `step`'s clamp never acts. The bound is
    /// also the membrane bound for the next step.
    pub fn certify(&self, mem: u32, current: u32, bias: u32) -> Option<u32> {
        let bound = mem as u64 + current as u64 + bias as u64 + self.theta_q as u64;
        (bound <= i32::MAX as u64).then_some(bound as u32)
    }

    /// [`FixedLif::step`] over a row of neurons: neuron `i` takes
    /// `current[i] + bias` as its current, steps `mem[i]`, and reads
    /// its previous spike from `spikes[i]` (0 or 1) before writing the
    /// new one there. `bias` holds one value shared by the row, or one
    /// per neuron.
    ///
    /// Equal to `step` element by element on every input: the row's
    /// own [`magnitude_bound`]s go to [`FixedLif::certify`], and a row
    /// that passes runs [`FixedLif::step_row_certified`], any other
    /// `step` one neuron at a time. A caller that already holds a bound
    /// calls the certified kernel directly and skips the scans.
    ///
    /// # Panics
    ///
    /// As [`FixedLif::step_row_certified`].
    pub fn step_row(&self, current: &[i32], bias: &[i32], mem: &mut [i32], spikes: &mut [u8]) {
        let bounds = (magnitude_bound(mem), magnitude_bound(current), magnitude_bound(bias));
        if self.certify(bounds.0, bounds.1, bounds.2).is_some() {
            return self.step_row_certified(current, bias, mem, spikes);
        }
        assert!(current.len() == mem.len() && spikes.len() == mem.len(), "LIF row lengths");
        assert!(bias.len() == 1 || bias.len() == mem.len(), "LIF row bias length");
        let lanes = mem.iter_mut().zip(spikes.iter_mut());
        for ((m, s), (&c, &b)) in lanes.zip(current.iter().zip(bias.iter().cycle())) {
            let (u, spike) = self.step(*m, *s != 0, c as i64 + b as i64);
            *m = u;
            *s = spike as u8;
        }
    }

    /// [`FixedLif::step_row`] on plain wrapping `i32` lanes, for rows
    /// the caller has certified.
    ///
    /// **Precondition:** [`FixedLif::certify`] returns `Some` for
    /// bounds on the row's `|mem[i]|`, `|current[i]|` and `|bias|`.
    /// Then the result equals `step` element by element, for every
    /// artifact that passes [`FixedLif::validate`]. Outside it the sum
    /// wraps where `step` saturates: the potentials are wrong, though
    /// nothing is undefined.
    ///
    /// The loop is branch-free, so it vectorizes:
    ///
    /// * the leak rounds `|m|·beta_mult + half` in `u64` and puts the
    ///   sign back with a mask. With `beta_mult <= 2^beta_shift` its
    ///   magnitude never exceeds `|m|`, so it fits `i32` and `leak`'s
    ///   saturation never acts;
    /// * the previous spike enters as a 0/1 integer: its negation is a
    ///   mask that clears the leaked membrane (zero reset) or selects
    ///   `theta_q` to take off (subtract reset);
    /// * the four terms are added with wrapping, which the certificate
    ///   makes exact.
    ///
    /// # Panics
    ///
    /// Panics if `current`, `mem` and `spikes` differ in length, or
    /// `bias` is neither one value nor one per neuron.
    pub fn step_row_certified(
        &self,
        current: &[i32],
        bias: &[i32],
        mem: &mut [i32],
        spikes: &mut [u8],
    ) {
        assert!(current.len() == mem.len() && spikes.len() == mem.len(), "LIF row lengths");
        match *bias {
            [shared] => self.step_lanes(current, std::iter::repeat(shared), mem, spikes),
            _ => {
                assert_eq!(bias.len(), mem.len(), "LIF row bias length");
                self.step_lanes(current, bias.iter().copied(), mem, spikes);
            }
        }
    }

    /// The loop of [`FixedLif::step_row_certified`], for either bias
    /// layout.
    #[inline(always)]
    fn step_lanes(
        &self,
        current: &[i32],
        bias: impl Iterator<Item = i32>,
        mem: &mut [i32],
        spikes: &mut [u8],
    ) {
        // `validate` keeps beta_mult in [0, 2^30]: through u32 the
        // product is a single 32×32→64 multiply.
        let (beta_mult, shift) = (self.beta_mult as u32 as u64, self.beta_shift);
        let half = (1u64 << shift) >> 1;
        // What a previous spike does under each reset mode: clear the
        // leaked membrane (an all-ones mask), or subtract theta.
        let (clear, subtract) = match self.reset {
            ResetMode::Subtract => (0, self.theta_q),
            ResetMode::Zero => (-1, 0),
        };
        let lanes = mem.iter_mut().zip(spikes.iter_mut()).zip(current.iter().zip(bias));
        for ((m, s), (&c, b)) in lanes {
            let sign = *m >> 31;
            let mag = ((m.unsigned_abs() as u64 * beta_mult + half) >> shift) as u32 as i32;
            let leaked = (mag ^ sign).wrapping_sub(sign);
            let prev = -((*s != 0) as i32);
            let u = (leaked & !(clear & prev))
                .wrapping_add(c)
                .wrapping_add(b)
                .wrapping_sub(subtract & prev);
            *m = u;
            *s = (u > self.theta_q) as u8;
        }
    }

    /// Validation for untrusted artifacts.
    ///
    /// # Errors
    ///
    /// Returns a message for out-of-range fields: `frac_bits > 30`,
    /// `beta_shift > 30`, a leak multiplier outside `[0, 2^beta_shift]`
    /// (beta must stay in `[0, 1]`), or a non-positive threshold.
    pub fn validate(&self) -> Result<(), String> {
        if self.frac_bits > 30 {
            return Err(format!("frac_bits {} exceeds 30", self.frac_bits));
        }
        if self.beta_shift > 30 {
            return Err(format!("beta_shift {} exceeds 30", self.beta_shift));
        }
        if self.beta_mult < 0 || self.beta_mult as i64 > 1i64 << self.beta_shift {
            return Err(format!(
                "beta multiplier {} outside [0, 2^{}]",
                self.beta_mult, self.beta_shift
            ));
        }
        if self.theta_q <= 0 {
            return Err(format!("threshold {} must be positive", self.theta_q));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_encodes_and_applies() {
        for &r in &[1.0, 0.5, 3.25, 1e-6, 0.001953125, 123456.0] {
            let rs = Rescale::from_real(r).unwrap();
            rs.validate().unwrap();
            let rel = (rs.real() - r).abs() / r;
            assert!(rel < 1e-6, "factor {r}: encoded {} off by {rel}", rs.real());
            let got = rs.apply(1000);
            let want = (1000.0 * r).round();
            assert!(
                (got as f64 - want).abs() <= 1.0,
                "apply(1000) * {r}: {got} vs {want}"
            );
            // Symmetric rounding: negating the accumulator negates
            // the result.
            assert_eq!(rs.apply(-1000), -got);
        }
        assert_eq!(Rescale::from_real(0.0).unwrap().apply(12345), 0);
        assert!(Rescale::from_real(f64::NAN).is_err());
        assert!(Rescale::from_real(-1.0).is_err());
        assert!(Rescale::from_real(3e9).is_err(), "beyond i32 multiplier range");
    }

    #[test]
    fn round_shift_matches_exact_division() {
        // Exact half-away-from-zero rounding of wide / 2^shift.
        fn exact(wide: i64, shift: u32) -> i64 {
            let d = 1i128 << shift;
            let q = ((wide as i128).abs() * 2 + d) / (2 * d);
            (if wide < 0 { -q } else { q }) as i64
        }
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut wides: Vec<i64> = vec![0, 1, -1, 2, -2, 3, -3, i32::MAX as i64, i32::MIN as i64];
        let extreme = i32::MIN as i64 * i32::MIN as i64;
        wides.extend([extreme, -extreme + 1, extreme - 1]);
        for _ in 0..2000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            // Products of two i32s span |wide| <= 2^62.
            wides.push((seed as i64) >> 1 >> (seed % 62));
        }
        for &wide in &wides {
            for shift in 0..=62 {
                // Near-ties too: wide plus half a step, kept in range.
                let tie = wide + ((1i64 << shift) >> 1);
                for w in [wide, tie].into_iter().filter(|w| w.unsigned_abs() <= 1 << 62) {
                    assert_eq!(round_shift(w, shift), exact(w, shift), "{w} >> {shift}");
                }
            }
        }
    }

    #[test]
    fn rescale_saturates_near_overflow() {
        let rs = Rescale::from_real(1024.0).unwrap();
        assert_eq!(rs.apply(i32::MAX), i32::MAX, "large positive saturates, not wraps");
        assert_eq!(rs.apply(i32::MIN), i32::MIN, "large negative saturates, not wraps");
    }

    #[test]
    fn fixed_step_matches_f32_reference_one_step() {
        let cfg = LifConfig::paper_default();
        let f = 16u32;
        let fx = FixedLif::from_config(&cfg, f).unwrap();
        fx.validate().unwrap();
        let scale = (1u64 << f) as f32;
        let u0 = 0.8f32;
        let current = 0.6f32;
        let (uq, sq) = fx.step((u0 * scale).round() as i32, false, (current * scale).round() as i64);
        let uf = cfg.beta * u0 + current;
        assert!((uq as f32 / scale - uf).abs() < 1e-3);
        assert_eq!(sq, uf > cfg.theta);
        // Subtract reset after a spike.
        let (uq2, _) = fx.step(uq, true, (current * scale).round() as i64);
        let uf2 = cfg.beta * uf + current - cfg.theta;
        assert!((uq2 as f32 / scale - uf2).abs() < 1e-3);
    }

    #[test]
    fn zero_reset_zeroes_membrane() {
        let cfg = LifConfig { reset: ResetMode::Zero, ..LifConfig::paper_default() };
        let fx = FixedLif::from_config(&cfg, 16).unwrap();
        let (u, _) = fx.step(1 << 20, true, 0);
        assert_eq!(u, 0, "hard reset discards the leaked membrane entirely");
    }
}
