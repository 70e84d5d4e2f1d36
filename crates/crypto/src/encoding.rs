//! Fixed-point encoding of floating-point values into the Paillier
//! plaintext space (paper §2.2).
//!
//! A value `v` is encoded as a pair `⟨e, V⟩` with
//! `V = round(v · Bᵉ) + 𝟙(v < 0) · n`, where `B` is the encoding base
//! (default 16) and `e` the exponent. Negative values occupy the top of the
//! `[0, n)` range; the middle third is an overflow guard band.
//!
//! The exponent may be **jittered** per encoding (the paper's footnote 2:
//! "the exponential term e can be non-deterministic in order to obfuscate
//! the range of v"). In practice this produces `E ∈ [4, 8]` distinct
//! exponents, which is exactly what makes the re-ordered accumulation
//! technique of §5.1 profitable.

use num_bigint::{BigInt, BigUint, Sign};
use num_traits::ToPrimitive;
use rand::Rng;

use crate::error::{CryptoError, Result};
use crate::paillier::PublicKey;

/// Parameters of the fixed-point encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingConfig {
    /// Encoding base `B` (the paper uses 16).
    pub base: u32,
    /// Smallest exponent used. `B^base_exp` is the minimum precision.
    pub base_exp: i32,
    /// Number of distinct exponents: each encoding draws its exponent
    /// uniformly from `[base_exp, base_exp + jitter)`. `1` disables jitter.
    /// The paper observes 4–8 distinct exponents in practice.
    pub jitter: u32,
}

impl Default for EncodingConfig {
    fn default() -> Self {
        // B = 16, e₀ = 10 ⇒ at least 16¹⁰ = 2⁴⁰ of fractional precision.
        EncodingConfig { base: 16, base_exp: 10, jitter: 4 }
    }
}

impl EncodingConfig {
    /// A deterministic configuration (no exponent jitter), useful for tests
    /// and for the "naive" baseline where every cipher shares one exponent.
    pub fn deterministic() -> Self {
        EncodingConfig { jitter: 1, ..Self::default() }
    }

    /// Draws an exponent according to the jitter policy.
    pub fn draw_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> i32 {
        if self.jitter <= 1 {
            self.base_exp
        } else {
            self.base_exp + rng.gen_range(0..self.jitter) as i32
        }
    }

    /// `Bᵉ` as an exact big integer.
    pub fn base_pow(&self, e: u32) -> BigUint {
        BigUint::from(self.base).pow(e)
    }

    /// `Bᵉ` as a float (for decoding).
    pub fn base_pow_f64(&self, e: i32) -> f64 {
        (self.base as f64).powi(e)
    }
}

/// Encodes `v` at the given exponent as the plaintext `V ∈ [0, n)` (sign
/// folded in modulo `n`); [`FixedPoint::from_plaintext`] then
/// [`FixedPoint::to_f64`] is the inverse.
///
/// Fails with [`CryptoError::EncodingOverflow`] if `|v·Bᵉ|` exceeds the
/// safe bound `n/3`.
pub fn encode(v: f64, exponent: i32, cfg: &EncodingConfig, pk: &PublicKey) -> Result<BigUint> {
    if !v.is_finite() {
        return Err(CryptoError::EncodingOverflow { what: format!("non-finite value {v}") });
    }
    let scaled = v * cfg.base_pow_f64(exponent);
    if scaled.abs() >= i128::MAX as f64 {
        return Err(CryptoError::EncodingOverflow { what: format!("{v} at exponent {exponent}") });
    }
    let rounded = scaled.round() as i128;
    let magnitude = BigUint::from(rounded.unsigned_abs());
    if &magnitude > pk.max_int() {
        return Err(CryptoError::EncodingOverflow {
            what: format!("{v} at exponent {exponent} exceeds n/3"),
        });
    }
    Ok(if rounded < 0 { pk.n() - magnitude } else { magnitude })
}

/// The signed integer the plaintext `V ∈ [0, n)` stands for: `V` up to
/// `n/3`, `V − n` in the top third, an overflow in the ambiguous middle.
fn signed(mantissa: &BigUint, pk: &PublicKey) -> Result<BigInt> {
    if mantissa <= pk.max_int() {
        Ok(BigInt::from(mantissa.clone()))
    } else if mantissa > pk.half_n() {
        let neg = pk.n() - mantissa;
        if &neg > pk.max_int() {
            return Err(CryptoError::DecodingOverflow);
        }
        Ok(BigInt::from_biguint(Sign::Minus, neg))
    } else {
        Err(CryptoError::DecodingOverflow)
    }
}

fn int_to_f64(v: &BigInt) -> f64 {
    let magnitude = v.magnitude().to_f64().unwrap_or(f64::INFINITY);
    if v.sign() == Sign::Minus {
        -magnitude
    } else {
        magnitude
    }
}

/// A decrypted fixed-point value *before* the float decode: the signed
/// integer `Σ round(vᵢ · Bᵉ)` a cipher (or one field of a packed pair)
/// decrypted to, at its exponent `e`. Homomorphic sums are exact in this
/// form, so a difference of two is what the ciphertext difference would
/// have decrypted to; the key owner subtracts here and rounds once, after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedPoint {
    /// The signed integer value at `exponent`.
    pub mantissa: BigInt,
    /// The exponent `e`.
    pub exponent: i32,
}

impl FixedPoint {
    /// Reads a decrypted plaintext `V ∈ [0, n)` (sign folded in modulo
    /// `n`), rejecting the overflow band.
    pub fn from_plaintext(plain: &BigUint, exponent: i32, pk: &PublicKey) -> Result<Self> {
        Ok(FixedPoint { mantissa: signed(plain, pk)?, exponent })
    }

    /// The float this value stands for, `mantissa / Bᵉ`.
    pub fn to_f64(&self, cfg: &EncodingConfig) -> f64 {
        int_to_f64(&self.mantissa) / cfg.base_pow_f64(self.exponent)
    }

    /// `self − other` at `self`'s exponent, `other` first scaled up to it.
    /// `None` when `other` sits at a larger exponent: scaling down is not
    /// exact, and a part of a sum never carries a larger exponent than the
    /// sum. Signed big-integer arithmetic: nothing here wraps or borrows.
    pub fn checked_sub(&self, other: &FixedPoint, cfg: &EncodingConfig) -> Option<FixedPoint> {
        let up = u32::try_from(i64::from(self.exponent) - i64::from(other.exponent)).ok()?;
        let aligned = &other.mantissa * BigInt::from(cfg.base_pow(up));
        Some(FixedPoint { mantissa: &self.mantissa - aligned, exponent: self.exponent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pk() -> PublicKey {
        KeyPair::generate_seeded(256, 42).unwrap().public
    }

    fn decode(plain: &BigUint, exponent: i32, cfg: &EncodingConfig, pk: &PublicKey) -> f64 {
        FixedPoint::from_plaintext(plain, exponent, pk).unwrap().to_f64(cfg)
    }

    #[test]
    fn encode_decode_round_trip_positive_and_negative() {
        let pk = pk();
        let cfg = EncodingConfig::default();
        for v in [0.0, 1.0, -1.0, 0.5, -0.25, 123.456, -987.654, 1e-6, -1e-6] {
            let dec = decode(&encode(v, cfg.base_exp, &cfg, &pk).unwrap(), cfg.base_exp, &cfg, &pk);
            assert!((dec - v).abs() < 1e-9, "{v} -> {dec}");
        }
    }

    #[test]
    fn jittered_exponents_stay_in_window() {
        let pk = pk();
        let cfg = EncodingConfig { jitter: 4, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let e = cfg.draw_exponent(&mut rng);
            assert!(e >= cfg.base_exp && e < cfg.base_exp + 4);
            seen.insert(e);
            let dec = decode(&encode(0.75, e, &cfg, &pk).unwrap(), e, &cfg, &pk);
            assert!((dec - 0.75).abs() < 1e-9);
        }
        assert_eq!(seen.len(), 4, "all four jitter values should appear");
    }

    #[test]
    fn non_finite_values_rejected() {
        let pk = pk();
        let cfg = EncodingConfig::default();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(encode(v, cfg.base_exp, &cfg, &pk).is_err());
        }
    }

    #[test]
    fn overflow_detected_on_huge_values() {
        let pk = pk();
        let cfg = EncodingConfig { base_exp: 50, ..Default::default() };
        // 16^50 = 2^200 times anything sizable overflows a 256-bit n/3.
        assert!(matches!(
            encode(1e12, cfg.base_exp, &cfg, &pk),
            Err(CryptoError::EncodingOverflow { .. })
        ));
    }

    #[test]
    fn middle_third_rejected_as_overflow() {
        let pk = pk();
        let mantissa = pk.half_n().clone(); // squarely in the guard band
        let read = FixedPoint::from_plaintext(&mantissa, 10, &pk);
        assert_eq!(read, Err(CryptoError::DecodingOverflow));
    }

    #[test]
    fn fixed_point_difference_aligns_up_and_refuses_to_align_down() {
        let pk = pk();
        let cfg = EncodingConfig::default();
        let at = |v: f64, e: i32| {
            FixedPoint::from_plaintext(&encode(v, e, &cfg, &pk).unwrap(), e, &pk).unwrap()
        };
        // A part at a lower exponent scales up exactly; the difference may
        // change sign without borrowing.
        let diff = at(1.5, 12).checked_sub(&at(-2.25, 10), &cfg).unwrap();
        assert_eq!((diff.exponent, diff.to_f64(&cfg)), (12, 3.75));
        assert_eq!(at(0.5, 10).checked_sub(&at(2.0, 10), &cfg).unwrap().to_f64(&cfg), -1.5);
        assert_eq!(at(0.5, 10).checked_sub(&at(0.5, 10), &cfg).unwrap().to_f64(&cfg), 0.0);
        // A part claiming a larger exponent than its whole is refused.
        assert_eq!(at(1.5, 10).checked_sub(&at(0.5, 11), &cfg), None);
    }
}
