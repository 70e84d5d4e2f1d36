//! Polynomial-based cipher packing (paper §5.2).
//!
//! Given `t` ciphers whose plaintexts are non-negative integers below
//! `2^M`, the packing transformation
//!
//! ```text
//! ⟦V̄⟧ = ⟦V₁⟧ ⊕ 2^M ⊗ (⟦V₂⟧ ⊕ 2^M ⊗ (⟦V₃⟧ ⊕ ···))
//! ```
//!
//! yields a single cipher whose plaintext is the base-`2^M` polynomial
//! `V̄ = V₁ + 2^M·(V₂ + 2^M·(V₃ + ···))`. One decryption then recovers all
//! `t` values by slicing `V̄` into `M`-bit chunks — shrinking both the
//! histogram transfer volume and the number of decryptions by `t×` at the
//! price of `(t−1)` cheap `HAdd`/`SMul` pairs.
//!
//! Slot 1 occupies the least-significant bits.

use num_bigint::BigUint;
use num_traits::{One, ToPrimitive, Zero};

use crate::counters::OpCounters;
use crate::encoding::EncodingConfig;
use crate::error::{CryptoError, Result};
use crate::paillier::{PublicKey, RawCipher};

/// A validated packing layout: how many `M`-bit slots fit one cipher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackingPlan {
    /// Bits per slot (the paper's `M`, default 64).
    pub slot_bits: u32,
    /// Slots per packed cipher (the paper's `t`).
    pub slots: usize,
}

impl PackingPlan {
    /// Largest number of `slot_bits`-wide slots that fit the plaintext
    /// space of `pk` with a 2-bit guard below the modulus.
    pub fn max_slots(pk: &PublicKey, slot_bits: u32) -> usize {
        ((pk.bits().saturating_sub(2)) / slot_bits as u64) as usize
    }

    /// Builds a plan for `slots` slots, validating capacity.
    pub fn new(pk: &PublicKey, slot_bits: u32, slots: usize) -> Result<Self> {
        assert!(slot_bits > 0, "slot width must be positive");
        let max = Self::max_slots(pk, slot_bits);
        if slots == 0 || slots > max {
            return Err(CryptoError::PackingCapacity { requested: slots, max });
        }
        Ok(PackingPlan { slot_bits, slots })
    }

    /// The widest plan the key supports at this slot width.
    pub fn widest(pk: &PublicKey, slot_bits: u32) -> Result<Self> {
        Self::new(pk, slot_bits, Self::max_slots(pk, slot_bits))
    }
}

/// Packs up to `plan.slots` raw ciphers into one cipher.
///
/// Every plaintext must be a non-negative integer strictly below
/// `2^slot_bits` — callers shift histogram bins positive first (§5.2
/// "integration with histograms"). Costs `(len−1)` HAdds and `(len−1)`
/// SMuls by `2^M` (a short-exponent exponentiation).
pub fn pack_ciphers(
    slots: &[RawCipher],
    plan: &PackingPlan,
    pk: &PublicKey,
    counters: &OpCounters,
) -> Result<RawCipher> {
    let Some((top, lower)) = slots.split_last().filter(|_| slots.len() <= plan.slots) else {
        return Err(CryptoError::PackingCapacity { requested: slots.len(), max: plan.slots });
    };
    let shift = BigUint::from(1u32) << plan.slot_bits;
    // Horner evaluation from the most-significant slot down.
    let mut acc = top.clone();
    for c in lower.iter().rev() {
        counters.add_smul(1);
        let shifted = pk.mul_raw_ctr(&acc, &shift, counters);
        counters.add_hadd(1);
        acc = pk.add_raw(c, &shifted);
    }
    counters.add_pack(1);
    Ok(acc)
}

/// Slices a decrypted packed plaintext back into `count` slot values.
///
/// `count` may be less than `plan.slots` when the final packed cipher of a
/// histogram is only partially filled.
pub fn unpack_plaintext(packed: &BigUint, plan: &PackingPlan, count: usize) -> Vec<BigUint> {
    let mask = (BigUint::from(1u32) << plan.slot_bits) - BigUint::from(1u32);
    let mut out = Vec::with_capacity(count);
    let mut rest = packed.clone();
    for _ in 0..count {
        out.push(&rest & &mask);
        rest >>= plan.slot_bits;
    }
    debug_assert!(rest.is_zero() || count < plan.slots, "residual bits beyond requested slots");
    out
}

/// A signed-slot layout packing one `(g, h)` gradient pair — or several,
/// stride-spaced — into a single Paillier plaintext (forward-path packing,
/// after SecureBoost+).
///
/// Each pair occupies `2·slot_bits + guard_bits` bits:
///
/// ```text
///   MSB ──────────────────────────────────────── LSB
///   | guard (carries) |  g slot (W) |  h slot (W) |
/// ```
///
/// Both components are fixed-point integers `round(v · B^exponent)` and the
/// *pair* is stored in two's complement modulo `2^(2W)`: the representative
/// `(g·2^W + h) mod 2^(2W)` is always non-negative, so homomorphic addition
/// of representatives is plain integer addition — each negative pair
/// contributes one `2^(2W)` term that lands in the guard band above the
/// slots and is discarded on decode. Slots are sized so that `count`
/// accumulated pairs of magnitude ≤ `bound` never cross half the slot
/// width, and the guard band absorbs up to `count` carry terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhPlan {
    /// Bits per signed component slot (`W`).
    pub slot_bits: u32,
    /// Carry-guard bits above the pair's `2W` slot bits.
    pub guard_bits: u32,
    /// Pairs per packed plaintext (the forward path uses 1).
    pub pairs: usize,
    /// The fixed encoding exponent every component is normalized to
    /// (`max_exponent` of the encoding's jitter window).
    pub exponent: i32,
    /// Per-value magnitude bound the slots were sized for,
    /// `max(grad_bound, hess_bound)`.
    pub bound: f64,
}

impl GhPlan {
    /// Sizes a single-pair plan for accumulating up to `count` pairs whose
    /// components are bounded by `grad_bound` / `hess_bound`.
    ///
    /// Both bounds are taken explicitly so a caller cannot undersize the
    /// hessian slot: sizing always uses `max(grad_bound, hess_bound)`.
    pub fn new(
        grad_bound: f64,
        hess_bound: f64,
        count: u64,
        encoding: &EncodingConfig,
    ) -> Result<Self> {
        let bound = grad_bound.max(hess_bound);
        if !bound.is_finite() || bound <= 0.0 {
            return Err(CryptoError::EncodingOverflow {
                what: format!("gh-plan bound {bound} is not a positive finite value"),
            });
        }
        let count = count.max(1);
        // Normalize to the top of the jitter window so every jittered cipher
        // can be rescaled *up* into this plan.
        let exponent = encoding.base_exp + encoding.jitter.max(1) as i32 - 1;
        let scale = encoding.base_pow_f64(exponent);
        // Worst-case component sum: count values at ±bound, plus rounding
        // slack folded into the +1. Two extra bits: one sign bit, one spare.
        let max_mag = (count as f64 * bound + 1.0) * scale;
        if !max_mag.is_finite() {
            return Err(CryptoError::EncodingOverflow {
                what: format!("gh-plan magnitude overflows f64 at exponent {exponent}"),
            });
        }
        let slot_bits = max_mag.log2().ceil() as u32 + 2;
        // Up to `count` negative pairs each push one 2^(2W) carry into the
        // guard band; one extra bit of headroom.
        let guard_bits = ((count + 1) as f64).log2().ceil() as u32 + 1;
        Ok(GhPlan { slot_bits, guard_bits, pairs: 1, exponent, bound })
    }

    /// Bits one pair occupies, including its guard band.
    pub fn stride(&self) -> u32 {
        2 * self.slot_bits + self.guard_bits
    }

    /// Largest number of stride-spaced pairs that fit the plaintext space
    /// of `pk` with a 2-bit guard below the modulus.
    fn max_pairs(&self, pk: &PublicKey) -> usize {
        ((pk.bits().saturating_sub(2)) / self.stride() as u64) as usize
    }

    /// Validates that this plan's `pairs` stride-spaced pairs fit `pk`.
    pub fn validate_capacity(&self, pk: &PublicKey) -> Result<()> {
        let max = self.max_pairs(pk);
        if self.pairs == 0 || self.pairs > max {
            return Err(CryptoError::PackingCapacity { requested: self.pairs, max });
        }
        Ok(())
    }

    /// Fixed-point component `round(v · B^exponent)`, range-checked against
    /// the bound the plan was sized for.
    fn encode_component(&self, v: f64, encoding: &EncodingConfig) -> Result<i128> {
        if !v.is_finite() {
            return Err(CryptoError::EncodingOverflow { what: format!("non-finite value {v}") });
        }
        let scale = encoding.base_pow_f64(self.exponent);
        let scaled = (v * scale).round();
        if scaled.abs() > (self.bound * scale + 1.0).min(i128::MAX as f64) {
            return Err(CryptoError::EncodingOverflow {
                what: format!("{v} exceeds gh-plan bound {}", self.bound),
            });
        }
        Ok(scaled as i128)
    }

    /// Encodes one `(g, h)` pair into its non-negative two's-complement
    /// representative `(g·2^W + h) mod 2^(2W)`.
    pub fn encode_pair(&self, g: f64, h: f64, encoding: &EncodingConfig) -> Result<BigUint> {
        let gi = self.encode_component(g, encoding)?;
        let hi = self.encode_component(h, encoding)?;
        let w = self.slot_bits;
        let g_shift = u128_to_biguint(gi.unsigned_abs()) << w;
        let h_mag = u128_to_biguint(hi.unsigned_abs());
        let m = BigUint::one() << (2 * w);
        Ok(match (gi >= 0, hi >= 0) {
            (true, true) => g_shift + h_mag,
            (true, false) => {
                if g_shift >= h_mag {
                    g_shift - h_mag
                } else {
                    m - (h_mag - g_shift)
                }
            }
            (false, true) => {
                if h_mag >= g_shift {
                    h_mag - g_shift
                } else {
                    m - (g_shift - h_mag)
                }
            }
            (false, false) => m - (g_shift + h_mag),
        })
    }

    /// Encodes up to `self.pairs` pairs, stride-spaced, into one plaintext.
    /// Pair 0 occupies the least-significant bits.
    pub fn encode_pairs(&self, gh: &[(f64, f64)], encoding: &EncodingConfig) -> Result<BigUint> {
        if gh.is_empty() || gh.len() > self.pairs {
            return Err(CryptoError::PackingCapacity { requested: gh.len(), max: self.pairs });
        }
        let mut acc = BigUint::zero();
        for (j, &(g, h)) in gh.iter().enumerate() {
            // Zones are disjoint, so addition places each representative
            // exactly at its stride offset.
            acc += self.encode_pair(g, h, encoding)? << (j * self.stride() as usize);
        }
        Ok(acc)
    }

    /// Decodes `count` accumulated pair sums from a decrypted plaintext.
    ///
    /// For each pair zone the `2W` slot bits are `(G·2^W + H) mod 2^(2W)`
    /// for component sums `G`, `H`; carries above are masked off. The low
    /// slot yields `H` directly; when `H` is negative the high slot holds
    /// `G − 1` (the borrow the negative low part took), so one is added
    /// back.
    pub fn decode_pairs(
        &self,
        x: &BigUint,
        count: usize,
        encoding: &EncodingConfig,
    ) -> Vec<(f64, f64)> {
        let w = self.slot_bits;
        let stride = self.stride() as usize;
        let pair_mask = (BigUint::one() << (2 * w)) - BigUint::one();
        let w_mask = (BigUint::one() << w) - BigUint::one();
        let scale = encoding.base_pow_f64(self.exponent);
        let mut out = Vec::with_capacity(count);
        let mut rest = x.clone();
        for _ in 0..count {
            let pair_bits = &rest & &pair_mask;
            let low = &pair_bits & &w_mask;
            let high = pair_bits >> w;
            let (h_neg, h_mag) = split_signed(&low, w);
            let (mut g_neg, mut g_mag) = split_signed(&high, w);
            if h_neg {
                // Borrow correction: the negative low slot took one unit
                // from the high slot, so g = signed(high) + 1.
                if g_neg {
                    g_mag = g_mag - BigUint::one();
                    if g_mag.is_zero() {
                        g_neg = false;
                    }
                } else {
                    g_mag += BigUint::one();
                }
            }
            out.push((signed_f64(g_neg, &g_mag) / scale, signed_f64(h_neg, &h_mag) / scale));
            rest >>= stride;
        }
        out
    }

    /// Decodes a single-pair plaintext.
    pub fn decode_pair(&self, x: &BigUint, encoding: &EncodingConfig) -> (f64, f64) {
        self.decode_pairs(x, 1, encoding)[0]
    }
}

/// Interprets a `w`-bit slot as two's complement, returning sign and
/// magnitude. The top bit set means negative: `value = u − 2^w`.
fn split_signed(u: &BigUint, w: u32) -> (bool, BigUint) {
    if u.bits() == w as u64 {
        (true, (BigUint::one() << w) - u)
    } else {
        (false, u.clone())
    }
}

fn signed_f64(neg: bool, mag: &BigUint) -> f64 {
    let v = mag.to_f64().unwrap_or(f64::INFINITY);
    if neg {
        -v
    } else {
        v
    }
}

fn u128_to_biguint(v: u128) -> BigUint {
    (BigUint::from((v >> 64) as u64) << 64u32) + BigUint::from(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (KeyPair, OpCounters, StdRng) {
        (
            KeyPair::generate_seeded(512, 42).unwrap(),
            OpCounters::default(),
            StdRng::seed_from_u64(3),
        )
    }

    #[test]
    fn max_slots_respects_guard_band() {
        let (kp, _, _) = setup();
        // 512-bit n, 64-bit slots, 2-bit guard: (512-2)/64 = 7.
        assert_eq!(PackingPlan::max_slots(&kp.public, 64), 7);
        assert!(PackingPlan::new(&kp.public, 64, 8).is_err());
        assert!(PackingPlan::new(&kp.public, 64, 7).is_ok());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 64, 7).unwrap();
        let values: Vec<u64> = vec![0, 1, u64::MAX, 42, 7, 123456789, u64::MAX - 1];
        let ciphers: Vec<_> =
            values.iter().map(|&v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng)).collect();
        let packed = pack_ciphers(&ciphers, &plan, &kp.public, &ctr).unwrap();
        let plain = kp.private.decrypt_raw(&packed);
        let unpacked = unpack_plaintext(&plain, &plan, values.len());
        for (got, want) in unpacked.iter().zip(&values) {
            assert_eq!(got, &BigUint::from(*want));
        }
    }

    #[test]
    fn partial_pack_round_trip() {
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 32, 4).unwrap();
        let values: Vec<u64> = vec![5, 10]; // fewer than plan.slots
        let ciphers: Vec<_> =
            values.iter().map(|&v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng)).collect();
        let packed = pack_ciphers(&ciphers, &plan, &kp.public, &ctr).unwrap();
        let plain = kp.private.decrypt_raw(&packed);
        let unpacked = unpack_plaintext(&plain, &plan, 2);
        assert_eq!(unpacked, vec![BigUint::from(5u32), BigUint::from(10u32)]);
    }

    #[test]
    fn packing_cost_is_t_minus_one_ops() {
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 64, 5).unwrap();
        let ciphers: Vec<_> =
            (0..5u64).map(|v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng)).collect();
        pack_ciphers(&ciphers, &plan, &kp.public, &ctr).unwrap();
        let s = ctr.snapshot();
        assert_eq!(s.hadd, 4);
        assert_eq!(s.smul, 4);
        assert_eq!(s.packs, 1);
    }

    #[test]
    fn empty_and_oversized_inputs_rejected() {
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 64, 2).unwrap();
        assert!(pack_ciphers(&[], &plan, &kp.public, &ctr).is_err());
        let ciphers: Vec<_> =
            (0..3u64).map(|v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng)).collect();
        assert!(pack_ciphers(&ciphers, &plan, &kp.public, &ctr).is_err());
    }

    #[test]
    fn homomorphic_add_then_pack_preserves_sums() {
        // Pack sums of ciphers (the histogram use case).
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 64, 3).unwrap();
        let a = kp.public.encrypt_raw(&BigUint::from(100u32), &mut rng);
        let b = kp.public.encrypt_raw(&BigUint::from(23u32), &mut rng);
        let bin0 = kp.public.add_raw(&a, &b); // 123
        let bin1 = kp.public.encrypt_raw(&BigUint::from(7u32), &mut rng);
        let bin2 = kp.public.encrypt_raw(&BigUint::from(0u32), &mut rng);
        let packed = pack_ciphers(&[bin0, bin1, bin2], &plan, &kp.public, &ctr).unwrap();
        let plain = kp.private.decrypt_raw(&packed);
        let out = unpack_plaintext(&plain, &plan, 3);
        assert_eq!(out, vec![BigUint::from(123u32), BigUint::from(7u32), BigUint::from(0u32)]);
    }

    fn test_encoding() -> EncodingConfig {
        // Matches TrainConfig::for_tests: B=16, e₀=8, jitter 4 ⇒ emax = 11.
        EncodingConfig { base: 16, base_exp: 8, jitter: 4 }
    }

    fn assert_pair_close(got: (f64, f64), want: (f64, f64), tol: f64) {
        assert!((got.0 - want.0).abs() < tol, "g: {} vs {}", got.0, want.0);
        assert!((got.1 - want.1).abs() < tol, "h: {} vs {}", got.1, want.1);
    }

    #[test]
    fn gh_plan_round_trips_boundary_values_count_one() {
        let enc = test_encoding();
        let bound = 4.0;
        let plan = GhPlan::new(bound, bound, 1, &enc).unwrap();
        assert_eq!(plan.exponent, 11);
        // Guard-band boundary values: all sign combinations of ±bound, plus
        // zero crossings and tiny magnitudes.
        for &(g, h) in &[
            (bound, bound),
            (bound, -bound),
            (-bound, bound),
            (-bound, -bound),
            (0.0, 0.0),
            (0.0, -bound),
            (-bound, 0.0),
            (1e-6, -1e-6),
            (0.125, -3.999),
        ] {
            let rep = plan.encode_pair(g, h, &enc).unwrap();
            assert_pair_close(plan.decode_pair(&rep, &enc), (g, h), 1e-6);
        }
    }

    #[test]
    fn gh_plan_accumulates_count_max_pairs_at_bound() {
        // count = max rows per node: every row pinned at the worst corner
        // of the guard band, all four sign quadrants.
        let enc = test_encoding();
        let bound = 1.0;
        let count = 5000u64;
        let plan = GhPlan::new(bound, bound, count, &enc).unwrap();
        for &(g, h) in &[(bound, bound), (bound, -bound), (-bound, bound), (-bound, -bound)] {
            let rep = plan.encode_pair(g, h, &enc).unwrap();
            let mut acc = BigUint::zero();
            for _ in 0..count {
                acc += &rep; // plaintext analogue of HAdd on representatives
            }
            let n = count as f64;
            assert_pair_close(plan.decode_pair(&acc, &enc), (g * n, h * n), 1e-6 * n);
        }
    }

    #[test]
    fn gh_plan_accumulates_mixed_signs_exactly() {
        let enc = test_encoding();
        let plan = GhPlan::new(2.0, 2.0, 64, &enc).unwrap();
        let mut acc = BigUint::zero();
        let (mut gs, mut hs) = (0.0f64, 0.0f64);
        for i in 0..64 {
            let g = if i % 3 == 0 { -1.75 } else { 0.5 + (i as f64) * 0.01 };
            let h = if i % 2 == 0 { 0.25 } else { -0.125 };
            gs += g;
            hs += h;
            acc += plan.encode_pair(g, h, &enc).unwrap();
        }
        assert_pair_close(plan.decode_pair(&acc, &enc), (gs, hs), 1e-5);
    }

    #[test]
    fn gh_plan_undersized_hessian_bound_is_impossible() {
        // Satellite: sizing must use max(grad_bound, hess_bound) — a large
        // hessian bound with a tiny grad bound still round-trips.
        let enc = test_encoding();
        let plan = GhPlan::new(0.25, 8.0, 16, &enc).unwrap();
        let rep = plan.encode_pair(0.25, -8.0, &enc).unwrap();
        assert_pair_close(plan.decode_pair(&rep, &enc), (0.25, -8.0), 1e-6);
    }

    #[test]
    fn gh_plan_rejects_out_of_bound_components() {
        let enc = test_encoding();
        let plan = GhPlan::new(1.0, 1.0, 8, &enc).unwrap();
        assert!(plan.encode_pair(3.0, 0.0, &enc).is_err());
        assert!(plan.encode_pair(0.0, f64::NAN, &enc).is_err());
        assert!(GhPlan::new(0.0, 0.0, 8, &enc).is_err());
        assert!(GhPlan::new(f64::INFINITY, 1.0, 8, &enc).is_err());
    }

    #[test]
    fn gh_plan_multi_pair_stride_round_trip() {
        let (kp, _, _) = setup();
        let enc = test_encoding();
        let base = GhPlan::new(1.0, 1.0, 32, &enc).unwrap();
        let max = base.max_pairs(&kp.public);
        assert!(max >= 2, "512-bit key should fit at least two pairs");
        let plan = GhPlan { pairs: max, ..base };
        plan.validate_capacity(&kp.public).unwrap();
        assert!(GhPlan { pairs: max + 1, ..base }.validate_capacity(&kp.public).is_err());
        let rows: Vec<(f64, f64)> =
            (0..max).map(|i| (((i % 5) as f64 - 2.0) / 4.0, 0.9 - (i % 3) as f64 * 0.7)).collect();
        // Two batches summed: per-zone accumulation must stay independent.
        let a = plan.encode_pairs(&rows, &enc).unwrap();
        let b = plan.encode_pairs(&rows, &enc).unwrap();
        let sum = a + b;
        let decoded = plan.decode_pairs(&sum, max, &enc);
        for (got, want) in decoded.iter().zip(&rows) {
            assert_pair_close(*got, (2.0 * want.0, 2.0 * want.1), 1e-6);
        }
    }

    #[test]
    fn gh_plan_end_to_end_through_paillier() {
        let (kp, _ctr, mut rng) = setup();
        let enc = test_encoding();
        let count = 40u64;
        let plan = GhPlan::new(1.0, 1.0, count, &enc).unwrap();
        plan.validate_capacity(&kp.public).unwrap();
        let mut acc = kp.public.zero_raw();
        let (mut gs, mut hs) = (0.0f64, 0.0f64);
        for i in 0..count {
            let g = ((i as f64) / count as f64) - 0.5;
            let h = 0.25 - ((i % 7) as f64) * 0.05;
            gs += g;
            hs += h;
            let rep = plan.encode_pair(g, h, &enc).unwrap();
            let c = kp.public.encrypt_raw(&rep, &mut rng);
            acc = kp.public.add_raw(&acc, &c); // HAdd on packed pairs
        }
        let plain = kp.private.decrypt_raw(&acc);
        assert_pair_close(plan.decode_pair(&plain, &enc), (gs, hs), 1e-5);
    }

    #[test]
    fn gh_plan_capacity_tracks_key_size() {
        let (kp, _, _) = setup();
        let enc = test_encoding();
        let plan = GhPlan::new(1.0, 1.0, 1u64 << 40, &enc).unwrap();
        // A huge per-node count inflates the stride; capacity shrinks
        // accordingly but single-pair must still fit a 512-bit key.
        assert!(plan.validate_capacity(&kp.public).is_ok());
        assert!(plan.stride() as u64 <= kp.public.bits().saturating_sub(2));
    }
}
