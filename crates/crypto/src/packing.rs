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

use num_bigint::{BigInt, BigUint};
use num_traits::{One, Zero};

use crate::counters::OpCounters;
use crate::encoding::{EncodingConfig, FixedPoint};
use crate::error::{CryptoError, Result};
use crate::montgomery::{MontCost, Resident};
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
    /// A zero-width slot holds nothing: no such slot fits.
    pub fn max_slots(pk: &PublicKey, slot_bits: u32) -> usize {
        pk.bits().saturating_sub(2).checked_div(u64::from(slot_bits)).unwrap_or(0) as usize
    }

    /// Builds a plan for `slots` slots, validating capacity.
    pub fn new(pk: &PublicKey, slot_bits: u32, slots: usize) -> Result<Self> {
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
/// "integration with histograms"). Each slot enters the key's resident
/// form once and [`pack_resident`] does the rest.
pub fn pack_ciphers(
    slots: &[RawCipher],
    plan: &PackingPlan,
    pk: &PublicKey,
    counters: &OpCounters,
) -> Result<RawCipher> {
    let mut cost = MontCost::default();
    let entered: Vec<Resident> = slots.iter().map(|c| pk.enter(c, &mut cost)).collect();
    counters.add_cost(cost);
    pack_resident(&entered.iter().collect::<Vec<_>>(), plan, None, pk, counters)
}

/// The Horner kernel behind every packed cipher: `t` resident slots,
/// slot 0 least significant, fold into
/// `⟦V₁⟧ ⊕ 2^M ⊗ (⟦V₂⟧ ⊕ 2^M ⊗ (···))` — per lower slot one Horner step
/// (`M` squarings, one multiplication), counted as one SMul and one HAdd —
/// and the result leaves the resident form once.
///
/// `top_up`, when given, is a plaintext `K` added to the packed value as
/// one factor `g^K = 1 + K·n` (one more HAdd): a caller that would top
/// every slot `j` up by `kⱼ` passes `K = Σⱼ kⱼ·2^(M·j)` instead, the same
/// integer modulo `n²` at one multiplication per packed cipher.
pub fn pack_resident(
    slots: &[&Resident],
    plan: &PackingPlan,
    top_up: Option<&BigUint>,
    pk: &PublicKey,
    counters: &OpCounters,
) -> Result<RawCipher> {
    let Some((top, lower)) = slots.split_last().filter(|_| slots.len() <= plan.slots) else {
        return Err(CryptoError::PackingCapacity { requested: slots.len(), max: plan.slots });
    };
    let mut cost = MontCost::default();
    let mut acc = (*top).clone();
    for c in lower.iter().rev() {
        pk.horner_step(&mut acc, plan.slot_bits, c, &mut cost)?;
    }
    let mut hadds = lower.len() as u64;
    if let Some(k) = top_up {
        let factor = pk.enter(&pk.encrypt_raw_with_rn(k, &pk.zero_raw()), &mut cost);
        pk.mul_assign(&mut acc, &factor, &mut cost)?;
        hadds += 1;
    }
    let packed = pk.leave(&acc, &mut cost)?;
    counters.add_smul(lower.len() as u64);
    counters.add_hadd(hadds);
    counters.add_pack(1);
    counters.add_cost(cost);
    Ok(packed)
}

/// Slices a decrypted packed plaintext back into `count` slot values.
///
/// `count` may be less than `plan.slots` when the final packed cipher of a
/// histogram is only partially filled. An honest packer leaves nothing
/// above the `count` slots; bits there mean some slot overflowed its width
/// (or the peer lied about the layout) and are
/// [`CryptoError::PackedValueTooLarge`] at slot index `count`.
pub fn unpack_plaintext(
    packed: &BigUint,
    plan: &PackingPlan,
    count: usize,
) -> Result<Vec<BigUint>> {
    let mask = (BigUint::from(1u32) << plan.slot_bits) - BigUint::from(1u32);
    let mut out = Vec::with_capacity(count);
    let mut rest = packed.clone();
    for _ in 0..count {
        out.push(&rest & &mask);
        rest >>= plan.slot_bits;
    }
    if !rest.is_zero() {
        return Err(CryptoError::PackedValueTooLarge { slot: count });
    }
    Ok(out)
}

/// The carry-free offset layout packing one `(g, h)` gradient pair into a
/// single Paillier plaintext (forward-path packing, after SecureBoost+).
///
/// With `ĝ`, `ĥ` the fixed-point integers `round(v · B^exponent)`, a row is
/// encrypted as
///
/// ```text
///   MSB ─────────────────────────────── LSB
///   |  ĝ + B_g  (g_bits)  |  ĥ  (h_bits)  |
/// ```
///
/// where `B_g = ⌈grad_bound · B^exponent⌉ + 1` exceeds every `|ĝ|`, so both
/// fields are non-negative and homomorphic addition is plain integer
/// addition per field: `g_bits = bits(2·N·B_g)` and `h_bits = bits(N·B_h)`
/// hold the sum of `N = count` rows, so no addition ever carries out of a
/// field — no guard band, no borrow correction. A bin that accumulated
/// `n` rows carries the offset `n·B_g`; the host tops it up by the public
/// [`GhPlan::top_up`] so that every bin the key owner decrypts carries
/// exactly `N·B_g`, which [`GhPlan::decode_pair`] removes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhPlan {
    /// Bits of the offset gradient field, `bits(2·N·B_g)`.
    g_bits: u32,
    /// Bits of the hessian field, `bits(N·B_h)`.
    h_bits: u32,
    /// The fixed encoding exponent every component is normalized to.
    exponent: i32,
    /// Rows one bin may accumulate (`N`, the instance count).
    count: u64,
    /// `B^exponent`, the fixed-point scale.
    scale: f64,
    /// `B_g − 1 = ⌈grad_bound · scale⌉`: the largest admissible `|ĝ|`.
    g_max: u128,
    /// `B_h − 1 = ⌈hess_bound · scale⌉`: the largest admissible `ĥ`.
    h_max: u128,
}

/// Bits needed to write `v` (`0` for zero).
fn bits(v: u128) -> u32 {
    128 - v.leading_zeros()
}

impl GhPlan {
    /// Sizes the layout for bins accumulating up to `count` pairs with
    /// `|g| ≤ grad_bound` and `0 ≤ h ≤ hess_bound`.
    pub fn new(
        grad_bound: f64,
        hess_bound: f64,
        count: u64,
        encoding: &EncodingConfig,
    ) -> Result<Self> {
        // Normalize to the top of the jitter window, the exponent the
        // return path packs at.
        let exponent = encoding.base_exp + encoding.jitter.max(1) as i32 - 1;
        let scale = encoding.base_pow_f64(exponent);
        // Row counts travel as `u32`, and 2^94 per value keeps every field
        // product below inside `u128`.
        let count = count.max(1);
        if count > u64::from(u32::MAX) {
            return Err(CryptoError::EncodingOverflow {
                what: format!("gh-plan count {count} exceeds the u32 row range"),
            });
        }
        let field_max = |bound: f64| {
            let max = (bound * scale).ceil();
            if bound > 0.0 && max < 2f64.powi(94) {
                Ok(max as u128)
            } else {
                Err(CryptoError::EncodingOverflow {
                    what: format!("gh-plan bound {bound} at exponent {exponent}"),
                })
            }
        };
        let (g_max, h_max) = (field_max(grad_bound)?, field_max(hess_bound)?);
        let n = u128::from(count);
        Ok(GhPlan {
            g_bits: bits(2 * n * (g_max + 1)),
            h_bits: bits(n * (h_max + 1)),
            exponent,
            count,
            scale,
            g_max,
            h_max,
        })
    }

    /// The exponent every pair is encoded at: the top of the encoding's
    /// jitter window, which the return path packs at.
    pub fn exponent(&self) -> i32 {
        self.exponent
    }

    /// Bits one pair occupies — the return path's slot width.
    pub fn pair_bits(&self) -> u32 {
        self.g_bits + self.h_bits
    }

    /// How many accumulated bins one packed cipher under `pk` carries.
    pub fn bins_per_cipher(&self, pk: &PublicKey) -> usize {
        PackingPlan::max_slots(pk, self.pair_bits())
    }

    /// Rejects a plan whose single pair does not fit the key.
    pub fn validate_capacity(&self, pk: &PublicKey) -> Result<()> {
        match self.bins_per_cipher(pk) {
            0 => Err(CryptoError::PackingCapacity { requested: 1, max: 0 }),
            _ => Ok(()),
        }
    }

    /// Fixed-point component `round(v · scale)`, range-checked against the
    /// magnitude the field was sized for.
    fn fixed(&self, v: f64, max: u128) -> Result<i128> {
        let scaled = (v * self.scale).round();
        // `max` came out of an `f64` below 2^94, so the cast back is exact.
        if !v.is_finite() || scaled.abs() > max as f64 {
            return Err(CryptoError::EncodingOverflow {
                what: format!("{v} outside the gh-plan bound {}", max as f64 / self.scale),
            });
        }
        Ok(scaled as i128)
    }

    /// Encodes one `(g, h)` pair as `(ĝ + B_g)·2^h_bits + ĥ`.
    pub fn encode_pair(&self, g: f64, h: f64) -> Result<BigUint> {
        let gi = self.fixed(g, self.g_max)?;
        let hi = self.fixed(h, self.h_max)?;
        if hi < 0 {
            return Err(CryptoError::EncodingOverflow { what: format!("negative hessian {h}") });
        }
        let top = (gi + self.g_max as i128 + 1).unsigned_abs();
        Ok((BigUint::from(top) << self.h_bits) + BigUint::from(hi.unsigned_abs()))
    }

    /// The public plaintext a bin of `rows` accumulated pairs is topped up
    /// by, `(N − rows)·B_g·2^h_bits`: afterwards the bin carries the same
    /// offset `N·B_g` as every other, whatever its row count was.
    pub fn top_up(&self, rows: u64) -> Result<BigUint> {
        let missing = self.count.checked_sub(rows).ok_or(CryptoError::PackingCapacity {
            requested: rows as usize,
            max: self.count as usize,
        })?;
        Ok(BigUint::from(u128::from(missing) * (self.g_max + 1)) << self.h_bits)
    }

    /// The largest `|Σĝ|` and `Σĥ` a bin of `rows` bounded pairs can hold.
    pub fn field_limits(&self, rows: u64) -> (BigUint, BigUint) {
        let rows = BigUint::from(rows);
        (&rows * BigUint::from(self.g_max), rows * BigUint::from(self.h_max))
    }

    /// Decodes a topped-up bin's `pair_bits`-wide plaintext — slot `slot`
    /// of its packed run — into its `(Σĝ, Σĥ)` fixed-point sums, the
    /// `N·B_g` offset removed. A field outside what `count` bounded pairs
    /// can sum to is [`CryptoError::PackedValueTooLarge`] at that slot.
    pub fn decode_pair(&self, x: &BigUint, slot: usize) -> Result<(FixedPoint, FixedPoint)> {
        let low = x & &((BigUint::one() << self.h_bits) - BigUint::one());
        let offset = BigUint::from(u128::from(self.count) * (self.g_max + 1));
        let g = BigInt::from(x >> self.h_bits) - BigInt::from(offset);
        let (g_limit, h_limit) = self.field_limits(self.count);
        if g.magnitude() > &g_limit || low > h_limit {
            return Err(CryptoError::PackedValueTooLarge { slot });
        }
        let at = |mantissa| FixedPoint { mantissa, exponent: self.exponent };
        Ok((at(g), at(BigInt::from(low))))
    }
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
        let ciphers: Vec<_> = values
            .iter()
            .map(|&v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng, &ctr))
            .collect();
        let packed = pack_ciphers(&ciphers, &plan, &kp.public, &ctr).unwrap();
        let plain = kp.private.decrypt_raw(&packed, &ctr);
        let unpacked = unpack_plaintext(&plain, &plan, values.len()).unwrap();
        for (got, want) in unpacked.iter().zip(&values) {
            assert_eq!(got, &BigUint::from(*want));
        }
    }

    #[test]
    fn partial_pack_round_trip() {
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 32, 4).unwrap();
        let values: Vec<u64> = vec![5, 10]; // fewer than plan.slots
        let ciphers: Vec<_> = values
            .iter()
            .map(|&v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng, &ctr))
            .collect();
        let packed = pack_ciphers(&ciphers, &plan, &kp.public, &ctr).unwrap();
        let plain = kp.private.decrypt_raw(&packed, &ctr);
        let unpacked = unpack_plaintext(&plain, &plan, 2).unwrap();
        assert_eq!(unpacked, vec![BigUint::from(5u32), BigUint::from(10u32)]);
    }

    #[test]
    fn packing_cost_is_t_minus_one_ops() {
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 64, 5).unwrap();
        let ciphers: Vec<_> =
            (0..5u64).map(|v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng, &ctr)).collect();
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
            (0..3u64).map(|v| kp.public.encrypt_raw(&BigUint::from(v), &mut rng, &ctr)).collect();
        assert!(pack_ciphers(&ciphers, &plan, &kp.public, &ctr).is_err());
    }

    #[test]
    fn homomorphic_add_then_pack_preserves_sums() {
        // Pack sums of ciphers (the histogram use case).
        let (kp, ctr, mut rng) = setup();
        let plan = PackingPlan::new(&kp.public, 64, 3).unwrap();
        let a = kp.public.encrypt_raw(&BigUint::from(100u32), &mut rng, &ctr);
        let b = kp.public.encrypt_raw(&BigUint::from(23u32), &mut rng, &ctr);
        let bin0 = kp.public.add_raw(&a, &b); // 123
        let bin1 = kp.public.encrypt_raw(&BigUint::from(7u32), &mut rng, &ctr);
        let bin2 = kp.public.encrypt_raw(&BigUint::from(0u32), &mut rng, &ctr);
        let packed = pack_ciphers(&[bin0, bin1, bin2], &plan, &kp.public, &ctr).unwrap();
        let plain = kp.private.decrypt_raw(&packed, &ctr);
        let out = unpack_plaintext(&plain, &plan, 3).unwrap();
        assert_eq!(out, vec![BigUint::from(123u32), BigUint::from(7u32), BigUint::from(0u32)]);
    }

    fn test_encoding() -> EncodingConfig {
        // Matches TrainConfig::for_tests: B=16, e₀=8, jitter 4 ⇒ emax = 11.
        EncodingConfig { base: 16, base_exp: 8, jitter: 4 }
    }

    /// Logistic-loss bounds, as every benchmark workload uses them.
    const GRAD_BOUND: f64 = 1.0;
    const HESS_BOUND: f64 = 0.25;

    /// `(N, key_bits) → (pair_bits, bins per cipher)` under the default
    /// encoding (scale 2^52): the densities the return path is sized on. A
    /// wider field or a reintroduced guard band fails here first.
    const DENSITY: [(u64, u64, u32, u64); 5] = [
        (160, 2048, 119, 17),
        (1200, 512, 125, 4),
        (1250, 512, 125, 4),
        (1_000_000, 2048, 143, 14),
        (10_000_000, 2048, 151, 13),
    ];

    #[test]
    fn gh_plan_density_table_is_pinned() {
        for (n, key_bits, pair_bits, bins) in DENSITY {
            let plan = GhPlan::new(GRAD_BOUND, HESS_BOUND, n, &EncodingConfig::default()).unwrap();
            assert_eq!(plan.exponent(), 13);
            assert_eq!(plan.pair_bits(), pair_bits, "N = {n}");
            // `PackingPlan::max_slots` on a key of exactly `key_bits` bits.
            assert_eq!((key_bits - 2) / u64::from(pair_bits), bins, "N = {n}, S = {key_bits}");
        }
        let (kp, _, _) = setup();
        assert_eq!(kp.public.bits(), 512);
        let plan = GhPlan::new(GRAD_BOUND, HESS_BOUND, 1200, &EncodingConfig::default()).unwrap();
        assert_eq!(plan.bins_per_cipher(&kp.public), 4);
    }

    /// One histogram bin as the host holds it: the HAdd-accumulated cipher
    /// and the plain row count beside it.
    struct Bin {
        cipher: RawCipher,
        rows: u64,
    }

    fn accumulate(
        kp: &KeyPair,
        plan: &GhPlan,
        pairs: &[(f64, f64)],
        rng: &mut StdRng,
    ) -> Result<Bin> {
        let mut cipher = kp.public.zero_raw();
        for &(g, h) in pairs {
            let c = kp.public.encrypt_raw(&plan.encode_pair(g, h)?, rng, &OpCounters::default());
            cipher = kp.public.add_raw(&cipher, &c);
        }
        Ok(Bin { cipher, rows: pairs.len() as u64 })
    }

    /// Tops every bin up, packs them into one cipher, decrypts once and
    /// decodes — the whole return path.
    fn top_up_pack_decode(kp: &KeyPair, plan: &GhPlan, bins: &[Bin]) -> Result<Vec<(f64, f64)>> {
        let pk = &kp.public;
        let ctr = OpCounters::default();
        let topped: Vec<RawCipher> = bins
            .iter()
            .map(|b| {
                let shift = pk.encrypt_raw_with_rn(&plan.top_up(b.rows)?, &pk.zero_raw());
                Ok(pk.add_raw(&b.cipher, &shift))
            })
            .collect::<Result<_>>()?;
        let wire = PackingPlan::new(pk, plan.pair_bits(), topped.len())?;
        let packed = pack_ciphers(&topped, &wire, pk, &ctr)?;
        let plain = kp.private.decrypt_raw(&packed, &ctr);
        unpack_plaintext(&plain, &wire, topped.len())?
            .iter()
            .enumerate()
            .map(|(slot, bits)| {
                let (g, h) = plan.decode_pair(bits, slot)?;
                Ok((g.to_f64(&test_encoding()), h.to_f64(&test_encoding())))
            })
            .collect()
    }

    /// The plaintext reference: exact integer sums at the plan's scale.
    fn reference(pairs: &[(f64, f64)]) -> (f64, f64) {
        let scale = test_encoding().base_pow_f64(11);
        let sum = |f: fn(&(f64, f64)) -> f64| {
            pairs.iter().map(|p| (f(p) * scale).round() as i64).sum::<i64>() as f64 / scale
        };
        (sum(|p| p.0), sum(|p| p.1))
    }

    #[test]
    fn gh_plan_survives_count_pairs_at_every_corner_through_paillier() {
        let enc = test_encoding();
        let count = 48u64;
        for key_bits in [256, 512] {
            let kp = KeyPair::generate_seeded(key_bits, 42).unwrap();
            let mut rng = StdRng::seed_from_u64(key_bits);
            let plan = GhPlan::new(GRAD_BOUND, HESS_BOUND, count, &enc).unwrap();
            let slots = plan.bins_per_cipher(&kp.public);
            assert!(slots >= 2, "S = {key_bits} carries {slots} bins");
            let corners: [Vec<(f64, f64)>; 3] = [
                vec![(GRAD_BOUND, HESS_BOUND); count as usize],
                vec![(-GRAD_BOUND, 0.0); count as usize],
                (0..count)
                    .map(|i| if i % 2 == 0 { (GRAD_BOUND, HESS_BOUND) } else { (-GRAD_BOUND, 0.0) })
                    .collect(),
            ];
            for full in &corners {
                // Slot 0 holds exactly `count` pairs at the corner; the
                // others fill the cipher to its last slot with fewer rows
                // (one of them none), so every top-up size is exercised
                // next to a field at its limit.
                let rows: Vec<&[(f64, f64)]> = (0..slots)
                    .map(|j| &full[..full.len() * (slots - 1 - j) / (slots - 1)])
                    .collect();
                let bins: Vec<Bin> = rows
                    .iter()
                    .map(|pairs| accumulate(&kp, &plan, pairs, &mut rng).unwrap())
                    .collect();
                let got = top_up_pack_decode(&kp, &plan, &bins).unwrap();
                let want: Vec<(f64, f64)> = rows.iter().map(|pairs| reference(pairs)).collect();
                assert_eq!(got, want, "S = {key_bits}");
                assert_eq!(got[slots - 1], (0.0, 0.0), "the empty bin decodes to zero");
            }
        }
    }

    #[test]
    fn gh_plan_one_pair_past_count_is_a_typed_error() {
        let (kp, _, mut rng) = setup();
        let plan = GhPlan::new(GRAD_BOUND, HESS_BOUND, 8, &test_encoding()).unwrap();
        for corner in [(GRAD_BOUND, HESS_BOUND), (-GRAD_BOUND, 0.0)] {
            // The honest host cannot top a ninth row up.
            let over = accumulate(&kp, &plan, &[corner; 9], &mut rng).unwrap();
            assert_eq!(
                plan.top_up(over.rows),
                Err(CryptoError::PackingCapacity { requested: 9, max: 8 })
            );
        }
        // A host that lies about the count is caught on decode whenever a
        // field left the range eight bounded pairs can reach (what a host
        // claims *inside* that range is its own data, and unverifiable).
        let over = accumulate(&kp, &plan, &[(GRAD_BOUND, HESS_BOUND); 9], &mut rng).unwrap();
        assert_eq!(
            top_up_pack_decode(&kp, &plan, &[Bin { rows: 8, ..over }]),
            Err(CryptoError::PackedValueTooLarge { slot: 0 })
        );
    }

    #[test]
    fn gh_plan_rejects_values_outside_its_bounds() {
        let enc = test_encoding();
        let plan = GhPlan::new(GRAD_BOUND, HESS_BOUND, 8, &enc).unwrap();
        for (g, h) in [
            (1.0 + 1e-9, 0.1),
            (-1.0 - 1e-9, 0.1),
            (0.0, -1e-9),
            (0.0, 0.25 + 1e-9),
            (f64::NAN, 0.1),
            (0.0, f64::INFINITY),
        ] {
            let err = plan.encode_pair(g, h).unwrap_err();
            assert!(matches!(err, CryptoError::EncodingOverflow { .. }), "({g}, {h}): {err}");
        }
        plan.encode_pair(-1.0, 0.25).unwrap();
        plan.encode_pair(1.0, -0.0).unwrap();
        for (gb, hb) in [(0.0, 1.0), (1.0, 0.0), (f64::INFINITY, 1.0), (1.0, f64::NAN), (1e30, 1.0)]
        {
            assert!(GhPlan::new(gb, hb, 8, &enc).is_err(), "bounds ({gb}, {hb})");
        }
        assert!(GhPlan::new(1.0, 1.0, 1 << 32, &enc).is_err(), "rows are counted in u32");
    }

    #[test]
    fn gh_plan_that_does_not_fit_the_key_is_a_typed_error() {
        let kp = KeyPair::generate_seeded(128, 42).unwrap();
        let enc = test_encoding();
        let fits = GhPlan::new(GRAD_BOUND, HESS_BOUND, 1000, &enc).unwrap();
        assert_eq!((fits.pair_bits(), fits.bins_per_cipher(&kp.public)), (107, 1));
        fits.validate_capacity(&kp.public).unwrap();
        let wide = GhPlan::new(GRAD_BOUND, HESS_BOUND, 4_000_000, &enc).unwrap();
        assert_eq!(wide.pair_bits(), 131);
        assert_eq!(
            wide.validate_capacity(&kp.public),
            Err(CryptoError::PackingCapacity { requested: 1, max: 0 })
        );
    }

    #[test]
    fn gh_plan_parent_minus_child_keeps_counts_and_offsets_consistent() {
        // Histogram subtraction on paired bins, in ciphertext: ciphers
        // subtract, row counts subtract, and the top-up of the difference
        // lands every derived bin on the same `N·B_g` offset as a directly
        // built one. And in plaintext, where the key owner does it: the
        // decoded parent fields minus the decoded child fields are the very
        // integers the ciphertext difference decrypts to.
        let (kp, _, mut rng) = setup();
        let plan = GhPlan::new(GRAD_BOUND, HESS_BOUND, 12, &test_encoding()).unwrap();
        let parent_rows: Vec<(f64, f64)> =
            (0..12).map(|i| ((i as f64 - 6.0) / 6.0, (i % 5) as f64 * 0.0625)).collect();
        let fields = |bin: &Bin| {
            let shift = kp
                .public
                .encrypt_raw_with_rn(&plan.top_up(bin.rows).unwrap(), &kp.public.zero_raw());
            let plain = kp
                .private
                .decrypt_raw(&kp.public.add_raw(&bin.cipher, &shift), &OpCounters::default());
            plan.decode_pair(&plain, 0).unwrap()
        };
        // The sibling took: a strict subset, every row, no row at all.
        for taken in [5usize, 12, 0] {
            let parent = accumulate(&kp, &plan, &parent_rows, &mut rng).unwrap();
            let child = accumulate(&kp, &plan, &parent_rows[..taken], &mut rng).unwrap();
            let derived = Bin {
                cipher: kp
                    .public
                    .add_raw(&parent.cipher, &kp.public.neg_raw(&child.cipher).unwrap()),
                rows: parent.rows - child.rows,
            };
            let ((pg, ph), (cg, ch), (dg, dh)) =
                (fields(&parent), fields(&child), fields(&derived));
            let enc = test_encoding();
            assert_eq!(pg.checked_sub(&cg, &enc), Some(dg), "g fields, sibling took {taken}");
            assert_eq!(ph.checked_sub(&ch, &enc), Some(dh), "h fields, sibling took {taken}");
            let got = top_up_pack_decode(&kp, &plan, &[derived, child]).unwrap();
            assert_eq!(got[0], reference(&parent_rows[taken..]), "derived, sibling took {taken}");
            assert_eq!(got[1], reference(&parent_rows[..taken]), "sibling took {taken}");
        }
    }

    #[test]
    fn zero_width_slots_and_residual_bits_are_typed_errors() {
        let (kp, _, _) = setup();
        assert_eq!(PackingPlan::max_slots(&kp.public, 0), 0);
        assert_eq!(
            PackingPlan::new(&kp.public, 0, 1),
            Err(CryptoError::PackingCapacity { requested: 1, max: 0 })
        );
        // Two 8-bit slots declared, a third one's worth of bits present.
        let plan = PackingPlan { slot_bits: 8, slots: 2 };
        let plain = BigUint::from(0x01_02_03u32);
        assert_eq!(
            unpack_plaintext(&plain, &plan, 2),
            Err(CryptoError::PackedValueTooLarge { slot: 2 })
        );
        assert_eq!(unpack_plaintext(&plain, &plan, 3).unwrap().len(), 3);
    }
}
