//! Encrypted floating-point numbers: a Paillier cipher paired with its
//! fixed-point exponent (the paper's `⟦v⟧ = ⟨e, ⟦V⟧⟩`).
//!
//! The central subtlety — and the motivation for the re-ordered accumulation
//! technique of §5.1 — is that **HAdd** of two encrypted numbers whose
//! exponents differ must first *scale* the lower-exponent cipher by
//! `B^Δe` via an expensive `SMul`. [`EncryptedNumber::add`] performs that
//! scaling transparently (and counts it); [`EncryptedNumber::add_same_exp`]
//! is the fast path used inside per-exponent workspaces.

use num_bigint::BigUint;
use rand::Rng;

use crate::counters::OpCounters;
use crate::encoding::{EncodedNumber, EncodingConfig, FixedPoint};
use crate::error::Result;
use crate::paillier::{PrivateKey, PublicKey, RawCipher};

/// A Paillier cipher of a fixed-point encoded value, tagged with the
/// encoding exponent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedNumber {
    /// The raw cipher `⟦V⟧ ∈ [0, n²)`.
    pub cipher: RawCipher,
    /// The fixed-point exponent `e`.
    pub exponent: i32,
}

impl EncryptedNumber {
    /// Encrypts `v` at a jittered exponent using the private key's fast
    /// CRT encryption path (Party B always owns the private key).
    pub fn encrypt<R: Rng + ?Sized>(
        v: f64,
        sk: &PrivateKey,
        cfg: &EncodingConfig,
        rng: &mut R,
        counters: &OpCounters,
    ) -> Result<Self> {
        let encoded = EncodedNumber::encode(v, cfg.draw_exponent(rng), cfg, sk.public())?;
        counters.add_enc(1);
        Ok(EncryptedNumber {
            cipher: sk.encrypt_raw_ctr(&encoded.mantissa, rng, counters),
            exponent: encoded.exponent,
        })
    }

    /// Encrypts `v` at a fixed exponent (no jitter).
    pub fn encrypt_at<R: Rng + ?Sized>(
        v: f64,
        exponent: i32,
        sk: &PrivateKey,
        cfg: &EncodingConfig,
        rng: &mut R,
        counters: &OpCounters,
    ) -> Result<Self> {
        let encoded = EncodedNumber::encode(v, exponent, cfg, sk.public())?;
        counters.add_enc(1);
        Ok(EncryptedNumber {
            cipher: sk.encrypt_raw_ctr(&encoded.mantissa, rng, counters),
            exponent: encoded.exponent,
        })
    }

    /// The additive identity at a given exponent (`⟦0⟧ = 1`, not obfuscated).
    pub fn zero(exponent: i32, pk: &PublicKey) -> Self {
        EncryptedNumber { cipher: pk.zero_raw(), exponent }
    }

    /// Exponent-aware homomorphic addition.
    ///
    /// If the exponents differ, the lower-exponent operand is first scaled
    /// up by `B^Δe` (one `SMul`, counted as a *scaling*), exactly the cost
    /// that §5.1's re-ordered accumulation avoids.
    pub fn add(
        &self,
        other: &Self,
        pk: &PublicKey,
        cfg: &EncodingConfig,
        counters: &OpCounters,
    ) -> Self {
        let (a, b) = if self.exponent == other.exponent {
            (self.clone(), other.clone())
        } else if self.exponent < other.exponent {
            (self.rescale_to(other.exponent, pk, cfg, counters), other.clone())
        } else {
            (self.clone(), other.rescale_to(self.exponent, pk, cfg, counters))
        };
        counters.add_hadd(1);
        EncryptedNumber { cipher: pk.add_raw(&a.cipher, &b.cipher), exponent: a.exponent }
    }

    /// Fast-path homomorphic addition for operands already sharing an
    /// exponent. Panics in debug builds if the exponents differ.
    pub fn add_same_exp(&self, other: &Self, pk: &PublicKey, counters: &OpCounters) -> Self {
        debug_assert_eq!(self.exponent, other.exponent, "exponents must already match");
        counters.add_hadd(1);
        EncryptedNumber { cipher: pk.add_raw(&self.cipher, &other.cipher), exponent: self.exponent }
    }

    /// In-place same-exponent addition (avoids one cipher clone on the
    /// histogram-accumulation hot path).
    pub fn add_assign_same_exp(&mut self, other: &Self, pk: &PublicKey, counters: &OpCounters) {
        debug_assert_eq!(self.exponent, other.exponent, "exponents must already match");
        counters.add_hadd(1);
        self.cipher = pk.add_raw(&self.cipher, &other.cipher);
    }

    /// Scales this cipher to a larger target exponent via `SMul(B^Δe)`.
    pub fn rescale_to(
        &self,
        target: i32,
        pk: &PublicKey,
        cfg: &EncodingConfig,
        counters: &OpCounters,
    ) -> Self {
        assert!(
            target >= self.exponent,
            "can only rescale to a larger exponent ({} -> {target})",
            self.exponent
        );
        if target == self.exponent {
            return self.clone();
        }
        counters.add_scaling(1);
        let factor = cfg.base_pow(target - self.exponent);
        EncryptedNumber {
            cipher: pk.mul_raw_ctr(&self.cipher, &factor, counters),
            exponent: target,
        }
    }

    /// Scalar multiplication by a non-negative integer.
    pub fn smul_uint(&self, k: &BigUint, pk: &PublicKey, counters: &OpCounters) -> Self {
        counters.add_smul(1);
        EncryptedNumber {
            cipher: pk.mul_raw_ctr(&self.cipher, k, counters),
            exponent: self.exponent,
        }
    }

    /// Decrypts to the signed fixed-point integer ([`FixedPoint::to_f64`] is
    /// the float decode).
    pub fn decrypt_fixed(&self, sk: &PrivateKey, counters: &OpCounters) -> Result<FixedPoint> {
        counters.add_dec(1);
        let mantissa = sk.decrypt_raw_ctr(&self.cipher, counters);
        FixedPoint::from_plaintext(&mantissa, self.exponent, sk.public())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl EncryptedNumber {
        /// Decrypts and decodes to a float.
        fn decrypt(&self, sk: &PrivateKey, cfg: &EncodingConfig, ctr: &OpCounters) -> Result<f64> {
            Ok(self.decrypt_fixed(sk, ctr)?.to_f64(cfg))
        }
    }

    fn setup() -> (KeyPair, EncodingConfig, OpCounters, StdRng) {
        (
            KeyPair::generate_seeded(256, 42).unwrap(),
            EncodingConfig::default(),
            OpCounters::default(),
            StdRng::seed_from_u64(17),
        )
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (kp, cfg, ctr, mut rng) = setup();
        for v in [0.0f64, 1.5, -1.5, 0.001, -42.0] {
            let c = EncryptedNumber::encrypt(v, &kp.private, &cfg, &mut rng, &ctr).unwrap();
            let d = c.decrypt(&kp.private, &cfg, &ctr).unwrap();
            assert!((d - v).abs() < 1e-9, "{v} -> {d}");
        }
        assert_eq!(ctr.snapshot().enc, 5);
        assert_eq!(ctr.snapshot().dec, 5);
    }

    #[test]
    fn add_with_matching_exponents_needs_no_scaling() {
        let (kp, cfg, ctr, mut rng) = setup();
        let a = EncryptedNumber::encrypt_at(1.25, 10, &kp.private, &cfg, &mut rng, &ctr).unwrap();
        let b = EncryptedNumber::encrypt_at(2.5, 10, &kp.private, &cfg, &mut rng, &ctr).unwrap();
        let sum = a.add(&b, &kp.public, &cfg, &ctr);
        assert_eq!(ctr.snapshot().scalings, 0);
        assert!((sum.decrypt(&kp.private, &cfg, &ctr).unwrap() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn add_with_mismatched_exponents_scales_once() {
        let (kp, cfg, ctr, mut rng) = setup();
        let a = EncryptedNumber::encrypt_at(1.25, 10, &kp.private, &cfg, &mut rng, &ctr).unwrap();
        let b = EncryptedNumber::encrypt_at(-0.75, 12, &kp.private, &cfg, &mut rng, &ctr).unwrap();
        let sum = a.add(&b, &kp.public, &cfg, &ctr);
        assert_eq!(ctr.snapshot().scalings, 1);
        assert_eq!(sum.exponent, 12);
        assert!((sum.decrypt(&kp.private, &cfg, &ctr).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_is_additive_identity() {
        let (kp, cfg, ctr, mut rng) = setup();
        let a = EncryptedNumber::encrypt_at(-7.5, 10, &kp.private, &cfg, &mut rng, &ctr).unwrap();
        let z = EncryptedNumber::zero(10, &kp.public);
        let sum = a.add_same_exp(&z, &kp.public, &ctr);
        assert!((sum.decrypt(&kp.private, &cfg, &ctr).unwrap() + 7.5).abs() < 1e-9);
    }

    #[test]
    fn smul_scales_value() {
        let (kp, cfg, ctr, mut rng) = setup();
        let a = EncryptedNumber::encrypt_at(2.5, 10, &kp.private, &cfg, &mut rng, &ctr).unwrap();
        let tripled = a.smul_uint(&BigUint::from(3u32), &kp.public, &ctr);
        assert!((tripled.decrypt(&kp.private, &cfg, &ctr).unwrap() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn long_accumulation_stays_exact() {
        let (kp, cfg, ctr, mut rng) = setup();
        let mut acc = EncryptedNumber::zero(cfg.base_exp, &kp.public);
        let mut expected = 0.0f64;
        for i in 0..50 {
            let v = (i as f64) * 0.125 - 3.0;
            expected += v;
            let c = EncryptedNumber::encrypt(v, &kp.private, &cfg, &mut rng, &ctr).unwrap();
            acc = acc.add(&c, &kp.public, &cfg, &ctr);
        }
        let got = acc.decrypt(&kp.private, &cfg, &ctr).unwrap();
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }
}
