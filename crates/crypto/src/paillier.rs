//! The Paillier additive homomorphic cryptosystem (paper §2.2).
//!
//! A key pair is generated from an `S`-bit modulus `n = p·q`; ciphers live
//! modulo `n²` and are therefore `2S` bits long. The generator is fixed to
//! `g = n + 1`, which makes `gᵛ = 1 + v·n (mod n²)` a single multiplication.
//!
//! Supported operations (notation from the paper):
//!
//! * **HAdd** — `⟦U⟧ ⊕ ⟦V⟧ = ⟦U⟧·⟦V⟧ mod n² = ⟦U+V⟧`
//! * **SMul** — `U ⊗ ⟦V⟧ = ⟦V⟧ᵁ mod n² = ⟦U·V⟧`
//! * negation via modular inversion (cheaper than exponentiation by `n-1`)
//!
//! Decryption — the hot operation the paper's packing technique amortizes —
//! uses the standard CRT split over `p²` and `q²`. The key owner (always
//! Party B, the only encrypting party in the protocol) also draws its
//! obfuscators through the CRT, as Teichmüller lifts with half-length
//! exponents (see [`PrivateKey::random_rn_crt`]).

use std::sync::Arc;

use num_bigint::{BigUint, RandBigInt};
use num_integer::Integer;
use num_traits::One;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counters::OpCounters;
use crate::error::{CryptoError, Result};
use crate::math::{crt_combine, gen_prime, l_function, mod_inverse};
use crate::montgomery::{recode_window4, MontCost, MontExp, Resident};

/// A raw Paillier ciphertext: an integer modulo `n²`.
pub type RawCipher = BigUint;

/// The widest modulus a key may have: its `n²` fills [`MontExp`]'s widest
/// dispatch, 128 limbs.
const MAX_KEY_BITS: u64 = 4096;

/// Fixed-limb state for the public `mod n²` cipher domain.
struct PkAccel {
    /// Montgomery exponentiator modulo `n²`.
    nn: MontExp,
    /// The fixed exponent `n` (for `rⁿ` obfuscation), recoded once.
    n_nibbles: Vec<u8>,
}

impl PkAccel {
    fn build(n: &BigUint, nn: &BigUint) -> Option<PkAccel> {
        Some(PkAccel { nn: MontExp::new(nn)?, n_nibbles: recode_window4(n) })
    }
}

struct PkInner {
    /// The modulus `n = p·q`.
    n: BigUint,
    /// `n²`, the cipher modulus.
    nn: BigUint,
    /// `n / 2`: plaintexts above this decode as negative.
    half_n: BigUint,
    /// `n / 3`: largest magnitude considered safe against add overflow.
    max_int: BigUint,
    /// Bit length of `n` (the paper's `S`).
    bits: u64,
    /// The Montgomery core every `mod n²` exponentiation runs on.
    accel: PkAccel,
}

/// Paillier public key. Cheap to clone (internally reference-counted).
#[derive(Clone)]
pub struct PublicKey(Arc<PkInner>);

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublicKey").field("bits", &self.0.bits).finish()
    }
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.n == other.0.n
    }
}
impl Eq for PublicKey {}

impl PublicKey {
    /// The key of modulus `n`, or `None` when `n²` has no Montgomery
    /// context (`n` even, or wider than [`MAX_KEY_BITS`]).
    fn from_n(n: BigUint) -> Option<Self> {
        let nn = &n * &n;
        let half_n = &n >> 1;
        let max_int = &n / BigUint::from(3u32);
        let bits = n.bits();
        let accel = PkAccel::build(&n, &nn)?;
        Some(PublicKey(Arc::new(PkInner { n, nn, half_n, max_int, bits, accel })))
    }

    /// Human-readable backend tag for telemetry, e.g. `"fixed-16x64"`
    /// (16 limbs of 64 bits in the `mod n²` domain).
    pub fn backend_label(&self) -> String {
        format!("fixed-{}x64", self.0.accel.nn.limbs())
    }

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.0.n
    }

    /// The cipher modulus `n²`.
    pub fn nn(&self) -> &BigUint {
        &self.0.nn
    }

    /// `n / 2`: encoded plaintexts above this represent negative values.
    pub fn half_n(&self) -> &BigUint {
        &self.0.half_n
    }

    /// `n / 3`: the safe magnitude bound for encoded plaintexts.
    pub fn max_int(&self) -> &BigUint {
        &self.0.max_int
    }

    /// Bit length of the modulus (the paper's `S`).
    pub fn bits(&self) -> u64 {
        self.0.bits
    }

    /// Encrypts an already-encoded plaintext `v ∈ [0, n)` with fresh
    /// randomness drawn from `rng`, Montgomery work tallied into `ctr`.
    pub fn encrypt_raw<R: Rng + ?Sized>(
        &self,
        v: &BigUint,
        rng: &mut R,
        ctr: &OpCounters,
    ) -> RawCipher {
        let rn = self.random_rn(rng, ctr);
        self.encrypt_raw_with_rn(v, &rn)
    }

    /// Encrypts `v` using a precomputed obfuscation factor `rⁿ mod n²`.
    pub fn encrypt_raw_with_rn(&self, v: &BigUint, rn: &BigUint) -> RawCipher {
        // g = n+1  ⇒  g^v = 1 + v·n (mod n²)
        let gv = (BigUint::one() + v * &self.0.n) % &self.0.nn;
        (gv * rn) % &self.0.nn
    }

    /// Draws a random `r ∈ [1, n)` and returns `rⁿ mod n²`, with
    /// Montgomery work tallied into `ctr`.
    pub fn random_rn<R: Rng + ?Sized>(&self, rng: &mut R, ctr: &OpCounters) -> BigUint {
        let r = rng.gen_biguint_range(&BigUint::one(), &self.0.n);
        let a = &self.0.accel;
        let (v, cost) = a.nn.modpow_recoded(&r, &a.n_nibbles);
        ctr.add_cost(cost);
        v
    }

    /// Homomorphic addition: `⟦U⟧ ⊕ ⟦V⟧ = ⟦U+V⟧`.
    pub fn add_raw(&self, a: &RawCipher, b: &RawCipher) -> RawCipher {
        (a * b) % &self.0.nn
    }

    /// `c` in this key's resident form: Montgomery limbs (one
    /// multiplication by `R²`). Work is tallied into `cost`.
    pub fn enter(&self, c: &RawCipher, cost: &mut MontCost) -> Resident {
        self.0.accel.nn.enter(c, cost)
    }

    /// The cipher a resident holds (one multiplication by 1). A resident
    /// entered under another key width is [`CryptoError::SuiteMismatch`].
    pub fn leave(&self, c: &Resident, cost: &mut MontCost) -> Result<RawCipher> {
        self.0.accel.nn.leave(c, cost)
    }

    /// HAdd on residents, `acc ← acc·b mod n²`: one Montgomery
    /// multiplication on the stack, no allocation.
    pub fn mul_assign(&self, acc: &mut Resident, b: &Resident, cost: &mut MontCost) -> Result<()> {
        self.horner_step(acc, 0, b, cost)
    }

    /// The Horner step of packing on residents, `acc ← acc^(2^k)·b mod
    /// n²`: `k` squarings, then one multiplication. Residents of another
    /// width are [`CryptoError::SuiteMismatch`], `acc` untouched.
    pub fn horner_step(
        &self,
        acc: &mut Resident,
        k: u32,
        b: &Resident,
        cost: &mut MontCost,
    ) -> Result<()> {
        self.0.accel.nn.horner_step(acc, k, b, cost)
    }

    /// Scalar multiplication: `k ⊗ ⟦V⟧ = ⟦k·V⟧`, Montgomery work tallied
    /// into `ctr`.
    pub fn mul_raw(&self, c: &RawCipher, k: &BigUint, ctr: &OpCounters) -> RawCipher {
        let (v, cost) = self.0.accel.nn.modpow(c, k);
        ctr.add_cost(cost);
        v
    }

    /// Homomorphic negation: `⟦V⟧⁻¹ = ⟦n−V⟧ = ⟦−V⟧`.
    ///
    /// Implemented by modular inversion, which is much cheaper than
    /// exponentiation by `n−1`. Every honestly produced cipher is a unit
    /// modulo `n²`; a non-invertible input (a corrupted cipher sharing a
    /// factor with `n`) surfaces as
    /// [`CryptoError::NonInvertibleCipher`] rather than a panic.
    pub fn neg_raw(&self, c: &RawCipher) -> Result<RawCipher> {
        mod_inverse(c, &self.0.nn).ok_or(CryptoError::NonInvertibleCipher)
    }

    /// Batch homomorphic negation via Montgomery's batch-inversion trick:
    /// one modular inverse plus three multiplications per cipher, instead
    /// of one inverse each. The inverse (extended Euclid on `n²`) is two
    /// orders of magnitude more expensive than a mulmod, so batching is
    /// what makes per-bin ciphertext subtraction cheaper than per-row
    /// accumulation.
    ///
    /// Output order matches input order. A non-invertible cipher anywhere
    /// in the batch poisons the combined product; the fallback scan
    /// re-checks each element so the caller sees the same
    /// [`CryptoError::NonInvertibleCipher`] the scalar path would raise.
    pub fn neg_batch_raw(&self, cs: &[&RawCipher]) -> Result<Vec<RawCipher>> {
        let nn = &self.0.nn;
        if cs.is_empty() {
            return Ok(Vec::new());
        }
        // prefix[i] = c₀·…·cᵢ mod n²
        let mut prefix = Vec::with_capacity(cs.len());
        let mut acc = cs[0].clone();
        prefix.push(acc.clone());
        for c in &cs[1..] {
            acc = (&acc * *c) % nn;
            prefix.push(acc.clone());
        }
        let mut inv = match mod_inverse(&acc, nn) {
            Some(v) => v,
            None => {
                for c in cs {
                    self.neg_raw(c)?;
                }
                // Every element inverted individually yet the product did
                // not: impossible modulo n², but keep the error honest.
                return Err(CryptoError::NonInvertibleCipher);
            }
        };
        // Walk backwards: inv holds (c₀·…·cᵢ)⁻¹; multiplying by the
        // previous prefix isolates cᵢ⁻¹, multiplying by cᵢ steps down.
        let mut out = vec![BigUint::one(); cs.len()];
        for i in (1..cs.len()).rev() {
            out[i] = (&inv * &prefix[i - 1]) % nn;
            inv = (&inv * cs[i]) % nn;
        }
        out[0] = inv;
        Ok(out)
    }

    /// The trivial (non-obfuscated) encryption of zero, `⟦0⟧ = 1`.
    ///
    /// Useful as the additive identity when accumulating histograms; the sum
    /// inherits the randomness of the accumulated ciphers.
    pub fn zero_raw(&self) -> RawCipher {
        BigUint::one()
    }
}

/// Fixed-limb state for the private CRT domains `mod p²` / `mod q²`.
///
/// Every private-key exponent is fixed per key — `p−1` / `q−1` for
/// decryption, `p` / `q` for obfuscation — so each is recoded into 4-bit
/// windows exactly once at key construction.
struct SkAccel {
    /// Montgomery exponentiator modulo `p²`.
    pp: MontExp,
    /// Montgomery exponentiator modulo `q²`.
    qq: MontExp,
    /// `p − 1`, recoded (decryption exponent mod `p²`).
    p1_nibbles: Vec<u8>,
    /// `q − 1`, recoded (decryption exponent mod `q²`).
    q1_nibbles: Vec<u8>,
    /// `p`, recoded (obfuscation exponent mod `p²`).
    p_nibbles: Vec<u8>,
    /// `q`, recoded (obfuscation exponent mod `q²`).
    q_nibbles: Vec<u8>,
}

impl SkAccel {
    fn build(p: &BigUint, q: &BigUint, pp: &BigUint, qq: &BigUint) -> Option<SkAccel> {
        Some(SkAccel {
            pp: MontExp::new(pp)?,
            qq: MontExp::new(qq)?,
            p1_nibbles: recode_window4(&(p - BigUint::one())),
            q1_nibbles: recode_window4(&(q - BigUint::one())),
            p_nibbles: recode_window4(p),
            q_nibbles: recode_window4(q),
        })
    }
}

struct SkInner {
    public: PublicKey,
    p: BigUint,
    q: BigUint,
    pp: BigUint,
    qq: BigUint,
    /// `p⁻¹ mod q` for CRT over (p, q).
    p_inv_q: BigUint,
    /// `p²⁻¹ mod q²` for CRT over (p², q²) used by fast encryption.
    pp_inv_qq: BigUint,
    /// `L_p(g^{p-1} mod p²)⁻¹ mod p`.
    hp: BigUint,
    /// `L_q(g^{q-1} mod q²)⁻¹ mod q`.
    hq: BigUint,
    /// The Montgomery cores of the half-size CRT exponentiations.
    accel: SkAccel,
}

/// Paillier private key. Cheap to clone (internally reference-counted).
#[derive(Clone)]
pub struct PrivateKey(Arc<SkInner>);

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivateKey").field("bits", &self.0.public.bits()).finish()
    }
}

impl PrivateKey {
    /// The matching public key.
    pub fn public(&self) -> &PublicKey {
        &self.0.public
    }

    /// Decrypts a raw cipher to its encoded plaintext in `[0, n)`.
    ///
    /// Uses the CRT split over `p²` / `q²`: two half-size exponentiations
    /// instead of one full-size one, Montgomery work tallied into `ctr`.
    pub fn decrypt_raw(&self, c: &RawCipher, ctr: &OpCounters) -> BigUint {
        let sk = &*self.0;
        let a = &sk.accel;
        let (xp, cp) = a.pp.modpow_recoded(&(c % &sk.pp), &a.p1_nibbles);
        let (xq, cq) = a.qq.modpow_recoded(&(c % &sk.qq), &a.q1_nibbles);
        ctr.add_cost(cp);
        ctr.add_cost(cq);
        let mp = (l_function(&xp, &sk.p) * &sk.hp) % &sk.p;
        let mq = (l_function(&xq, &sk.q) * &sk.hq) % &sk.q;
        crt_combine(&mp, &mq, &sk.p, &sk.p_inv_q, &sk.q) % sk.public.n()
    }

    /// Fast encryption using the CRT: the obfuscator is two half-size
    /// exponentiations with half-length exponents (see
    /// [`PrivateKey::random_rn_crt`]), Montgomery work tallied into `ctr`. Only
    /// the private-key holder can do this — in the protocol that is always
    /// Party B.
    pub fn encrypt_raw<R: Rng + ?Sized>(
        &self,
        v: &BigUint,
        rng: &mut R,
        ctr: &OpCounters,
    ) -> RawCipher {
        let rn = self.random_rn_crt(rng, ctr);
        self.0.public.encrypt_raw_with_rn(v, &rn)
    }

    /// Draws `r` and returns an obfuscator `r′ⁿ mod n²` via the CRT, with
    /// Montgomery work tallied into `ctr`.
    ///
    /// The result is `CRT(ω_p, ω_q)` with `ω_p = (r mod p)^p mod p²`, the
    /// Teichmüller lift of `r mod p` (the `(p−1)`-th root of unity mod `p²`
    /// above it), and `ω_q` likewise: exponents of `S/2` bits where
    /// `rⁿ mod p²` needs `S`. Since `rⁿ ≡ ω_p^q (mod p²)` and keygen
    /// enforces `gcd(n, φ(n)) = 1`, `x ↦ x^q` permutes the `(p−1)`-th roots
    /// of unity, so for uniform `r` the result is distributed exactly as
    /// `rⁿ mod n²` — an ordinary Paillier obfuscator (DESIGN.md §3.10).
    pub fn random_rn_crt<R: Rng + ?Sized>(&self, rng: &mut R, ctr: &OpCounters) -> BigUint {
        let r = rng.gen_biguint_range(&BigUint::one(), self.0.public.n());
        self.obfuscator(&r, ctr)
    }

    /// The obfuscator of a drawn `r`:
    /// `CRT((r mod p)^p mod p², (r mod q)^q mod q²)`.
    fn obfuscator(&self, r: &BigUint, ctr: &OpCounters) -> BigUint {
        let sk = &*self.0;
        let a = &sk.accel;
        let (wp, cp) = a.pp.modpow_recoded(&(r % &sk.p), &a.p_nibbles);
        let (wq, cq) = a.qq.modpow_recoded(&(r % &sk.q), &a.q_nibbles);
        ctr.add_cost(cp);
        ctr.add_cost(cq);
        crt_combine(&wp, &wq, &sk.pp, &sk.pp_inv_qq, &sk.qq) % sk.public.nn()
    }
}

/// A freshly generated Paillier key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// Public half (shared with every host party).
    pub public: PublicKey,
    /// Private half (kept by the label owner, Party B).
    pub private: PrivateKey,
}

impl KeyPair {
    /// Generates a key pair with an `S = bits`-bit modulus using entropy
    /// from `rng`.
    ///
    /// The paper recommends `S = 2048` for production; tests and scaled
    /// experiments use smaller moduli. `S` runs from 64 to 4096 bits, the
    /// widths the Montgomery core serves; any other is refused before a
    /// prime is drawn.
    pub fn generate_with_rng<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> Result<KeyPair> {
        if !(64..=MAX_KEY_BITS).contains(&bits) {
            return Err(CryptoError::KeyGeneration(format!(
                "modulus must be 64 to {MAX_KEY_BITS} bits, got {bits}"
            )));
        }
        let half = bits / 2;
        loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(bits - half, rng);
            if p == q || (&p * &q).bits() != bits {
                continue;
            }
            if let Some(keys) = Self::from_primes(p, q) {
                return Ok(keys);
            }
        }
    }

    /// Derives the key pair of distinct odd primes `p`, `q`, or `None`
    /// when `gcd(n, φ(n)) ≠ 1` — the precondition of Paillier decryption
    /// and of the key owner's half-length obfuscator exponents.
    fn from_primes(p: BigUint, q: BigUint) -> Option<KeyPair> {
        let n = &p * &q;
        let p_minus_1 = &p - BigUint::one();
        let q_minus_1 = &q - BigUint::one();
        if !n.gcd(&(&p_minus_1 * &q_minus_1)).is_one() {
            return None;
        }
        let public = PublicKey::from_n(n.clone())?;
        let pp = &p * &p;
        let qq = &q * &q;
        let p_inv_q = mod_inverse(&p, &q)?;
        let pp_inv_qq = mod_inverse(&pp, &qq)?;
        // g = n + 1; hp = L_p(g^{p-1} mod p²)⁻¹ mod p (and likewise hq).
        let g = &n + BigUint::one();
        let hp_base = l_function(&(&g % &pp).modpow(&p_minus_1, &pp), &p) % &p;
        let hq_base = l_function(&(&g % &qq).modpow(&q_minus_1, &qq), &q) % &q;
        let hp = mod_inverse(&hp_base, &p)?;
        let hq = mod_inverse(&hq_base, &q)?;
        let accel = SkAccel::build(&p, &q, &pp, &qq)?;
        let private = PrivateKey(Arc::new(SkInner {
            public: public.clone(),
            p,
            q,
            pp,
            qq,
            p_inv_q,
            pp_inv_qq,
            hp,
            hq,
            accel,
        }));
        Some(KeyPair { public, private })
    }

    /// Generates a key pair from a deterministic seed (for reproducible
    /// experiments and tests).
    pub fn generate_seeded(bits: u64, seed: u64) -> Result<KeyPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::generate_with_rng(bits, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> KeyPair {
        KeyPair::generate_seeded(256, 42).unwrap()
    }

    /// The key owner's obfuscator of a drawn `r`, as its formula reads:
    /// `CRT((r mod p)^p mod p², (r mod q)^q mod q²)`, the CRT in plain
    /// `BigUint` arithmetic with `p²`'s inverse mod `q²` by Euler
    /// (`φ(q²) = q(q−1)`).
    fn obfuscator_reference(r: &BigUint, p: &BigUint, q: &BigUint) -> BigUint {
        let one = BigUint::one();
        let (pp, qq) = (p * p, q * q);
        let (wp, wq) = ((r % p).modpow(p, &pp), (r % q).modpow(q, &qq));
        let pp_inv = pp.modpow(&(q * (q - &one) - &one), &qq);
        let diff = (wq + &qq - &wp % &qq) % &qq;
        wp + pp * ((diff * pp_inv) % qq)
    }

    /// Textbook decryption, `L(c^λ mod n²)·μ mod n` with `λ = lcm(p−1,
    /// q−1)`, `μ = L(g^λ mod n²)⁻¹ mod n` (by Euler) and `L(x) = (x−1)/n`.
    fn decrypt_reference(c: &BigUint, p: &BigUint, q: &BigUint) -> BigUint {
        let one = BigUint::one();
        let (n, p1, q1) = (p * q, p - &one, q - &one);
        let nn = &n * &n;
        let phi = &p1 * &q1;
        let lambda = &phi / p1.gcd(&q1);
        let l = |x: BigUint| (x - &one) / &n;
        let mu = l((&n + &one).modpow(&lambda, &nn)).modpow(&(phi - &one), &n);
        (l(c.modpow(&lambda, &nn)) * mu) % &n
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(7);
        for v in [0u64, 1, 2, 1234567, u64::MAX] {
            let v = BigUint::from(v);
            let c = kp.public.encrypt_raw(&v, &mut rng, &OpCounters::default());
            assert_eq!(kp.private.decrypt_raw(&c, &OpCounters::default()), v);
        }
    }

    #[test]
    fn crt_encryption_matches_plain_encryption_semantics() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(8);
        let v = BigUint::from(987_654_321u64);
        let c = kp.private.encrypt_raw(&v, &mut rng, &OpCounters::default());
        assert_eq!(kp.private.decrypt_raw(&c, &OpCounters::default()), v);
    }

    #[test]
    fn homomorphic_addition() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(9);
        let a = BigUint::from(111u64);
        let b = BigUint::from(222u64);
        let ca = kp.public.encrypt_raw(&a, &mut rng, &OpCounters::default());
        let cb = kp.public.encrypt_raw(&b, &mut rng, &OpCounters::default());
        let sum = kp.public.add_raw(&ca, &cb);
        assert_eq!(kp.private.decrypt_raw(&sum, &OpCounters::default()), BigUint::from(333u64));
    }

    #[test]
    fn scalar_multiplication() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(10);
        let v = BigUint::from(41u64);
        let c = kp.public.encrypt_raw(&v, &mut rng, &OpCounters::default());
        let scaled = kp.public.mul_raw(&c, &BigUint::from(3u64), &OpCounters::default());
        assert_eq!(kp.private.decrypt_raw(&scaled, &OpCounters::default()), BigUint::from(123u64));
    }

    #[test]
    fn negation_wraps_modulo_n() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(11);
        let v = BigUint::from(5u64);
        let c = kp.public.encrypt_raw(&v, &mut rng, &OpCounters::default());
        let neg = kp.public.neg_raw(&c).unwrap();
        let dec = kp.private.decrypt_raw(&neg, &OpCounters::default());
        assert_eq!(dec, kp.public.n() - BigUint::from(5u64));
    }

    #[test]
    fn batch_negation_matches_scalar_negation() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(14);
        let ciphers: Vec<RawCipher> = (0..7u64)
            .map(|v| {
                kp.public.encrypt_raw(&BigUint::from(v * 13 + 1), &mut rng, &OpCounters::default())
            })
            .collect();
        let refs: Vec<&RawCipher> = ciphers.iter().collect();
        let batch = kp.public.neg_batch_raw(&refs).unwrap();
        assert_eq!(batch.len(), ciphers.len());
        for (c, neg) in ciphers.iter().zip(&batch) {
            assert_eq!(neg, &kp.public.neg_raw(c).unwrap(), "batch order must match input");
        }
        assert!(kp.public.neg_batch_raw(&[]).unwrap().is_empty());
    }

    #[test]
    fn zero_raw_is_additive_identity() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(12);
        let v = BigUint::from(77u64);
        let c = kp.public.encrypt_raw(&v, &mut rng, &OpCounters::default());
        let sum = kp.public.add_raw(&c, &kp.public.zero_raw());
        assert_eq!(kp.private.decrypt_raw(&sum, &OpCounters::default()), v);
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(13);
        let v = BigUint::from(5u64);
        let c1 = kp.public.encrypt_raw(&v, &mut rng, &OpCounters::default());
        let c2 = kp.public.encrypt_raw(&v, &mut rng, &OpCounters::default());
        assert_ne!(c1, c2, "two encryptions of the same value must differ");
    }

    #[test]
    fn keygen_rejects_tiny_moduli() {
        assert!(KeyPair::generate_seeded(32, 1).is_err());
    }

    #[test]
    fn raw_ops_match_their_biguint_formulas() {
        let kp = keypair();
        let sk = &*kp.private.0;
        let (n, nn) = (kp.public.n(), kp.public.nn());
        let ctr = OpCounters::default();
        for seed in 0..4u64 {
            let v = BigUint::from(987_654_321u64 + seed);
            let c = kp.private.encrypt_raw(&v, &mut StdRng::seed_from_u64(seed), &ctr);
            // The same draw of r, through the formula.
            let r = StdRng::seed_from_u64(seed).gen_biguint_range(&BigUint::one(), n);
            let want = ((BigUint::one() + &v * n) * obfuscator_reference(&r, &sk.p, &sk.q)) % nn;
            assert_eq!(c, want, "encrypt_raw, seed {seed}");
            assert_eq!(kp.private.decrypt_raw(&c, &ctr), v);
            assert_eq!(decrypt_reference(&c, &sk.p, &sk.q), v);
            // Any unit mod n² decrypts as the textbook formula does.
            let noise = StdRng::seed_from_u64(100 + seed).gen_biguint_range(&BigUint::one(), nn);
            let want = decrypt_reference(&noise, &sk.p, &sk.q);
            assert_eq!(kp.private.decrypt_raw(&noise, &ctr), want, "decrypt_raw, seed {seed}");
            let k = BigUint::from(12345u64 + seed);
            assert_eq!(kp.public.mul_raw(&c, &k, &ctr), c.modpow(&k, nn), "mul_raw, seed {seed}");
        }
        let snap = ctr.snapshot();
        assert!(snap.modmul > 0, "key ops count their Montgomery multiplications");
        assert!(snap.redc >= snap.modmul, "each modmul contributes ≥1 limb of REDC");
    }

    #[test]
    fn key_owner_obfuscators_are_distributed_as_r_to_the_n() {
        // Exhaustive at toy size: over every unit r of n the key owner's
        // obfuscators are, as a multiset, exactly {rⁿ mod n²}.
        for (p, q) in [(11u32, 7u32), (23, 17), (101, 83), (251, 241)] {
            let kp =
                KeyPair::from_primes(BigUint::from(p), BigUint::from(q)).expect("gcd(n, φ(n)) = 1");
            let (n, nn) = (kp.public.n(), kp.public.nn());
            let (bp, bq) = (BigUint::from(p), BigUint::from(q));
            let (pp, qq) = (&bp * &bp, &bq * &bq);
            let ctr = OpCounters::default();
            let (mut lifted, mut powered) = (Vec::new(), Vec::new());
            for r in (1..p * q).filter(|r| r % p != 0 && r % q != 0).map(BigUint::from) {
                let rn = kp.private.obfuscator(&r, &ctr);
                // Below n², the CRT of its two residues is the one value
                // that has them.
                assert!(&rn < nn);
                assert_eq!(&rn % &pp, (&r % &bp).modpow(&bp, &pp), "mod p² at r = {r}");
                assert_eq!(&rn % &qq, (&r % &bq).modpow(&bq, &qq), "mod q² at r = {r}");
                assert_eq!(
                    kp.private.decrypt_raw(&rn, &OpCounters::default()),
                    BigUint::from(0u32)
                );
                lifted.push(rn);
                powered.push(r.modpow(n, nn));
            }
            assert_eq!(lifted.len() as u32, (p - 1) * (q - 1));
            lifted.sort();
            powered.sort();
            assert_eq!(lifted, powered, "({p}, {q})");
        }
        // 3·7: gcd(21, 12) = 3, x ↦ x³ does not permute the sixth roots
        // of unity mod 49 — the precondition is checked, not assumed.
        assert!(KeyPair::from_primes(BigUint::from(3u32), BigUint::from(7u32)).is_none());
    }

    #[test]
    fn key_owner_obfuscators_encrypt_zero_at_512_bits() {
        let kp = KeyPair::generate_seeded(512, 9).unwrap();
        let rns: Vec<BigUint> = (0..6)
            .map(|s| {
                kp.private.random_rn_crt(&mut StdRng::seed_from_u64(s), &OpCounters::default())
            })
            .collect();
        for (i, rn) in rns.iter().enumerate() {
            assert_eq!(kp.private.decrypt_raw(rn, &OpCounters::default()), BigUint::from(0u32));
            assert!(!rn.is_one() && rn < kp.public.nn());
            assert!(rns[..i].iter().all(|other| other != rn), "seeds must not collide");
        }
    }

    #[test]
    fn obfuscator_modmuls_halve_and_decrypt_modmuls_hold() {
        let kp = KeyPair::generate_seeded(512, 9).unwrap();
        let s = kp.public.bits();
        let ctr = OpCounters::default();
        let rn = kp.private.random_rn_crt(&mut StdRng::seed_from_u64(1), &ctr);
        let enc = ctr.snapshot().modmul;
        // Two S/2-bit exponents: S squarings + ≈ S/4 window multiplies +
        // two power tables (the S-bit exponents before cost ≈ 2.5·S).
        assert!(enc > s && 10 * enc < 14 * s, "obfuscator modmuls {enc} at S = {s}");
        kp.private.decrypt_raw(&rn, &ctr);
        // Decryption's exponents p−1 / q−1 are untouched, and a squaring
        // ticks the counter like the multiplication it replaced: 656 is
        // this key's count with S-bit obfuscator exponents and no
        // squaring kernel (where the obfuscator cost 1284).
        assert_eq!(ctr.snapshot().modmul - enc, 656, "decrypt modmuls");
    }

    #[test]
    fn every_key_width_runs_the_fixed_core() {
        let kp = keypair(); // 256-bit n ⇒ 512-bit n² ⇒ 8 limbs
        assert_eq!(kp.public.backend_label(), "fixed-8x64");
        // The smallest and the largest odd n of every width S: n² lands
        // on the narrowest dispatch width that holds it.
        let widths = [1u64, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128];
        for bits in 64..=MAX_KEY_BITS {
            let top = BigUint::one() << bits;
            for n in [(&top >> 1u32) + BigUint::one(), top - BigUint::one()] {
                let nn_bits = (&n * &n).bits();
                let limbs = widths.iter().find(|&&w| 64 * w >= nn_bits).expect("dispatched");
                let pk = PublicKey::from_n(n).expect("odd n up to 4096 bits");
                assert_eq!(pk.backend_label(), format!("fixed-{limbs}x64"), "S = {bits}");
            }
        }
        let widest = (BigUint::one() << MAX_KEY_BITS) + BigUint::one();
        assert!(PublicKey::from_n(widest).is_none(), "a 4097-bit n has no core");
    }
}
