//! The unified cipher suite: one API over real Paillier cryptography and a
//! plaintext mock.
//!
//! The federated protocol code in `vf2boost-core` is written once against
//! [`Suite`]. Selecting [`SuiteKind::Paillier`] yields the real system;
//! [`SuiteKind::Plain`] yields the paper's **VF-MOCK** baseline — identical
//! message flow and operation *counts*, but plaintext arithmetic — which
//! isolates protocol overhead from cryptography overhead (§6.3, Table 4).

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use num_bigint::BigUint;
use num_traits::Zero;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counters::{OpCounters, OpSnapshot};
use crate::encoding::{encode, EncodingConfig, FixedPoint};
use crate::error::{CryptoError, Result};
use crate::montgomery::{MontCost, Resident};
use crate::packing::{pack_ciphers, pack_resident, unpack_plaintext, GhPlan, PackingPlan};
use crate::paillier::{KeyPair, PrivateKey, PublicKey, RawCipher};

/// Which cryptography backs a [`Suite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteKind {
    /// Real Paillier homomorphic encryption.
    Paillier,
    /// Plaintext passthrough (the VF-MOCK baseline).
    Plain,
}

/// A Paillier cipher of a fixed-point encoded value, tagged with the
/// encoding exponent (the paper's `⟦v⟧ = ⟨e, ⟦V⟧⟩`). Plain data: every
/// operation on it is a [`Suite`] method over the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedNumber {
    /// The raw cipher `⟦V⟧ ∈ [0, n²)`.
    pub cipher: RawCipher,
    /// The fixed-point exponent `e`.
    pub exponent: i32,
}

/// A mock "cipher": the plaintext value tagged with the exponent it would
/// have carried, so that exponent-alignment logic (and its counters) behave
/// identically to the Paillier path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlainNumber {
    /// The carried value.
    pub value: f64,
    /// The exponent the encoding would have used.
    pub exponent: i32,
}

impl PlainNumber {
    /// The mock's HAdd, `self ← self ⊕ y`: the values add, the result
    /// takes the larger exponent, and a mismatch counts the scaling the
    /// Paillier path would pay. Tallied into `tally`, like
    /// [`Suite::add_resident`], whose mock arm this is; `#[inline]` so a
    /// histogram walk over mock ciphers folds it into its loop.
    #[inline]
    pub fn hadd(&mut self, y: &PlainNumber, tally: &mut OpSnapshot) {
        if self.exponent != y.exponent {
            tally.scalings += 1;
        }
        tally.hadd += 1;
        self.value += y.value;
        self.exponent = self.exponent.max(y.exponent);
    }
}

/// A value under the suite's (possibly mock) encryption.
#[derive(Debug, Clone, PartialEq)]
pub enum Ciphertext {
    /// Real Paillier cipher.
    Paillier(EncryptedNumber),
    /// Plaintext mock.
    Plain(PlainNumber),
}

impl Ciphertext {
    /// The fixed-point exponent this cipher carries.
    pub fn exponent(&self) -> i32 {
        match self {
            Ciphertext::Paillier(e) => e.exponent,
            Ciphertext::Plain(p) => p.exponent,
        }
    }
}

/// A cipher as a host holds it between receipt and packing: a Paillier
/// cipher entered into its key's [`Resident`] form, or the mock's
/// plaintext as it is. [`Suite::enter`] makes one, [`Suite::leave`] turns
/// it back into a [`Ciphertext`]; in between, HAdds ([`Suite::add_resident`])
/// and packs ([`Suite::pack_gh`]) run on it without converting.
#[derive(Debug, Clone, PartialEq)]
pub enum ResidentCiphertext {
    /// A Paillier cipher in its key's resident form.
    Paillier {
        /// The cipher `⟦V⟧`, resident.
        cipher: Resident,
        /// The fixed-point exponent `e`.
        exponent: i32,
    },
    /// Plaintext mock.
    Plain(PlainNumber),
}

impl ResidentCiphertext {
    /// The fixed-point exponent this cipher carries.
    pub fn exponent(&self) -> i32 {
        match self {
            ResidentCiphertext::Paillier { exponent, .. } => *exponent,
            ResidentCiphertext::Plain(p) => p.exponent,
        }
    }
}

/// A packed run of cipher slots (paper §5.2), or its mock equivalent.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedCiphertext {
    /// One Paillier cipher holding `count` slots of `slot_bits` bits at a
    /// common `exponent`.
    Paillier {
        /// The packed cipher.
        cipher: RawCipher,
        /// Common fixed-point exponent of every slot.
        exponent: i32,
        /// Number of occupied slots.
        count: usize,
        /// Slot width in bits.
        slot_bits: u32,
    },
    /// Mock: the slot values in the clear.
    Plain(Vec<f64>),
}

impl PackedCiphertext {
    /// Number of values held.
    pub fn count(&self) -> usize {
        match self {
            PackedCiphertext::Paillier { count, .. } => *count,
            PackedCiphertext::Plain(v) => v.len(),
        }
    }
}

/// The gradient-free half of one Paillier encryption ([`Suite::draw`]):
/// the exponent the cipher will carry and its obfuscator `rⁿ mod n²`, held
/// as exactly `n²`'s limbs. [`Suite::seal`] spends it.
#[derive(Debug)]
pub struct Draw {
    exponent: i32,
    rn: Box<[u64]>,
}

/// The 64-bit limbs a value below `pk`'s `n²` takes.
fn limbs_of(pk: &PublicKey) -> usize {
    pk.nn().bits().div_ceil(64) as usize
}

/// `v` as exactly `width` little-endian limbs (`v` fits them).
fn to_limbs(v: &BigUint, width: usize) -> Box<[u64]> {
    let mut bytes = v.to_bytes_le();
    bytes.resize(8 * width, 0);
    bytes.chunks(8).map(|limb| u64::from_le_bytes(limb.try_into().unwrap_or_default())).collect()
}

/// The value little-endian `limbs` hold.
fn from_limbs(limbs: &[u64]) -> BigUint {
    BigUint::from_bytes_le(&limbs.iter().flat_map(|l| l.to_le_bytes()).collect::<Vec<u8>>())
}

struct SuiteInner {
    /// Present in a Paillier suite, absent in the plaintext mock.
    pk: Option<PublicKey>,
    sk: Option<PrivateKey>,
    cfg: EncodingConfig,
    counters: Arc<OpCounters>,
    /// Cached full-size encryption of zero (see [`Suite::zero_obfuscated`])
    /// and the same cipher entered once, for [`Suite::pack_gh`]'s empty
    /// bins.
    cached_zero: OnceLock<(BigUint, Resident)>,
}

/// The cipher suite handed to each party.
///
/// Cheap to clone. Party B's suite holds the private key; host parties hold
/// only the public key (their clone is produced by [`Suite::public_half`]).
#[derive(Clone)]
pub struct Suite(Arc<SuiteInner>);

impl std::fmt::Debug for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suite")
            .field("kind", &self.kind())
            .field("has_sk", &self.0.sk.is_some())
            .finish()
    }
}

impl Suite {
    /// A full Paillier suite (public + private key) for the label owner.
    pub fn paillier(keys: KeyPair, cfg: EncodingConfig) -> Suite {
        Suite(Arc::new(SuiteInner {
            pk: Some(keys.public),
            sk: Some(keys.private),
            cfg,
            counters: OpCounters::new_shared(),
            cached_zero: OnceLock::new(),
        }))
    }

    /// A plaintext mock suite (the VF-MOCK baseline).
    pub fn plain(cfg: EncodingConfig) -> Suite {
        Suite(Arc::new(SuiteInner {
            pk: None,
            sk: None,
            cfg,
            counters: OpCounters::new_shared(),
            cached_zero: OnceLock::new(),
        }))
    }

    /// Generates a Paillier suite from a seed (convenience for tests and
    /// experiments).
    pub fn paillier_seeded(bits: u64, seed: u64, cfg: EncodingConfig) -> Result<Suite> {
        Ok(Self::paillier(KeyPair::generate_seeded(bits, seed)?, cfg))
    }

    /// The public-only view shared with host parties: same kind, same
    /// encoding, same counters object is **not** shared (each party counts
    /// its own operations).
    pub fn public_half(&self) -> Suite {
        Suite(Arc::new(SuiteInner {
            pk: self.0.pk.clone(),
            sk: None,
            cfg: self.0.cfg,
            counters: OpCounters::new_shared(),
            cached_zero: OnceLock::new(),
        }))
    }

    /// Which backend this suite uses.
    pub fn kind(&self) -> SuiteKind {
        match self.0.pk {
            Some(_) => SuiteKind::Paillier,
            None => SuiteKind::Plain,
        }
    }

    /// Human-readable crypto-backend tag for telemetry: `"fixed-<N>x64"`
    /// for Paillier suites, `"plain"` for the mock.
    pub fn backend_label(&self) -> String {
        match &self.0.pk {
            Some(pk) => pk.backend_label(),
            None => "plain".to_string(),
        }
    }

    /// The encoding configuration.
    pub fn encoding(&self) -> &EncodingConfig {
        &self.0.cfg
    }

    /// The operation counters for this party.
    pub fn counters(&self) -> &Arc<OpCounters> {
        &self.0.counters
    }

    /// The public key (Paillier suites only).
    pub fn public_key(&self) -> Option<&PublicKey> {
        self.0.pk.as_ref()
    }

    /// The public key, or [`CryptoError::SuiteMismatch`] when a Paillier
    /// value was handed to the keyless plaintext suite.
    fn pk(&self) -> Result<&PublicKey> {
        self.0.pk.as_ref().ok_or(CryptoError::SuiteMismatch)
    }

    fn sk(&self) -> Result<&PrivateKey> {
        self.0.sk.as_ref().ok_or(CryptoError::MissingPrivateKey)
    }

    /// Encrypts `v` at a jittered exponent: the exponent is drawn first,
    /// the obfuscator after it — the draw order every cipher byte hangs on.
    pub fn encrypt<R: Rng + ?Sized>(&self, v: f64, rng: &mut R) -> Result<Ciphertext> {
        let exponent = self.0.cfg.draw_exponent(rng);
        self.encrypt_at(v, exponent, rng)
    }

    /// Encrypts `v` at a fixed exponent (no jitter), through the private
    /// key's fast CRT path (Party B always owns the private key).
    pub fn encrypt_at<R: Rng + ?Sized>(
        &self,
        v: f64,
        exponent: i32,
        rng: &mut R,
    ) -> Result<Ciphertext> {
        let Some(pk) = &self.0.pk else {
            self.0.counters.add_enc(1);
            return Ok(Ciphertext::Plain(PlainNumber { value: v, exponent }));
        };
        self.sk()?;
        let plain = encode(v, exponent, &self.0.cfg, pk)?;
        let draw = self.draw_from(exponent, rng)?;
        Ok(self.seal_plain(pk, &plain, draw))
    }

    /// The gradient-free half of encrypting at element seed `seed`: what
    /// its rng yields before the value is needed — the jittered exponent
    /// when `exponent` is `None` (drawn first, as [`Suite::encrypt`]
    /// draws it), then the obfuscator. [`Suite::seal`] or
    /// [`Suite::seal_gh`] finishes the cipher, so a draw made ahead and
    /// one made at use give the same bytes. Paillier suites with the
    /// private key only.
    pub fn draw(&self, seed: u64, exponent: Option<i32>) -> Result<Draw> {
        let mut rng = StdRng::seed_from_u64(seed);
        let exponent = exponent.unwrap_or_else(|| self.0.cfg.draw_exponent(&mut rng));
        self.draw_from(exponent, &mut rng)
    }

    /// The one obfuscator draw: `rng`'s next `r`, lifted to `rⁿ mod n²`
    /// through the private key's CRT and kept as `n²`'s limbs.
    fn draw_from<R: Rng + ?Sized>(&self, exponent: i32, rng: &mut R) -> Result<Draw> {
        let pk = self.pk()?;
        let rn = self.sk()?.random_rn_crt(rng, &self.0.counters);
        Ok(Draw { exponent, rn: to_limbs(&rn, limbs_of(pk)) })
    }

    /// Seals `v` with `draw`: encode at the draw's exponent, then one
    /// multiply mod `n²`. The draw is spent.
    pub fn seal(&self, v: f64, draw: Draw) -> Result<Ciphertext> {
        let pk = self.pk()?;
        let plain = encode(v, draw.exponent, &self.0.cfg, pk)?;
        Ok(self.seal_plain(pk, &plain, draw))
    }

    /// Seals the pair `(g, h)` with `draw`, one packed plaintext as
    /// [`Suite::encrypt_gh_batch`] makes it. A draw at another exponent
    /// than the plan's is [`CryptoError::ShapeMismatch`].
    pub fn seal_gh(&self, g: f64, h: f64, plan: &GhPlan, draw: Draw) -> Result<Ciphertext> {
        let pk = self.pk()?;
        if draw.exponent != plan.exponent() {
            return Err(CryptoError::ShapeMismatch {
                context: "seal_gh draw exponent vs the pair plan",
                left: draw.exponent as usize,
                right: plan.exponent() as usize,
            });
        }
        let rep = plan.encode_pair(g, h)?;
        Ok(self.seal_plain(pk, &rep, draw))
    }

    /// `plain`'s cipher under `draw`'s obfuscator, counted as one
    /// encryption.
    fn seal_plain(&self, pk: &PublicKey, plain: &BigUint, draw: Draw) -> Ciphertext {
        self.0.counters.add_enc(1);
        let cipher = pk.encrypt_raw_with_rn(plain, &from_limbs(&draw.rn));
        Ciphertext::Paillier(EncryptedNumber { cipher, exponent: draw.exponent })
    }

    /// Encrypts a batch, deterministically derived from `seed`: element `i`
    /// is sealed with the draw at `seed + i` ([`Suite::draw`]), so a
    /// sub-slice from `start` encrypted at `seed + start` is that slice of
    /// the whole batch, and a caller may make any element's draw ahead or
    /// on another thread. This is the encryption kernel of the blaster
    /// scheme. (The mock draws its exponents from one `seed` stream, in
    /// order, and makes no draws.)
    pub fn encrypt_batch(&self, values: &[f64], seed: u64) -> Result<Vec<Ciphertext>> {
        if self.0.pk.is_none() {
            // One counter update for the batch, not one per element: the
            // mock has no cipher work to hide an atomic behind.
            self.0.counters.add_enc(values.len() as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let plain = |&value| {
                Ciphertext::Plain(PlainNumber {
                    value,
                    exponent: self.0.cfg.draw_exponent(&mut rng),
                })
            };
            return Ok(values.iter().map(plain).collect());
        }
        self.sk()?; // a keyless half fails here, an empty batch too
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| self.seal(v, self.draw(seed.wrapping_add(i as u64), None)?))
            .collect()
    }

    /// Encrypts `(g, h)` pairs one packed plaintext each, deterministically
    /// derived from `seed`. The forward-path counterpart of
    /// [`Suite::encrypt_batch`] (same per-element `seed + i` draws, at the
    /// plan's exponent): one Paillier encryption per *pair* instead of one
    /// per value. Paillier suites only — the mock keeps separate g/h
    /// streams, so forward-path packing has nothing to gain there.
    pub fn encrypt_gh_batch(
        &self,
        g: &[f64],
        h: &[f64],
        plan: &GhPlan,
        seed: u64,
    ) -> Result<Vec<Ciphertext>> {
        if g.len() != h.len() {
            return Err(CryptoError::ShapeMismatch {
                context: "encrypt_gh_batch g/h lengths",
                left: g.len(),
                right: h.len(),
            });
        }
        if self.0.pk.is_none() {
            return Err(CryptoError::SuiteMismatch);
        }
        self.sk()?;
        let exponent = Some(plan.exponent());
        g.iter()
            .zip(h)
            .enumerate()
            .map(|(i, (&gv, &hv))| {
                self.seal_gh(gv, hv, plan, self.draw(seed.wrapping_add(i as u64), exponent)?)
            })
            .collect()
    }

    /// Decrypts a packed cipher whose slots are topped-up GH-pair bins
    /// (return-path packing composed with forward-path GH packing): one
    /// decryption recovers `(Σg, Σh)` for every slot, as the fixed-point
    /// integers they are ([`FixedPoint::to_f64`] is the float decode).
    ///
    /// The plaintext is sliced by the pair width *this* party derived: a
    /// peer declaring another `slot_bits`, an exponent off the plan's, more
    /// slots than the key carries, or leaving bits above its `count` slots
    /// is a typed error, never a garbage sum.
    pub fn unpack_decrypt_gh(
        &self,
        packed: &PackedCiphertext,
        plan: &GhPlan,
    ) -> Result<Vec<(FixedPoint, FixedPoint)>> {
        match packed {
            PackedCiphertext::Paillier { cipher, exponent, count, slot_bits } => {
                if *slot_bits != plan.pair_bits() || *exponent != plan.exponent() {
                    return Err(CryptoError::ShapeMismatch {
                        context: "gh packed layout vs the derived pair plan",
                        left: *slot_bits as usize,
                        right: plan.pair_bits() as usize,
                    });
                }
                let wire_plan = PackingPlan::new(self.pk()?, plan.pair_bits(), *count)?;
                let sk = self.sk()?;
                self.0.counters.add_dec(1);
                let plain = sk.decrypt_raw(cipher, &self.0.counters);
                unpack_plaintext(&plain, &wire_plan, *count)?
                    .iter()
                    .enumerate()
                    .map(|(slot, bits)| plan.decode_pair(bits, slot))
                    .collect()
            }
            PackedCiphertext::Plain(_) => Err(CryptoError::SuiteMismatch),
        }
    }

    /// Decrypts a cipher to a float (requires the private key in Paillier
    /// mode).
    pub fn decrypt(&self, c: &Ciphertext) -> Result<f64> {
        match (self.kind(), c) {
            (SuiteKind::Paillier, Ciphertext::Paillier(_)) => {
                Ok(self.decrypt_fixed(c)?.to_f64(&self.0.cfg))
            }
            (SuiteKind::Plain, Ciphertext::Plain(p)) => {
                self.0.counters.add_dec(1);
                Ok(p.value)
            }
            _ => Err(CryptoError::SuiteMismatch),
        }
    }

    /// Decrypts a Paillier cipher to the signed fixed-point integer it
    /// holds, before the float decode [`Suite::decrypt`] applies.
    pub fn decrypt_fixed(&self, c: &Ciphertext) -> Result<FixedPoint> {
        match c {
            Ciphertext::Paillier(e) => {
                let sk = self.sk()?;
                self.0.counters.add_dec(1);
                let plain = sk.decrypt_raw(&e.cipher, &self.0.counters);
                FixedPoint::from_plaintext(&plain, e.exponent, sk.public())
            }
            Ciphertext::Plain(_) => Err(CryptoError::SuiteMismatch),
        }
    }

    /// Additive identity at the given exponent (`⟦0⟧ = 1`, not obfuscated).
    pub fn zero(&self, exponent: i32) -> Ciphertext {
        match &self.0.pk {
            Some(pk) => Ciphertext::Paillier(EncryptedNumber { cipher: pk.zero_raw(), exponent }),
            None => Ciphertext::Plain(PlainNumber { value: 0.0, exponent }),
        }
    }

    /// A **full-size** encryption of zero at the given exponent.
    ///
    /// [`Suite::zero`] returns the trivial cipher `1`, which serializes to
    /// a single byte — fine for arithmetic but dishonest as a wire object
    /// (a real deployment obfuscates everything it ships, and an empty
    /// histogram bin must be indistinguishable in *size* from a full one).
    /// The obfuscation factor `rⁿ` is computed once per suite and cached:
    /// `rⁿ mod n²` is itself a valid encryption of zero.
    pub fn zero_obfuscated(&self, exponent: i32) -> Ciphertext {
        match &self.0.pk {
            None => self.zero(exponent),
            Some(pk) => {
                let cipher = self.cached_zero(pk).0.clone();
                Ciphertext::Paillier(EncryptedNumber { cipher, exponent })
            }
        }
    }

    /// The cached obfuscated zero, plain and resident (computed, and
    /// entered, once per suite).
    fn cached_zero(&self, pk: &PublicKey) -> &(BigUint, Resident) {
        self.0.cached_zero.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x5eed_0bf0_5eed_0bf0);
            let rn = pk.random_rn(&mut rng, &self.0.counters);
            let mut cost = MontCost::default();
            let resident = pk.enter(&rn, &mut cost);
            self.0.counters.add_cost(cost);
            (rn, resident)
        })
    }

    /// `c` entered into its key's resident form (one counted Montgomery
    /// multiplication); a mock cipher is carried as it is. A cipher of the
    /// other suite kind is [`CryptoError::SuiteMismatch`].
    pub fn enter(&self, c: &Ciphertext) -> Result<ResidentCiphertext> {
        match (&self.0.pk, c) {
            (Some(pk), Ciphertext::Paillier(e)) => {
                let mut cost = MontCost::default();
                let cipher = pk.enter(&e.cipher, &mut cost);
                self.0.counters.add_cost(cost);
                Ok(ResidentCiphertext::Paillier { cipher, exponent: e.exponent })
            }
            (None, Ciphertext::Plain(p)) => Ok(ResidentCiphertext::Plain(*p)),
            _ => Err(CryptoError::SuiteMismatch),
        }
    }

    /// The [`Ciphertext`] a resident cipher holds (one counted Montgomery
    /// multiplication under Paillier).
    pub fn leave(&self, c: &ResidentCiphertext) -> Result<Ciphertext> {
        match c {
            ResidentCiphertext::Paillier { cipher, exponent } => {
                let mut cost = MontCost::default();
                let cipher = self.pk()?.leave(cipher, &mut cost)?;
                self.0.counters.add_cost(cost);
                Ok(Ciphertext::Paillier(EncryptedNumber { cipher, exponent: *exponent }))
            }
            ResidentCiphertext::Plain(p) => Ok(Ciphertext::Plain(*p)),
        }
    }

    /// Exponent-aware HAdd on resident ciphers, `acc ← acc ⊕ b`: the
    /// histogram hot path. At equal exponents one Montgomery
    /// multiplication (no allocation); otherwise the lower-exponent operand
    /// first leaves, is scaled up by `B^Δe` (one counted scaling, as in
    /// [`Suite::add`]) and re-enters — the same integer `Suite::add`
    /// computes. The HAdd and the multiplications are tallied into `tally`,
    /// which the caller publishes ([`OpCounters::publish`]). A refused add
    /// leaves `acc` untouched.
    pub fn add_resident(
        &self,
        acc: &mut ResidentCiphertext,
        b: &ResidentCiphertext,
        tally: &mut OpSnapshot,
    ) -> Result<()> {
        match (acc, b) {
            (
                ResidentCiphertext::Paillier { cipher: x, exponent: ex },
                ResidentCiphertext::Paillier { cipher: y, exponent: ey },
            ) => {
                let pk = self.pk()?;
                let mut cost = MontCost::default();
                match (*ex).cmp(ey) {
                    Ordering::Equal => pk.mul_assign(x, y, &mut cost)?,
                    Ordering::Greater => {
                        let y = self.resident_scaled(pk, y, *ey, *ex, &mut cost)?;
                        pk.mul_assign(x, &y, &mut cost)?;
                    }
                    Ordering::Less => {
                        let mut up = self.resident_scaled(pk, x, *ex, *ey, &mut cost)?;
                        pk.mul_assign(&mut up, y, &mut cost)?;
                        (*x, *ex) = (up, *ey);
                    }
                }
                tally.hadd += 1;
                tally.add_cost(cost);
                Ok(())
            }
            (ResidentCiphertext::Plain(x), ResidentCiphertext::Plain(y)) => {
                x.hadd(y, tally);
                Ok(())
            }
            _ => Err(CryptoError::SuiteMismatch),
        }
    }

    /// A resident cipher at exponent `from` moved up to `to`: it leaves,
    /// is scaled ([`Suite::scaled`]) and re-enters.
    fn resident_scaled(
        &self,
        pk: &PublicKey,
        c: &Resident,
        from: i32,
        to: i32,
        cost: &mut MontCost,
    ) -> Result<Resident> {
        let e = EncryptedNumber { cipher: pk.leave(c, cost)?, exponent: from };
        Ok(pk.enter(&self.scaled(pk, &e, to)?, cost))
    }

    /// Packs a run of GH-pair bins for the return path in one Horner pass
    /// over their resident ciphers ([`pack_resident`]): each bin is
    /// `(cipher, rows)`, an empty bin (`None`) packs the cached obfuscated
    /// zero, and every bin's [`GhPlan::top_up`] folds into the one
    /// plaintext factor `1 + (Σⱼ top_upⱼ·2^(M·j))·n`. The packed cipher
    /// is the integer that topping each bin up and packing the results
    /// yields, at one HAdd per packed cipher instead of one per bin. Every
    /// bin must sit at the plan's exponent; Paillier suites only.
    pub fn pack_gh(
        &self,
        bins: &[(Option<&ResidentCiphertext>, u64)],
        plan: &GhPlan,
    ) -> Result<PackedCiphertext> {
        let pk = self.pk()?;
        let wire = PackingPlan::new(pk, plan.pair_bits(), bins.len())?;
        let zero = &self.cached_zero(pk).1;
        let mut top_up = BigUint::zero();
        let mut slots = Vec::with_capacity(bins.len());
        for (j, &(bin, rows)) in bins.iter().enumerate() {
            top_up += plan.top_up(rows)? << (plan.pair_bits() * j as u32);
            slots.push(match bin {
                None => zero,
                Some(ResidentCiphertext::Paillier { cipher, exponent }) => {
                    if *exponent != plan.exponent() {
                        return Err(exponents_differ(GH_EXPONENT, *exponent, plan.exponent()));
                    }
                    cipher
                }
                Some(ResidentCiphertext::Plain(_)) => return Err(CryptoError::SuiteMismatch),
            });
        }
        let cipher = pack_resident(&slots, &wire, Some(&top_up), pk, &self.0.counters)?;
        Ok(PackedCiphertext::Paillier {
            cipher,
            exponent: plan.exponent(),
            count: bins.len(),
            slot_bits: plan.pair_bits(),
        })
    }

    /// `e`'s cipher moved up to the exponent `target`: one `SMul` by
    /// `B^Δe`, counted as a *scaling* — or a plain copy when it is already
    /// there. Scaling down is not exact, so a lower target is a typed error.
    fn scaled(&self, pk: &PublicKey, e: &EncryptedNumber, target: i32) -> Result<RawCipher> {
        let up = u32::try_from(i64::from(target) - i64::from(e.exponent))
            .map_err(|_| exponents_differ(RESCALE_DOWN, e.exponent, target))?;
        if up == 0 {
            return Ok(e.cipher.clone());
        }
        self.0.counters.add_scaling(1);
        Ok(pk.mul_raw(&e.cipher, &self.0.cfg.base_pow(up), &self.0.counters))
    }

    /// Exponent-aware homomorphic addition.
    ///
    /// If the exponents differ, the lower-exponent operand is first scaled
    /// up by `B^Δe` — exactly the cost that §5.1's re-ordered accumulation
    /// avoids. Neither operand is copied.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        match (a, b) {
            (Ciphertext::Paillier(x), Ciphertext::Paillier(y)) => {
                let pk = self.pk()?;
                let (low, high) = if x.exponent <= y.exponent { (x, y) } else { (y, x) };
                let cipher = if low.exponent == high.exponent {
                    pk.add_raw(&low.cipher, &high.cipher)
                } else {
                    pk.add_raw(&self.scaled(pk, low, high.exponent)?, &high.cipher)
                };
                self.0.counters.add_hadd(1);
                Ok(Ciphertext::Paillier(EncryptedNumber { cipher, exponent: high.exponent }))
            }
            (Ciphertext::Plain(x), Ciphertext::Plain(y)) => {
                if x.exponent != y.exponent {
                    self.0.counters.add_scaling(1);
                }
                self.0.counters.add_hadd(1);
                Ok(Ciphertext::Plain(PlainNumber {
                    value: x.value + y.value,
                    exponent: x.exponent.max(y.exponent),
                }))
            }
            _ => Err(CryptoError::SuiteMismatch),
        }
    }

    /// Batch homomorphic negation, order-preserving. In Paillier mode the
    /// whole batch shares one modular inverse (Montgomery's trick,
    /// [`PublicKey::neg_batch_raw`]); the mock mirrors the per-element
    /// negation count so VF-MOCK stays counter-identical. The trainer never
    /// negates (the key owner subtracts histograms in plaintext); this
    /// serves the ciphertext reference derivation the guest's is tested
    /// against.
    pub fn neg_batch(&self, cs: &[&Ciphertext]) -> Result<Vec<Ciphertext>> {
        match &self.0.pk {
            Some(pk) => {
                let raws: Result<Vec<&RawCipher>> = cs
                    .iter()
                    .map(|c| match c {
                        Ciphertext::Paillier(e) => Ok(&e.cipher),
                        Ciphertext::Plain(_) => Err(CryptoError::SuiteMismatch),
                    })
                    .collect();
                let negs = pk.neg_batch_raw(&raws?)?;
                self.0.counters.add_neg(cs.len() as u64);
                Ok(negs
                    .into_iter()
                    .zip(cs)
                    .map(|(cipher, c)| {
                        Ciphertext::Paillier(EncryptedNumber { cipher, exponent: c.exponent() })
                    })
                    .collect())
            }
            None => {
                self.0.counters.add_neg(cs.len() as u64);
                cs.iter()
                    .map(|c| match c {
                        Ciphertext::Plain(p) => Ok(Ciphertext::Plain(PlainNumber {
                            value: -p.value,
                            exponent: p.exponent,
                        })),
                        Ciphertext::Paillier(_) => Err(CryptoError::SuiteMismatch),
                    })
                    .collect()
            }
        }
    }

    /// Adds a plaintext constant to a cipher without fresh randomness
    /// (`⟦V⟧ · gᵏ mod n²`). Used to shift histogram bins positive before
    /// packing; costs one modular multiplication.
    pub fn add_plain(&self, c: &Ciphertext, v: f64) -> Result<Ciphertext> {
        match c {
            Ciphertext::Paillier(e) => {
                self.add_plain_raw(c, &encode(v, e.exponent, &self.0.cfg, self.pk()?)?)
            }
            Ciphertext::Plain(p) => {
                self.0.counters.add_hadd(1);
                Ok(Ciphertext::Plain(PlainNumber { value: p.value + v, exponent: p.exponent }))
            }
        }
    }

    /// [`Suite::add_plain`] for a plaintext that is already an integer of
    /// the plaintext space (`⟦V⟧ · gᵏ mod n²`, one modular multiplication):
    /// how a host tops a GH-pair bin up by [`GhPlan::top_up`]. Paillier
    /// ciphers only.
    pub fn add_plain_raw(&self, c: &Ciphertext, k: &BigUint) -> Result<Ciphertext> {
        match c {
            Ciphertext::Paillier(e) => {
                let pk = self.pk()?;
                self.0.counters.add_hadd(1);
                let gk = pk.encrypt_raw_with_rn(k, &pk.zero_raw());
                Ok(Ciphertext::Paillier(EncryptedNumber {
                    cipher: pk.add_raw(&e.cipher, &gk),
                    exponent: e.exponent,
                }))
            }
            Ciphertext::Plain(_) => Err(CryptoError::SuiteMismatch),
        }
    }

    /// Rescales a cipher up to the exponent `target` (one counted scaling
    /// unless it is already there); a lower target is a typed error.
    pub fn rescale_to(&self, c: &Ciphertext, target: i32) -> Result<Ciphertext> {
        match c {
            Ciphertext::Paillier(e) => {
                let cipher = self.scaled(self.pk()?, e, target)?;
                Ok(Ciphertext::Paillier(EncryptedNumber { cipher, exponent: target }))
            }
            Ciphertext::Plain(p) => {
                if target < p.exponent {
                    return Err(exponents_differ(RESCALE_DOWN, p.exponent, target));
                }
                if target != p.exponent {
                    self.0.counters.add_scaling(1);
                }
                Ok(Ciphertext::Plain(PlainNumber { value: p.value, exponent: target }))
            }
        }
    }

    /// Packs slot ciphers into one packed cipher (paper §5.2).
    ///
    /// All slots are first normalized to their maximum exponent. In Paillier
    /// mode every slot plaintext must be non-negative and below
    /// `2^slot_bits` *after* encoding — callers are responsible for shifting
    /// (see `vf2boost-core::packing`).
    pub fn pack(&self, slots: &[Ciphertext], plan: &PackingPlan) -> Result<PackedCiphertext> {
        let Some(max_exp) = slots.iter().map(Ciphertext::exponent).max() else {
            return Err(CryptoError::PackingCapacity { requested: 0, max: plan.slots });
        };
        match &self.0.pk {
            Some(pk) => {
                let raws: Result<Vec<RawCipher>> = slots
                    .iter()
                    .map(|c| match c {
                        Ciphertext::Paillier(e) => self.scaled(pk, e, max_exp),
                        Ciphertext::Plain(_) => Err(CryptoError::SuiteMismatch),
                    })
                    .collect();
                let packed = pack_ciphers(&raws?, plan, pk, &self.0.counters)?;
                Ok(PackedCiphertext::Paillier {
                    cipher: packed,
                    exponent: max_exp,
                    count: slots.len(),
                    slot_bits: plan.slot_bits,
                })
            }
            None => {
                self.0.counters.add_pack(1);
                self.0.counters.add_hadd(slots.len().saturating_sub(1) as u64);
                self.0.counters.add_smul(slots.len().saturating_sub(1) as u64);
                let values: Result<Vec<f64>> = slots
                    .iter()
                    .map(|c| match c {
                        Ciphertext::Plain(p) => Ok(p.value),
                        Ciphertext::Paillier(_) => Err(CryptoError::SuiteMismatch),
                    })
                    .collect();
                Ok(PackedCiphertext::Plain(values?))
            }
        }
    }

    /// Decrypts a packed cipher and returns the slot values (still shifted;
    /// the caller subtracts the packing shift). One decryption recovers all
    /// slots.
    pub fn unpack_decrypt(&self, packed: &PackedCiphertext) -> Result<Vec<f64>> {
        match packed {
            PackedCiphertext::Paillier { cipher, exponent, count, slot_bits } => {
                let sk = self.sk()?;
                self.0.counters.add_dec(1);
                let plain = sk.decrypt_raw(cipher, &self.0.counters);
                let plan = PackingPlan { slot_bits: *slot_bits, slots: *count };
                let scale = self.0.cfg.base_pow_f64(*exponent);
                Ok(unpack_plaintext(&plain, &plan, *count)?
                    .into_iter()
                    .map(|v| biguint_to_f64(&v) / scale)
                    .collect())
            }
            PackedCiphertext::Plain(values) => {
                self.0.counters.add_dec(1);
                Ok(values.clone())
            }
        }
    }
}

const RESCALE_DOWN: &str = "rescale below the cipher's exponent";
const GH_EXPONENT: &str = "gh bin exponent vs the pair plan's";

/// Two exponents an operation needed equal (or ordered) were not; the
/// shapes reported are their magnitudes.
fn exponents_differ(context: &'static str, left: i32, right: i32) -> CryptoError {
    CryptoError::ShapeMismatch {
        context,
        left: left.unsigned_abs() as usize,
        right: right.unsigned_abs() as usize,
    }
}

fn biguint_to_f64(v: &BigUint) -> f64 {
    use num_traits::ToPrimitive;
    v.to_f64().unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paillier_suite() -> Suite {
        Suite::paillier_seeded(384, 42, EncodingConfig::default()).unwrap()
    }

    #[test]
    fn paillier_suite_round_trip() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(1);
        for v in [0.0f64, 1.5, -1.5, 0.001, -42.0, -2.75] {
            let c = s.encrypt(v, &mut rng).unwrap();
            let d = s.decrypt(&c).unwrap();
            assert!((d - v).abs() < 1e-9, "{v} -> {d}");
        }
        let snap = s.counters().snapshot();
        assert_eq!((snap.enc, snap.dec), (6, 6));
    }

    #[test]
    fn add_with_matching_exponents_needs_no_scaling() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(17);
        let a = s.encrypt_at(1.25, 10, &mut rng).unwrap();
        let b = s.encrypt_at(2.5, 10, &mut rng).unwrap();
        let sum = s.add(&a, &b).unwrap();
        assert_eq!(s.counters().snapshot().scalings, 0);
        assert!((s.decrypt(&sum).unwrap() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn add_with_mismatched_exponents_scales_once() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(17);
        let a = s.encrypt_at(1.25, 10, &mut rng).unwrap();
        let b = s.encrypt_at(-0.75, 12, &mut rng).unwrap();
        // Whichever side the lower exponent is on, it alone is scaled.
        for (x, y) in [(&a, &b), (&b, &a)] {
            let before = s.counters().snapshot();
            let sum = s.add(x, y).unwrap();
            let spent = s.counters().snapshot().since(&before);
            assert_eq!((spent.scalings, spent.hadd), (1, 1));
            assert_eq!(sum.exponent(), 12);
            assert!((s.decrypt(&sum).unwrap() - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_is_additive_identity() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(17);
        let mut acc = s.enter(&s.encrypt_at(-7.5, 10, &mut rng).unwrap()).unwrap();
        let zero = s.enter(&s.zero(10)).unwrap();
        s.add_resident(&mut acc, &zero, &mut OpSnapshot::default()).unwrap();
        let acc = s.leave(&acc).unwrap();
        assert!((s.decrypt(&acc).unwrap() + 7.5).abs() < 1e-9);
        let with_obfuscated = s.add(&acc, &s.zero_obfuscated(10)).unwrap();
        assert!((s.decrypt(&with_obfuscated).unwrap() + 7.5).abs() < 1e-9);
    }

    #[test]
    fn scalar_multiply_scales_the_value() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(17);
        let Ciphertext::Paillier(e) = s.encrypt_at(2.5, 10, &mut rng).unwrap() else {
            panic!("paillier suite encrypts paillier ciphers");
        };
        let cipher = s.public_key().unwrap().mul_raw(&e.cipher, &BigUint::from(3u32), s.counters());
        let tripled = Ciphertext::Paillier(EncryptedNumber { cipher, exponent: e.exponent });
        assert!((s.decrypt(&tripled).unwrap() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn long_accumulation_stays_exact() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(17);
        let mut acc = s.zero(s.encoding().base_exp);
        let mut expected = 0.0f64;
        for i in 0..64 {
            let v = (i as f64) * 0.125 - 3.0;
            expected += v;
            acc = s.add(&acc, &s.encrypt(v, &mut rng).unwrap()).unwrap();
        }
        let got = s.decrypt(&acc).unwrap();
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn resident_add_is_suite_add_and_refuses_foreign_ciphers_in_both_suites() {
        let mut rng = StdRng::seed_from_u64(18);
        let (p, m) = (paillier_suite(), Suite::plain(EncodingConfig::default()));
        for s in [&p, &m] {
            let a = s.encrypt_at(1.5, 10, &mut rng).unwrap();
            let bs = [
                s.encrypt_at(0.5, 10, &mut rng).unwrap(),
                s.encrypt_at(0.5, 12, &mut rng).unwrap(),
            ];
            for b in bs {
                // Either side may hold the lower exponent.
                for (x, y) in [(&a, &b), (&b, &a)] {
                    let before = s.counters().snapshot();
                    let want = s.add(x, y).unwrap();
                    let by_add = s.counters().snapshot().since(&before);
                    let mut acc = s.enter(x).unwrap();
                    let y = s.enter(y).unwrap();
                    let (before, mut tally) = (s.counters().snapshot(), OpSnapshot::default());
                    s.add_resident(&mut acc, &y, &mut tally).unwrap();
                    s.counters().publish(&tally);
                    let spent = s.counters().snapshot().since(&before);
                    assert_eq!(s.leave(&acc).unwrap(), want, "{:?}", s.kind());
                    assert_eq!((spent.hadd, spent.scalings), (by_add.hadd, by_add.scalings));
                }
            }
        }
        // A cipher of the other suite: refused on entry, and refused by
        // an accumulator of the other kind, which stays as it was.
        let (cp, cm) =
            (p.encrypt_at(1.0, 10, &mut rng).unwrap(), m.encrypt_at(1.0, 10, &mut rng).unwrap());
        assert_eq!(p.enter(&cm), Err(CryptoError::SuiteMismatch));
        assert_eq!(m.enter(&cp), Err(CryptoError::SuiteMismatch));
        let (rp, rm) = (p.enter(&cp).unwrap(), m.enter(&cm).unwrap());
        for (s, acc, foreign) in [(&p, &rp, &rm), (&m, &rm, &rp)] {
            let (mut kept, mut tally) = (acc.clone(), OpSnapshot::default());
            let err = s.add_resident(&mut kept, foreign, &mut tally).unwrap_err();
            assert_eq!(err, CryptoError::SuiteMismatch);
            assert_eq!((&kept, tally), (acc, OpSnapshot::default()));
        }
    }

    #[test]
    fn rescale_goes_up_only_and_only_within_one_suite() {
        let mut rng = StdRng::seed_from_u64(19);
        let (p, m) = (paillier_suite(), Suite::plain(EncodingConfig::default()));
        for s in [&p, &m] {
            let c = s.encrypt_at(3.25, 10, &mut rng).unwrap();
            let before = s.counters().snapshot();
            let up = s.rescale_to(&c, 13).unwrap();
            assert_eq!(s.rescale_to(&c, 10).unwrap(), c);
            assert_eq!(s.counters().snapshot().since(&before).scalings, 1);
            assert_eq!((up.exponent(), s.decrypt(&up).unwrap()), (13, 3.25));
            let err = s.rescale_to(&c, 9).unwrap_err();
            assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
        }
        // A Paillier cipher under the keyless suite: an error, not a panic.
        let foreign = p.encrypt_at(1.0, 10, &mut rng).unwrap();
        assert!(matches!(m.rescale_to(&foreign, 12), Err(CryptoError::SuiteMismatch)));
    }

    #[test]
    fn plain_suite_round_trip() {
        let s = Suite::plain(EncodingConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let c = s.encrypt(3.5, &mut rng).unwrap();
        assert_eq!(s.decrypt(&c).unwrap(), 3.5);
        assert_eq!(s.counters().snapshot().enc, 1);
    }

    #[test]
    fn public_half_cannot_decrypt() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(2);
        let c = s.encrypt(1.0, &mut rng).unwrap();
        let host = s.public_half();
        assert!(matches!(host.decrypt(&c), Err(CryptoError::MissingPrivateKey)));
    }

    #[test]
    fn host_can_accumulate_what_guest_decrypts() {
        let guest = paillier_suite();
        let host = guest.public_half();
        let mut rng = StdRng::seed_from_u64(3);
        let a = guest.encrypt_at(1.5, 10, &mut rng).unwrap();
        let b = guest.encrypt_at(2.25, 10, &mut rng).unwrap();
        let sum = host.add(&a, &b).unwrap();
        assert!((guest.decrypt(&sum).unwrap() - 3.75).abs() < 1e-9);
        // The host performed the addition, and its counters saw it.
        assert_eq!(host.counters().snapshot().hadd, 1);
        assert_eq!(guest.counters().snapshot().hadd, 0);
    }

    #[test]
    fn neg_batch_negates_every_element_in_order_in_both_suites() {
        let mut rng = StdRng::seed_from_u64(23);
        let values = [1.5, -0.25, 3.0, 0.0];
        for s in [paillier_suite(), Suite::plain(EncodingConfig::default())] {
            let cts: Vec<Ciphertext> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| s.encrypt_at(v, 10 + i as i32 % 2, &mut rng).unwrap())
                .collect();
            let refs: Vec<&Ciphertext> = cts.iter().collect();
            let before = s.counters().snapshot();
            let batch = s.neg_batch(&refs).unwrap();
            assert_eq!(s.counters().snapshot().since(&before).negs, 4);
            for ((c, n), v) in cts.iter().zip(&batch).zip(values) {
                assert_eq!(n.exponent(), c.exponent());
                assert_eq!(s.decrypt(n).unwrap(), -v);
            }
            assert!(s.neg_batch(&[]).unwrap().is_empty());
        }
    }

    #[test]
    fn add_plain_shifts_value() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(4);
        let c = s.encrypt_at(-0.5, 10, &mut rng).unwrap();
        let shifted = s.add_plain(&c, 100.0).unwrap();
        assert!((s.decrypt(&shifted).unwrap() - 99.5).abs() < 1e-9);
    }

    #[test]
    fn pack_and_unpack_positive_slots() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(5);
        let plan = PackingPlan::new(s.public_key().unwrap(), 64, 3).unwrap();
        // Positive values at a common exponent, as after shift+prefix-sum.
        let slots: Vec<Ciphertext> =
            [1.5, 2.25, 100.0].iter().map(|&v| s.encrypt_at(v, 10, &mut rng).unwrap()).collect();
        let packed = s.pack(&slots, &plan).unwrap();
        let values = s.unpack_decrypt(&packed).unwrap();
        assert_eq!(values.len(), 3);
        for (got, want) in values.iter().zip([1.5, 2.25, 100.0]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn pack_normalizes_mixed_exponents() {
        let s = paillier_suite();
        let mut rng = StdRng::seed_from_u64(6);
        let plan = PackingPlan::new(s.public_key().unwrap(), 64, 2).unwrap();
        let slots = vec![
            s.encrypt_at(3.0, 10, &mut rng).unwrap(),
            s.encrypt_at(4.0, 12, &mut rng).unwrap(),
        ];
        let packed = s.pack(&slots, &plan).unwrap();
        let values = s.unpack_decrypt(&packed).unwrap();
        assert!((values[0] - 3.0).abs() < 1e-6);
        assert!((values[1] - 4.0).abs() < 1e-6);
        assert!(s.counters().snapshot().scalings >= 1);
    }

    #[test]
    fn plain_packing_mirrors_counts() {
        let s = Suite::plain(EncodingConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let plan = PackingPlan { slot_bits: 64, slots: 4 };
        let slots: Vec<Ciphertext> =
            (0..4).map(|i| s.encrypt_at(i as f64, 10, &mut rng).unwrap()).collect();
        let packed = s.pack(&slots, &plan).unwrap();
        assert_eq!(s.unpack_decrypt(&packed).unwrap(), vec![0.0, 1.0, 2.0, 3.0]);
        let snap = s.counters().snapshot();
        assert_eq!(snap.packs, 1);
        assert_eq!(snap.hadd, 3);
        assert_eq!(snap.smul, 3);
    }

    #[test]
    fn mixing_suites_is_an_error() {
        let p = paillier_suite();
        let m = Suite::plain(EncodingConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let cp = p.encrypt(1.0, &mut rng).unwrap();
        let cm = m.encrypt(1.0, &mut rng).unwrap();
        assert!(matches!(p.add(&cp, &cm), Err(CryptoError::SuiteMismatch)));
    }

    /// Tops every bin up to the plan's offset and packs them into one
    /// cipher, as a host does on the return path.
    fn top_up_and_pack(
        host: &Suite,
        plan: &GhPlan,
        bins: &[(Ciphertext, u64)],
    ) -> PackedCiphertext {
        let topped: Vec<Ciphertext> = bins
            .iter()
            .map(|(c, rows)| host.add_plain_raw(c, &plan.top_up(*rows).unwrap()).unwrap())
            .collect();
        let wire =
            PackingPlan::new(host.public_key().unwrap(), plan.pair_bits(), topped.len()).unwrap();
        host.pack(&topped, &wire).unwrap()
    }

    #[test]
    fn gh_batch_accumulates_and_survives_return_path_packing() {
        let s = paillier_suite();
        let plan = GhPlan::new(1.0, 1.0, 8, s.encoding()).unwrap();
        plan.validate_capacity(s.public_key().unwrap()).unwrap();
        let g = [0.5, -0.25, 0.75, -1.0];
        let h = [0.25, 0.25, 0.125, 0.0];
        let before = s.counters().snapshot();
        let cts = s.encrypt_gh_batch(&g, &h, &plan, 77).unwrap();
        assert_eq!(s.counters().snapshot().since(&before).enc, 4);
        // HAdd on packed pairs accumulates both components at once; a bin
        // of one row and a bin of four ride in the same packed cipher.
        let host = s.public_half();
        let mut acc = cts[0].clone();
        for c in &cts[1..] {
            acc = host.add(&acc, c).unwrap();
        }
        let packed = top_up_and_pack(&host, &plan, &[(cts[1].clone(), 1), (acc, 4)]);
        let before = s.counters().snapshot();
        let pairs = s.unpack_decrypt_gh(&packed, &plan).unwrap();
        assert_eq!(s.counters().snapshot().since(&before).dec, 1);
        let floats: Vec<(f64, f64)> =
            pairs.iter().map(|(g, h)| (g.to_f64(s.encoding()), h.to_f64(s.encoding()))).collect();
        assert_eq!(floats, vec![(-0.25, 0.25), (0.0, 0.625)]);
    }

    #[test]
    fn gh_unpack_uses_the_derived_width_not_the_declared_one() {
        let s = paillier_suite();
        let host = s.public_half();
        let plan = GhPlan::new(1.0, 1.0, 8, s.encoding()).unwrap();
        let cts = s.encrypt_gh_batch(&[0.5, -0.5], &[0.25, 0.5], &plan, 9).unwrap();
        let honest = top_up_and_pack(&host, &plan, &[(cts[0].clone(), 1), (cts[1].clone(), 1)]);
        let PackedCiphertext::Paillier { cipher, exponent, count, slot_bits } = honest.clone()
        else {
            panic!("paillier suite packs paillier ciphers");
        };
        s.unpack_decrypt_gh(&honest, &plan).unwrap();
        let forged = |exponent, count, slot_bits| PackedCiphertext::Paillier {
            cipher: cipher.clone(),
            exponent,
            count,
            slot_bits,
        };
        // Another width or exponent than the plan's: refused before any
        // decryption is spent on it.
        let before = s.counters().snapshot();
        for lie in [forged(exponent, count, slot_bits + 8), forged(exponent - 1, count, slot_bits)]
        {
            let err = s.unpack_decrypt_gh(&lie, &plan).unwrap_err();
            assert!(matches!(err, CryptoError::ShapeMismatch { .. }), "{err}");
        }
        // More slots than the key carries.
        let err = s.unpack_decrypt_gh(&forged(exponent, 99, slot_bits), &plan).unwrap_err();
        assert!(matches!(err, CryptoError::PackingCapacity { requested: 99, .. }), "{err}");
        assert_eq!(s.counters().snapshot().since(&before).dec, 0);
        // Fewer slots declared than packed: the plaintext has bits above
        // the declared run.
        let err = s.unpack_decrypt_gh(&forged(exponent, 1, slot_bits), &plan).unwrap_err();
        assert_eq!(err, CryptoError::PackedValueTooLarge { slot: 1 });
    }

    /// Element `i` of a batch draws from `seed + i`, so a range encrypted
    /// at `seed + start` is that range of the whole batch: what lets the
    /// guest cut a batch across its pool.
    #[test]
    fn a_sub_batch_at_seed_plus_start_is_that_slice_of_the_batch() {
        let s = paillier_suite();
        let plan = GhPlan::new(1.0, 1.0, 16, s.encoding()).unwrap();
        let g: Vec<f64> = (0..10).map(|i| (i as f64) / 10.0 - 0.5).collect();
        let h: Vec<f64> = (0..10).map(|i| 0.25 - (i as f64) * 0.01).collect();
        let whole = s.encrypt_batch(&g, 5).unwrap();
        let whole_gh = s.encrypt_gh_batch(&g, &h, &plan, 5).unwrap();
        for (start, end) in [(0, 4), (3, 7), (7, 10), (9, 10)] {
            let seed = 5 + start as u64;
            assert_eq!(s.encrypt_batch(&g[start..end], seed).unwrap(), whole[start..end]);
            let gh = s.encrypt_gh_batch(&g[start..end], &h[start..end], &plan, seed).unwrap();
            assert_eq!(gh, whole_gh[start..end], "pairs {start}..{end}");
        }
    }

    #[test]
    fn gh_batch_rejects_mock_and_mismatched_lengths() {
        let s = paillier_suite();
        let plan = GhPlan::new(1.0, 1.0, 4, s.encoding()).unwrap();
        assert!(matches!(
            s.encrypt_gh_batch(&[1.0], &[1.0, 2.0], &plan, 1),
            Err(CryptoError::ShapeMismatch { .. })
        ));
        let m = Suite::plain(EncodingConfig::default());
        let mplan = GhPlan::new(1.0, 1.0, 4, m.encoding()).unwrap();
        assert!(matches!(
            m.encrypt_gh_batch(&[1.0], &[1.0], &mplan, 1),
            Err(CryptoError::SuiteMismatch)
        ));
    }

    #[test]
    fn encrypt_batch_is_deterministic_given_seed() {
        let s = paillier_suite();
        let values = [0.5, -0.5, 0.25];
        let a = s.encrypt_batch(&values, 99).unwrap();
        let b = s.encrypt_batch(&values, 99).unwrap();
        assert_eq!(a, b);
        for (c, want) in a.iter().zip(values) {
            assert!((s.decrypt(c).unwrap() - want).abs() < 1e-9);
        }
    }
}
