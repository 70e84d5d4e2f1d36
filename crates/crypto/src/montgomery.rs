//! Montgomery-domain modular arithmetic over [`Fixed`] limbs.
//!
//! The hot Paillier operations are modular exponentiations at a width
//! fixed per key: `rⁿ mod n²` obfuscation, scalar `SMul`, and the two
//! half-size CRT exponentiations inside decryption. `Montgomery<N>`
//! implements CIOS (coarsely integrated operand scanning) Montgomery
//! multiplication, a dedicated Montgomery squaring (half the operand
//! products) and a 4-bit fixed-window exponentiation entirely on
//! stack-allocated limb arrays; [`MontExp`] erases the width behind a
//! trait object so a [`crate::paillier::PublicKey`] can carry one without
//! being generic itself.
//!
//! Domain boundary rule: nothing outside this module ever observes a
//! Montgomery-form residue. A `modpow`/`modmul` call enters Montgomery
//! form and leaves it before it returns. A [`Resident`] stays in the form
//! *across* calls — the host's histogram ciphers enter once on receipt
//! and leave once per packed cipher — but its limbs are private: a caller
//! can only run a Horner step on residents ([`MontExp::horner_step`],
//! which with no squarings is a plain multiplication), compare them, and
//! [`MontExp::leave`] with the plain residue.
//! Dispatch rule: [`MontExp::new`] picks the smallest supported limb
//! count `N` with `64·N ≥ modulus bits`; even moduli and widths beyond
//! 128 limbs (8192 bits, the `n²` of a 4096-bit key) have no context
//! (`None`).

use num_bigint::BigUint;
use num_integer::Integer;
use num_traits::One;

use crate::error::{CryptoError, Result};
use crate::fixed::{mac, Fixed};

/// Work performed by the Montgomery core during one call.
///
/// `modmuls` counts Montgomery multiplications (the REDC unit of work);
/// `redc_limbs` weights each by its limb width `N`, so totals are
/// comparable across the `mod n²` and `mod p²`/`mod q²` domains.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MontCost {
    /// Montgomery multiplications (each is one interleaved REDC pass).
    pub modmuls: u64,
    /// Limb-level REDC work: Σ over multiplications of the limb width.
    pub redc_limbs: u64,
}

impl MontCost {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: MontCost) {
        self.modmuls += other.modmuls;
        self.redc_limbs += other.redc_limbs;
    }
}

/// Recodes an exponent into MSB-first 4-bit windows (nibbles) with
/// leading zeros stripped; a zero exponent recodes to an empty vector.
///
/// Precomputing this once per fixed exponent (the CRT decryption
/// exponents `p−1`/`q−1`, the key owner's obfuscator exponents `p`/`q`)
/// skips the per-call recoding scan.
pub fn recode_window4(exp: &BigUint) -> Vec<u8> {
    let le = exp.to_bytes_le();
    let mut nibbles = Vec::with_capacity(le.len() * 2);
    for &b in le.iter().rev() {
        nibbles.push(b >> 4);
        nibbles.push(b & 0xf);
    }
    match nibbles.iter().position(|&n| n != 0) {
        Some(i) => nibbles.split_off(i),
        None => Vec::new(),
    }
}

/// `a + b + carry` as a `(low, carry-out)` pair; `carry` is 0 or 1.
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Montgomery context for an odd modulus occupying `N` 64-bit limbs.
struct Montgomery<const N: usize> {
    /// The modulus `m`.
    m: Fixed<N>,
    /// `−m⁻¹ mod 2⁶⁴` (the REDC quotient multiplier).
    n0inv: u64,
    /// `R² mod m` where `R = 2^(64N)`: multiplying by this enters the
    /// Montgomery domain.
    rr: Fixed<N>,
}

impl<const N: usize> Montgomery<N> {
    /// Builds a context, or `None` if `m` is even, `≤ 1`, or wider than
    /// `N` limbs.
    fn new(modulus: &BigUint) -> Option<Montgomery<N>> {
        if modulus.is_even() || modulus <= &BigUint::one() {
            return None;
        }
        let m = Fixed::<N>::from_biguint(modulus)?;
        // Newton iteration for m₀⁻¹ mod 2⁶⁴: odd m₀ satisfies
        // m₀·m₀ ≡ 1 (mod 8), and each step doubles the valid bits.
        let m0 = m.0[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        let r2 = (BigUint::one() << (128 * N as u64)) % modulus;
        let rr = Fixed::<N>::from_biguint(&r2)?;
        Some(Montgomery { m, n0inv: inv.wrapping_neg(), rr })
    }

    /// CIOS Montgomery multiplication: `a·b·R⁻¹ mod m` for `a, b < m`.
    fn mont_mul(&self, a: &Fixed<N>, b: &Fixed<N>, cost: &mut MontCost) -> Fixed<N> {
        cost.modmuls += 1;
        cost.redc_limbs += N as u64;
        let m = &self.m.0;
        let mut t = [0u64; N];
        let mut t_n: u64 = 0; // limb N of the running accumulator
        let mut t_n1: u64 = 0; // limb N+1 (at most 1)
        for i in 0..N {
            // t += a[i] · b
            let mut carry = 0u64;
            for (tj, bj) in t.iter_mut().zip(&b.0) {
                let (v, c) = mac(*tj, a.0[i], *bj, carry);
                *tj = v;
                carry = c;
            }
            let (v, c) = t_n.overflowing_add(carry);
            t_n = v;
            t_n1 += c as u64;
            // t += (t[0]·n0inv mod 2⁶⁴) · m, then shift right one limb;
            // the quotient choice zeroes t[0] exactly.
            let q = t[0].wrapping_mul(self.n0inv);
            let (_, mut carry) = mac(t[0], q, m[0], 0);
            for j in 1..N {
                let (v, c) = mac(t[j], q, m[j], carry);
                t[j - 1] = v;
                carry = c;
            }
            let (v, c) = t_n.overflowing_add(carry);
            t[N - 1] = v;
            t_n = t_n1 + c as u64;
            t_n1 = 0;
        }
        // Result is < 2m: one conditional subtraction normalizes.
        let res = Fixed(t);
        if t_n != 0 || res.cmp_mag(&self.m) != std::cmp::Ordering::Less {
            res.sbb(&self.m).0
        } else {
            res
        }
    }

    /// Montgomery squaring: `a²·R⁻¹ mod m` for `a < m`, bit-identical to
    /// `mont_mul(a, a)`.
    ///
    /// Product scanning over one flat `2N`-limb buffer: the off-diagonal
    /// products `a[i]·a[j]` (`i < j`) are formed once and doubled, the
    /// diagonal `a[i]²` is added, and one `N`-row REDC pass folds the low
    /// half away — `N(N+1)/2 + N²` limb multiplies against CIOS's `2N²`.
    /// Each row is a `split_at_mut` + `zip` walk, so the inner loops carry
    /// no bounds checks.
    fn mont_sqr(&self, a: &Fixed<N>, cost: &mut MontCost) -> Fixed<N> {
        cost.modmuls += 1;
        cost.redc_limbs += N as u64;
        let a = &a.0;
        let mut buf = [[0u64; N]; 2];
        let t = buf.as_flattened_mut();
        // Row i lands a[i]·a[i+1..] on limbs 2i+1 .. i+N−1; its carry is
        // the first write to limb i+N.
        for (i, &ai) in a.iter().enumerate() {
            let (row, above) = t[2 * i + 1..].split_at_mut(N - 1 - i);
            let mut carry = 0u64;
            for (tj, &aj) in row.iter_mut().zip(&a[i + 1..]) {
                (*tj, carry) = mac(*tj, ai, aj, carry);
            }
            above[0] = carry;
        }
        // t = 2·t + Σ a[i]²·2^(128i), two limbs per step; a² < R² so both
        // the shifted-out bit and the carry die at the top.
        let mut shifted = 0u64;
        let mut carry = 0u64;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
            let lo = (pair[0] << 1) | shifted;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted = pair[1] >> 63;
            let sq = (ai as u128) * (ai as u128);
            let (v, c) = adc(lo, sq as u64, carry);
            pair[0] = v;
            (pair[1], carry) = adc(hi, (sq >> 64) as u64, c);
        }
        // REDC: row i adds q·m at limb i so limb i becomes zero; `top` is
        // the carry out of limb i+N, owed to limb i+N+1 (at the end, to
        // limb 2N).
        let mut top = 0u64;
        for i in 0..N {
            let (row, above) = t[i..].split_at_mut(N);
            let q = row[0].wrapping_mul(self.n0inv);
            let mut carry = 0u64;
            for (tj, &mj) in row.iter_mut().zip(&self.m.0) {
                (*tj, carry) = mac(*tj, q, mj, carry);
            }
            (above[0], top) = adc(above[0], carry, top);
        }
        let mut res = Fixed::<N>::ZERO;
        res.0.copy_from_slice(&t[N..]);
        // Result is < 2m: one conditional subtraction normalizes.
        if top != 0 || res.cmp_mag(&self.m) != std::cmp::Ordering::Less {
            res.sbb(&self.m).0
        } else {
            res
        }
    }

    /// 4-bit fixed-window exponentiation of `base < m` by a
    /// [`recode_window4`]-recoded exponent. Returns a plain (non-Montgomery)
    /// residue; an empty nibble slice (exponent 0) yields 1.
    fn pow_recoded(&self, base: &Fixed<N>, nibbles: &[u8], cost: &mut MontCost) -> Fixed<N> {
        let (Some(&max_nib), Some((&first, rest))) = (nibbles.iter().max(), nibbles.split_first())
        else {
            return Fixed::one();
        };
        let base_m = self.mont_mul(base, &self.rr, cost);
        // table[k] = base^k in Montgomery form, built lazily up to the
        // largest window actually used (small exponents stay cheap).
        let mut table = [Fixed::<N>::ZERO; 16];
        table[1] = base_m;
        for k in 2..=max_nib as usize {
            table[k] = self.mont_mul(&table[k - 1], &base_m, cost);
        }
        let mut acc = table[first as usize];
        for &nib in rest {
            for _ in 0..4 {
                acc = self.mont_sqr(&acc, cost);
            }
            if nib != 0 {
                acc = self.mont_mul(&acc, &table[nib as usize], cost);
            }
        }
        // Multiplying by plain 1 performs the final REDC out of the
        // Montgomery domain.
        self.mont_mul(&acc, &Fixed::one(), cost)
    }
}

/// An integer modulo a fixed modulus held in its working form between
/// operations: `a·R mod m` as the `N` Montgomery limbs of the [`MontExp`]
/// that entered it.
///
/// Opaque: equal residents hold equal residues (the form is fully
/// reduced), and the value is read back only through `leave`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resident(Box<[u64]>);

/// Width-erased operations; implemented once per monomorphized limb
/// count. Inputs are already reduced below the modulus by [`MontExp`];
/// resident limbs of another width are refused (`false` / `None`).
trait MontOps: Send + Sync {
    fn pow_recoded(&self, base: &BigUint, nibbles: &[u8], cost: &mut MontCost) -> BigUint;
    fn mul(&self, a: &BigUint, b: &BigUint, cost: &mut MontCost) -> BigUint;
    fn enter(&self, a: &BigUint, cost: &mut MontCost) -> Box<[u64]>;
    fn leave(&self, a: &[u64], cost: &mut MontCost) -> Option<BigUint>;
    fn horner_step(&self, acc: &mut [u64], k: u32, b: &[u64], cost: &mut MontCost) -> bool;
    fn limbs(&self) -> usize;
}

/// Loads an operand into `N` limbs.
// Infallible: `MontExp` is this trait's only caller and reduces every
// operand below the modulus first, and the modulus fits `N` limbs
// (`Montgomery::new` checked it).
#[allow(clippy::expect_used)]
fn load<const N: usize>(v: &BigUint) -> Fixed<N> {
    Fixed::from_biguint(v).expect("operand reduced below modulus")
}

impl<const N: usize> MontOps for Montgomery<N> {
    fn pow_recoded(&self, base: &BigUint, nibbles: &[u8], cost: &mut MontCost) -> BigUint {
        self.pow_recoded(&load(base), nibbles, cost).to_biguint()
    }

    fn mul(&self, a: &BigUint, b: &BigUint, cost: &mut MontCost) -> BigUint {
        let (fa, fb) = (load(a), load(b));
        // a·b·R⁻¹ followed by ·R²·R⁻¹ recovers plain a·b mod m in two
        // Montgomery multiplications, no separate domain conversions.
        let t = self.mont_mul(&fa, &fb, cost);
        self.mont_mul(&t, &self.rr, cost).to_biguint()
    }

    fn enter(&self, a: &BigUint, cost: &mut MontCost) -> Box<[u64]> {
        Box::new(self.mont_mul(&load(a), &self.rr, cost).0)
    }

    fn leave(&self, a: &[u64], cost: &mut MontCost) -> Option<BigUint> {
        let a = <&[u64; N]>::try_from(a).ok()?;
        Some(self.mont_mul(&Fixed(*a), &Fixed::one(), cost).to_biguint())
    }

    fn horner_step(&self, acc: &mut [u64], k: u32, b: &[u64], cost: &mut MontCost) -> bool {
        let (Ok(acc), Ok(b)) = (<&mut [u64; N]>::try_from(acc), <&[u64; N]>::try_from(b)) else {
            return false;
        };
        let mut a = Fixed(*acc);
        for _ in 0..k {
            a = self.mont_sqr(&a, cost);
        }
        *acc = self.mont_mul(&a, &Fixed(*b), cost).0;
        true
    }

    fn limbs(&self) -> usize {
        N
    }
}

/// A width-dispatched Montgomery exponentiator for one fixed odd modulus.
///
/// Construction picks the smallest supported limb count and monomorphizes
/// every inner loop at that width; the handle itself is object-safe so
/// key structs stay non-generic. Results are always identical to
/// `BigUint::modpow`.
pub struct MontExp {
    ops: Box<dyn MontOps>,
    modulus: BigUint,
}

impl std::fmt::Debug for MontExp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MontExp").field("limbs", &self.ops.limbs()).finish()
    }
}

impl MontExp {
    /// Builds an exponentiator for `modulus`, or `None` when the modulus
    /// is even, `≤ 1`, or wider than 128 limbs (8192 bits).
    pub fn new(modulus: &BigUint) -> Option<MontExp> {
        if modulus.is_even() || modulus <= &BigUint::one() {
            return None;
        }
        let bits = modulus.bits();
        macro_rules! dispatch {
            ($($n:literal),*) => {
                $(
                    if bits <= 64 * $n {
                        let ops: Box<dyn MontOps> = Box::new(Montgomery::<$n>::new(modulus)?);
                        return Some(MontExp { ops, modulus: modulus.clone() });
                    }
                )*
            };
        }
        dispatch!(1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128);
        None
    }

    /// The limb width `N` this modulus dispatched to.
    pub fn limbs(&self) -> usize {
        self.ops.limbs()
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `base^exp mod m`, semantically identical to `BigUint::modpow`.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> (BigUint, MontCost) {
        self.modpow_recoded(base, &recode_window4(exp))
    }

    /// `base^exp mod m` with the exponent already recoded by
    /// [`recode_window4`] — the fast path for per-key fixed exponents.
    pub fn modpow_recoded(&self, base: &BigUint, nibbles: &[u8]) -> (BigUint, MontCost) {
        let mut cost = MontCost::default();
        let reduced;
        let base = if base >= &self.modulus {
            reduced = base % &self.modulus;
            &reduced
        } else {
            base
        };
        let v = self.ops.pow_recoded(base, nibbles, &mut cost);
        (v, cost)
    }

    /// `a·b mod m` through the Montgomery core (two REDC passes).
    pub fn modmul(&self, a: &BigUint, b: &BigUint) -> (BigUint, MontCost) {
        let mut cost = MontCost::default();
        let (ra, rb);
        let a = if a >= &self.modulus {
            ra = a % &self.modulus;
            &ra
        } else {
            a
        };
        let b = if b >= &self.modulus {
            rb = b % &self.modulus;
            &rb
        } else {
            b
        };
        let v = self.ops.mul(a, b, &mut cost);
        (v, cost)
    }

    /// `a` entered into Montgomery form: one multiplication by `R²`
    /// (after a reduction when `a ≥ m`).
    pub fn enter(&self, a: &BigUint, cost: &mut MontCost) -> Resident {
        Resident(if a >= &self.modulus {
            self.ops.enter(&(a % &self.modulus), cost)
        } else {
            self.ops.enter(a, cost)
        })
    }

    /// The plain residue `a` holds: one multiplication by 1. A resident
    /// of another width is [`CryptoError::SuiteMismatch`].
    pub fn leave(&self, a: &Resident, cost: &mut MontCost) -> Result<BigUint> {
        self.ops.leave(&a.0, cost).ok_or(CryptoError::SuiteMismatch)
    }

    /// The Horner step of packing, `acc ← acc^(2^k)·b mod m`: `k`
    /// squarings, then one multiplication on the stack (`k = 0` is the
    /// resident HAdd). A resident of another width is
    /// [`CryptoError::SuiteMismatch`], `acc` untouched.
    pub fn horner_step(
        &self,
        acc: &mut Resident,
        k: u32,
        b: &Resident,
        cost: &mut MontCost,
    ) -> Result<()> {
        let done = self.ops.horner_step(&mut acc.0, k, &b.0, cost);
        done.then_some(()).ok_or(CryptoError::SuiteMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_bigint::RandBigInt;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recode_matches_value() {
        assert!(recode_window4(&BigUint::from(0u32)).is_empty());
        assert_eq!(recode_window4(&BigUint::from(1u32)), vec![1]);
        assert_eq!(recode_window4(&BigUint::from(0xA0Fu32)), vec![0xA, 0x0, 0xF]);
    }

    #[test]
    fn modpow_matches_biguint_across_widths() {
        let mut rng = StdRng::seed_from_u64(71);
        for bits in [48u64, 64, 120, 250, 510, 1030] {
            let mut m = rng.gen_biguint(bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            let me = MontExp::new(&m).expect("odd modulus dispatches");
            for _ in 0..4 {
                let base = rng.gen_biguint(bits + 17);
                let exp = rng.gen_biguint(96);
                let (got, cost) = me.modpow(&base, &exp);
                assert_eq!(got, base.modpow(&exp, &m));
                assert!(cost.modmuls > 0);
                assert_eq!(cost.redc_limbs, cost.modmuls * me.limbs() as u64);
            }
        }
    }

    #[test]
    fn modmul_and_edge_exponents() {
        let m = BigUint::from(0xffff_ffff_ffff_ffc5u64); // odd
        let me = MontExp::new(&m).unwrap();
        let a = BigUint::from(u64::MAX - 7);
        let b = BigUint::from(u64::MAX - 99);
        assert_eq!(me.modmul(&a, &b).0, (&a * &b) % &m);
        assert_eq!(me.modpow(&a, &BigUint::from(0u32)).0, BigUint::one());
        assert_eq!(me.modpow(&a, &BigUint::one()).0, &a % &m);
        assert_eq!(me.modpow(&BigUint::from(0u32), &b).0, BigUint::from(0u32));
    }

    /// `mont_sqr(a)` against `mont_mul(a, a)` for random operands and the
    /// carry edges, under random moduli and moduli hugging a limb boundary.
    fn check_sqr<const N: usize>(rng: &mut StdRng) {
        let bits = 64 * N as u64;
        let big = |v: u32| BigUint::from(v);
        let top = BigUint::one() << bits;
        let mut moduli = vec![&top - big(1), &top - big(189)];
        if N > 1 {
            // 2^(64(N−1)) + small still occupies N limbs; at N = 1 it is 2.
            moduli.push((BigUint::one() << (bits - 64)) + big(1));
            moduli.push((BigUint::one() << (bits - 64)) + big(0x1_0001));
        }
        for _ in 0..2 {
            let mut m = rng.gen_biguint(bits);
            m.set_bit(0, true);
            m.set_bit(bits - 1, true);
            moduli.push(m);
        }
        for m in &moduli {
            let mont = Montgomery::<N>::new(m).expect("odd N-limb modulus");
            let mut ops = vec![big(0), big(1), m - big(1), m - big(2), (&top - big(1)) % m];
            ops.extend((0..4).map(|_| rng.gen_biguint(bits) % m));
            for a in &ops {
                let fa = Fixed::<N>::from_biguint(a).expect("below modulus");
                let (mut c_sqr, mut c_mul) = (MontCost::default(), MontCost::default());
                let got = mont.mont_sqr(&fa, &mut c_sqr);
                assert_eq!(got, mont.mont_mul(&fa, &fa, &mut c_mul), "{N} limbs: a = {a}, m = {m}");
                assert_eq!(c_sqr, c_mul, "a squaring is one modmul tick of N REDC limbs");
            }
        }
    }

    #[test]
    fn mont_sqr_matches_mont_mul_at_every_width() {
        let mut rng = StdRng::seed_from_u64(72);
        macro_rules! widths {
            ($($n:literal),*) => { $( check_sqr::<$n>(&mut rng); )* };
        }
        widths!(1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128);
    }

    #[test]
    fn even_trivial_or_oversized_moduli_have_no_context() {
        assert!(MontExp::new(&BigUint::from(10u32)).is_none());
        assert!(MontExp::new(&BigUint::one()).is_none());
        assert!(MontExp::new(&(BigUint::one() << 5000u32)).is_none());
        let widest = (BigUint::one() << 8192u32) - BigUint::one();
        assert_eq!(MontExp::new(&widest).map(|m| m.limbs()), Some(128));
        assert!(MontExp::new(&((BigUint::one() << 8192u32) + BigUint::one())).is_none());
    }
}
