//! Fixed-width limb arithmetic under the Montgomery core.
//!
//! A [`Fixed<N>`] is an unsigned integer stored as exactly `N` 64-bit
//! limbs, little-endian, on the stack. Because Paillier key sizes are
//! fixed at keygen, every hot-path operand (`mod n²` ciphers, `mod p²` /
//! `mod q²` CRT residues) fits a width known at `Suite` construction;
//! monomorphizing on `N` removes the heap traffic and per-limb bounds
//! checks the vendored `num-bigint` pays on every operation.
//!
//! This module provides only the carry-propagating primitives (add, sub,
//! compare, widening multiply) plus conversions to and from [`BigUint`]
//! at the domain boundary. Modular arithmetic lives in
//! [`crate::montgomery`].

use num_bigint::BigUint;

/// Multiply-accumulate: `acc + a·b + carry` as a `(low, high)` limb pair.
///
/// The result cannot overflow: `(2⁶⁴−1)² + 2·(2⁶⁴−1) = 2¹²⁸ − 1`.
#[inline(always)]
pub(crate) fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// An `N·64`-bit unsigned integer: `N` little-endian 64-bit limbs on the
/// stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fixed<const N: usize>(pub [u64; N]);

impl<const N: usize> Fixed<N> {
    /// The all-zero value.
    pub const ZERO: Fixed<N> = Fixed([0u64; N]);

    /// The value 1.
    pub fn one() -> Fixed<N> {
        let mut limbs = [0u64; N];
        limbs[0] = 1;
        Fixed(limbs)
    }

    /// Converts from a [`BigUint`], or `None` if the value needs more
    /// than `64·N` bits.
    pub fn from_biguint(v: &BigUint) -> Option<Fixed<N>> {
        if v.bits() > 64 * N as u64 {
            return None;
        }
        let bytes = v.to_bytes_le();
        let mut limbs = [0u64; N];
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            limbs[i] = u64::from_le_bytes(b);
        }
        Some(Fixed(limbs))
    }

    /// Converts back to a [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        let mut bytes = Vec::with_capacity(N * 8);
        for limb in &self.0 {
            bytes.extend_from_slice(&limb.to_le_bytes());
        }
        BigUint::from_bytes_le(&bytes)
    }

    /// True when every limb is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Magnitude comparison (most-significant limb first).
    pub fn cmp_mag(&self, other: &Fixed<N>) -> std::cmp::Ordering {
        for i in (0..N).rev() {
            match self.0[i].cmp(&other.0[i]) {
                std::cmp::Ordering::Equal => continue,
                o => return o,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Wrapping addition with carry-out (`0` or `1`).
    pub fn adc(&self, other: &Fixed<N>) -> (Fixed<N>, u64) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let t = self.0[i] as u128 + other.0[i] as u128 + carry as u128;
            *slot = t as u64;
            carry = (t >> 64) as u64;
        }
        (Fixed(out), carry)
    }

    /// Wrapping subtraction with borrow-out (`0` or `1`).
    pub fn sbb(&self, other: &Fixed<N>) -> (Fixed<N>, u64) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let t =
                (self.0[i] as u128).wrapping_sub(other.0[i] as u128).wrapping_sub(borrow as u128);
            *slot = t as u64;
            borrow = ((t >> 64) as u64) & 1;
        }
        (Fixed(out), borrow)
    }

    /// Schoolbook widening multiply: the exact `2N`-limb product as a
    /// `(low, high)` pair of `N`-limb halves.
    pub fn mul_wide(&self, other: &Fixed<N>) -> (Fixed<N>, Fixed<N>) {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        for i in 0..N {
            let mut carry = 0u64;
            for j in 0..N {
                let idx = i + j;
                let cur = if idx < N { lo[idx] } else { hi[idx - N] };
                let (v, c) = mac(cur, self.0[i], other.0[j], carry);
                if idx < N {
                    lo[idx] = v;
                } else {
                    hi[idx - N] = v;
                }
                carry = c;
            }
            // Propagate the row carry; an N×N-limb product fits exactly
            // in 2N limbs, so the carry always dies before index 2N.
            let mut idx = i + N;
            while carry != 0 && idx < 2 * N {
                let cur = if idx < N { lo[idx] } else { hi[idx - N] };
                let t = cur as u128 + carry as u128;
                if idx < N {
                    lo[idx] = t as u64;
                } else {
                    hi[idx - N] = t as u64;
                }
                carry = (t >> 64) as u64;
                idx += 1;
            }
        }
        (Fixed(lo), Fixed(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_traits::One;

    #[test]
    fn round_trip_and_width_guard() {
        let v = BigUint::from(0xdead_beef_u64) << 100u32;
        let f = Fixed::<4>::from_biguint(&v).unwrap();
        assert_eq!(f.to_biguint(), v);
        let too_big = BigUint::one() << 256u32;
        assert!(Fixed::<4>::from_biguint(&too_big).is_none());
    }

    #[test]
    fn add_sub_carry_chain() {
        let a = Fixed::<3>([u64::MAX, u64::MAX, 0]);
        let b = Fixed::<3>::one();
        let (sum, carry) = a.adc(&b);
        assert_eq!(carry, 0);
        assert_eq!(sum, Fixed([0, 0, 1]));
        let (back, borrow) = sum.sbb(&b);
        assert_eq!(borrow, 0);
        assert_eq!(back, a);
        let (_, borrow) = Fixed::<3>::ZERO.sbb(&b);
        assert_eq!(borrow, 1);
    }

    #[test]
    fn mul_wide_matches_biguint() {
        let a = Fixed::<2>([u64::MAX, u64::MAX]);
        let (lo, hi) = a.mul_wide(&a);
        let want = (&a.to_biguint()) * (&a.to_biguint());
        let got = lo.to_biguint() + (hi.to_biguint() << 128u32);
        assert_eq!(got, want);
    }
}
