//! Number-theoretic primitives: primality testing, prime generation,
//! modular inversion, and Chinese-Remainder recombination.
//!
//! These are the building blocks of the Paillier cryptosystem in
//! [`crate::paillier`]. Everything operates on [`num_bigint::BigUint`].

use num_bigint::{BigUint, RandBigInt};
use num_integer::Integer;
use num_traits::{One, Zero};
use rand::Rng;

use crate::montgomery::{recode_window4, MontExp};

/// Small primes used for fast trial division before Miller-Rabin.
const SMALL_PRIMES: [u32; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller-Rabin witnesses. 40 rounds puts the error probability
/// below 2⁻⁸⁰ for random candidates.
const MILLER_RABIN_ROUNDS: usize = 40;

/// Returns `true` if `n` is (probably) prime.
///
/// Uses trial division by 46 small odd primes (`SMALL_PRIMES`) followed by
/// 40 rounds (`MILLER_RABIN_ROUNDS`) of Miller-Rabin with random witnesses.
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    let two = BigUint::from(2u32);
    if n < &two {
        return false;
    }
    if n == &two {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p = BigUint::from(p);
        if n == &p {
            return true;
        }
        if (n % &p).is_zero() {
            return false;
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller-Rabin probabilistic primality test with `rounds` random witnesses.
///
/// One Montgomery context per candidate amortizes across every witness;
/// the recoded exponent `d` is shared too. Results and RNG consumption
/// are identical to the plain `BigUint::modpow` path, which remains the
/// fallback at widths [`MontExp`] does not support.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from(2u32);
    let n_minus_one = n - &one;

    // Write n-1 = d * 2^s with d odd.
    let s = n_minus_one.trailing_zeros().unwrap_or(0);
    let d = &n_minus_one >> s;

    let accel = MontExp::new(n);
    let d_nibbles = accel.as_ref().map(|_| recode_window4(&d));

    'witness: for _ in 0..rounds {
        // Witness in [2, n-2].
        let a = rng.gen_biguint_range(&two, &n_minus_one);
        let mut x = match (&accel, &d_nibbles) {
            (Some(m), Some(nib)) => m.modpow_recoded(&a, nib).0,
            _ => a.modpow(&d, n),
        };
        if x == one || x == n_minus_one {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = match &accel {
                Some(m) => m.modmul(&x, &x).0,
                None => x.modpow(&two, n),
            };
            if x == n_minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random (probable) prime with exactly `bits` bits.
///
/// The two most significant bits are forced to 1 so that the product of two
/// such primes has exactly `2*bits` bits, and the low bit is forced to 1.
pub fn gen_prime<R: Rng + ?Sized>(bits: u64, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size must be at least 8 bits");
    loop {
        let mut candidate = rng.gen_biguint(bits);
        // Force exact bit length (top two bits) and oddness.
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(bits - 2, true);
        candidate.set_bit(0, true);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Modular inverse of `a` modulo `m`, if it exists.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    // Extended Euclid on signed integers.
    use num_bigint::BigInt;
    use num_bigint::Sign;
    let a = BigInt::from_biguint(Sign::Plus, a.clone());
    let m_int = BigInt::from_biguint(Sign::Plus, m.clone());
    let e = a.extended_gcd(&m_int);
    if !e.gcd.is_one() {
        return None;
    }
    let mut x = e.x % &m_int;
    if x.sign() == Sign::Minus {
        x += &m_int;
    }
    x.to_biguint()
}

/// Chinese Remainder recombination for two coprime moduli.
///
/// Given `x ≡ a (mod p)` and `x ≡ b (mod q)` with precomputed
/// `p_inv_q = p⁻¹ mod q`, returns the unique `x mod (p·q)`.
pub fn crt_combine(
    a: &BigUint,
    b: &BigUint,
    p: &BigUint,
    p_inv_q: &BigUint,
    q: &BigUint,
) -> BigUint {
    // x = a + p * ((b - a) * p^{-1} mod q)
    let a_mod_q = a % q;
    let diff = if b >= &a_mod_q { b - &a_mod_q } else { q - ((&a_mod_q - b) % q) };
    let t = (diff * p_inv_q) % q;
    a + p * t
}

/// The Paillier `L` function: `L(x) = (x - 1) / p` for `x ≡ 1 (mod p)`.
pub fn l_function(x: &BigUint, p: &BigUint) -> BigUint {
    (x - BigUint::one()) / p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_primes_recognized() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u32, 3, 5, 7, 11, 101, 997, 7919] {
            assert!(is_probable_prime(&BigUint::from(p), &mut rng), "{p} is prime");
        }
        for c in [1u32, 4, 9, 15, 1001, 7917] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        // Classic Carmichael numbers fool Fermat but not Miller-Rabin.
        for c in [561u32, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_probable_prime(&BigUint::from(c), &mut rng), "{c} is Carmichael");
        }
    }

    #[test]
    fn generated_primes_have_exact_bit_length() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [16u64, 32, 64, 128] {
            let p = gen_prime(bits, &mut rng);
            assert_eq!(p.bits(), bits);
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = BigUint::from(1_000_003u64); // prime modulus
        for a in [2u64, 3, 17, 999_999] {
            let a = BigUint::from(a);
            let inv = mod_inverse(&a, &m).expect("invertible");
            assert_eq!((a * inv) % &m, BigUint::one());
        }
    }

    #[test]
    fn mod_inverse_of_non_coprime_is_none() {
        let m = BigUint::from(100u32);
        assert!(mod_inverse(&BigUint::from(10u32), &m).is_none());
    }

    #[test]
    fn crt_reconstructs_value() {
        let p = BigUint::from(10_007u64);
        let q = BigUint::from(10_009u64);
        let p_inv_q = mod_inverse(&p, &q).unwrap();
        let x = BigUint::from(12_345_678u64);
        let a = &x % &p;
        let b = &x % &q;
        assert_eq!(crt_combine(&a, &b, &p, &p_inv_q, &q), x);
    }

    #[test]
    fn l_function_divides_exactly() {
        let p = BigUint::from(101u32);
        let x = BigUint::from(1u32) + &p * BigUint::from(7u32);
        assert_eq!(l_function(&x, &p), BigUint::from(7u32));
    }
}
