//! Property tests for the fixed-limb Montgomery backend against the
//! `num-bigint` reference implementation.
//!
//! Every supported dispatch width gets three families of checks —
//! widening multiply, Montgomery REDC multiplication, and windowed
//! modular exponentiation — over random operands *and* the carry-edge
//! vectors that break naive limb arithmetic: operands at `2^(64k) ± 1`
//! (all-ones / lowest-limb-only patterns) and modulus-adjacent values
//! (`m−1`, `m−2`, values just above `m` that force the entry reduction).

use num_bigint::{BigUint, RandBigInt};
use num_traits::One;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vf2_crypto::montgomery::CryptoBackend;
use vf2_crypto::{EncodingConfig, Fixed, GhPlan, KeyPair, MontExp, OpCounters, PackingPlan, Suite};

/// Carry-edge operands below `2^bits`: `2^(64k) − 1` and `2^(64k) + 1`
/// for every limb boundary `k`, plus 0 and 1.
fn edge_operands(bits: u64) -> Vec<BigUint> {
    let mut ops = vec![BigUint::from(0u32), BigUint::one()];
    let mut k = 64u64;
    while k <= bits {
        let p = BigUint::one() << k;
        ops.push(&p - &BigUint::one());
        if k < bits {
            ops.push(&p + &BigUint::one());
        }
        k += 64;
    }
    ops
}

macro_rules! check_mul_wide {
    ($($n:literal),*) => {
        $(
        {
            let bits = 64 * $n as u64;
            let mut rng = StdRng::seed_from_u64(1000 + $n as u64);
            let mut ops = edge_operands(bits);
            for _ in 0..4 {
                ops.push(rng.gen_biguint(bits));
            }
            // Keep the pair count bounded at wide limb counts.
            let ops: Vec<BigUint> = ops.into_iter().take(12).collect();
            for a in &ops {
                for b in &ops {
                    let fa = Fixed::<$n>::from_biguint(a).expect("fits");
                    let fb = Fixed::<$n>::from_biguint(b).expect("fits");
                    let (lo, hi) = fa.mul_wide(&fb);
                    let got = lo.to_biguint() + (hi.to_biguint() << bits);
                    assert_eq!(got, a * b, "mul_wide at {} limbs: {a} * {b}", $n);
                }
            }
        }
        )*
    };
}

#[test]
fn mul_wide_matches_reference_at_every_width() {
    check_mul_wide!(1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64);
}

/// A random odd modulus with the top bit set, so it dispatches to the
/// intended width.
fn odd_modulus(rng: &mut StdRng, bits: u64) -> BigUint {
    let mut m = rng.gen_biguint(bits);
    m.set_bit(bits - 1, true);
    m.set_bit(0, true);
    m
}

/// Moduli chosen to land on each dispatch width, including just-past-a-
/// boundary bit counts that force the next width up.
fn dispatch_widths() -> Vec<(u64, usize)> {
    vec![
        (40, 1),
        (64, 1),
        (65, 2),
        (128, 2),
        (200, 4),
        (256, 4),
        (257, 6),
        (384, 6),
        (512, 8),
        (700, 12),
        (1024, 16),
        (1500, 24),
        (2048, 32),
        (3000, 48),
        (4096, 64),
    ]
}

#[test]
fn redc_multiplication_matches_reference_at_every_width() {
    let mut rng = StdRng::seed_from_u64(7001);
    for (bits, limbs) in dispatch_widths() {
        let m = odd_modulus(&mut rng, bits);
        let me = MontExp::new(&m).expect("odd modulus dispatches");
        assert_eq!(me.limbs(), limbs, "{bits}-bit modulus must use {limbs} limbs");
        let mut ops = edge_operands(bits);
        // Modulus-adjacent operands: m−1 and m−2 exercise the final
        // conditional subtraction; m+1 exercises the entry reduction.
        ops.push(&m - &BigUint::one());
        ops.push(&m - &BigUint::from(2u32));
        ops.push(&m + &BigUint::one());
        for _ in 0..3 {
            ops.push(rng.gen_biguint(bits));
        }
        let ops: Vec<BigUint> = ops.into_iter().take(10).collect();
        for a in &ops {
            for b in &ops {
                let (got, cost) = me.modmul(a, b);
                assert_eq!(got, (a * b) % &m, "modmul at {bits} bits: {a} * {b}");
                assert!(got < m, "result must be fully reduced");
                assert_eq!(cost.modmuls, 2, "plain modmul costs exactly two REDC passes");
            }
        }
    }
}

#[test]
fn modpow_matches_reference_at_every_width() {
    let mut rng = StdRng::seed_from_u64(7002);
    for (bits, _) in dispatch_widths() {
        let m = odd_modulus(&mut rng, bits);
        let me = MontExp::new(&m).expect("odd modulus dispatches");
        // Bounded exponents keep the naive reference affordable at 4096
        // bits; width coverage comes from the modulus, not the exponent.
        // 2 is one table multiply, 2^64 (pack's slot shift) is squarings
        // only: 64 passes through the squaring kernel and nothing else.
        let exps = [
            BigUint::from(0u32),
            BigUint::one(),
            BigUint::from(2u32),
            BigUint::one() << 64u32,
            BigUint::from(0xffu32),
            rng.gen_biguint(64),
            rng.gen_biguint(192),
        ];
        let bases = [
            BigUint::from(0u32),
            BigUint::one(),
            &m - &BigUint::one(),
            &m + &BigUint::from(3u32),
            rng.gen_biguint(bits + 13),
        ];
        for base in &bases {
            for exp in &exps {
                let (got, _) = me.modpow(base, exp);
                assert_eq!(
                    got,
                    base.modpow(exp, &m),
                    "modpow at {bits} bits: base {base} exp {exp}"
                );
            }
        }
    }
}

#[test]
fn full_width_paillier_exponents_match_reference() {
    // One full-width exponentiation per CRT domain of a real 512-bit key:
    // the exact shape of the production hot path.
    let kp = KeyPair::generate_seeded(512, 9).expect("keygen");
    let nn = kp.public.nn();
    let me = MontExp::new(nn).expect("n² is odd");
    let mut rng = StdRng::seed_from_u64(77);
    let r = rng.gen_biguint_range(&BigUint::one(), kp.public.n());
    let (got, cost) = me.modpow(&r, kp.public.n());
    assert_eq!(got, r.modpow(kp.public.n(), nn));
    // 4-bit windows: ~bits/4 table+window multiplies on top of the
    // squarings — far below one multiply per bit.
    let bits = kp.public.n().bits();
    assert!(cost.modmuls > bits, "must square once per exponent bit");
    assert!(cost.modmuls < 2 * bits, "windowing must beat square-and-multiply");
}

#[test]
fn paillier_pipeline_identical_across_backends() {
    let fixed = KeyPair::generate_seeded(512, 21).expect("keygen");
    let nb = fixed.with_backend(CryptoBackend::NumBigint);
    assert_eq!(nb.backend(), CryptoBackend::NumBigint);
    let ctr = OpCounters::default();
    for seed in 0..4u64 {
        let v = BigUint::from(seed * 1_000_003 + 17);
        let cf = fixed.private.encrypt_raw(&v, &mut StdRng::seed_from_u64(seed), &ctr);
        let cn = nb.private.encrypt_raw(&v, &mut StdRng::seed_from_u64(seed), &ctr);
        assert_eq!(cf, cn, "ciphers must be bit-identical across backends");
        assert_eq!(fixed.private.decrypt_raw(&cf, &ctr), v);
        assert_eq!(nb.private.decrypt_raw(&cf, &ctr), v);
        let k = BigUint::from(seed + 3);
        assert_eq!(fixed.public.mul_raw(&cf, &k, &ctr), nb.public.mul_raw(&cn, &k, &ctr));
    }

    // Suite level — the two operation chains a federated run drives
    // through whichever backend its key carries: the two-stream return
    // path (encrypt_batch → pack → unpack_decrypt) and the paired path
    // (encrypt_gh_batch → HAdd → top-up → pack → unpack_decrypt_gh).
    // Ciphers and plaintexts agree, and only the fixed side counts
    // Montgomery multiplies — the fingerprint that a fallback really ran.
    let enc = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let (sf, sn) = (Suite::paillier(fixed, enc), Suite::paillier(nb, enc));
    assert!(sf.backend_label().starts_with("fixed-"));
    assert_eq!(sn.backend_label(), "num-bigint");
    let pk = sf.public_key().expect("Paillier suite");

    let two_stream = |s: &Suite| {
        let slots = s.encrypt_batch(&[0.5, 1.25, 3.0], 9).expect("encrypt");
        let plan = PackingPlan::new(pk, 64, slots.len()).expect("three 64-bit slots");
        let packed = s.pack(&slots, &plan).expect("pack");
        let plain = s.unpack_decrypt(&packed).expect("unpack");
        (slots, packed, plain)
    };
    let (tf, tn) = (two_stream(&sf), two_stream(&sn));
    assert_eq!(tf, tn, "two-stream ciphers, packed cipher and plaintexts");
    assert_eq!(tf.2, vec![0.5, 1.25, 3.0]);

    let gh = GhPlan::new(1.0, 0.25, 8, &enc).expect("plan");
    let paired = |s: &Suite| {
        let rows =
            s.encrypt_gh_batch(&[0.5, -1.0, 0.25], &[0.25, 0.0, 0.125], &gh, 11).expect("encrypt");
        let sum = s.add(&s.add(&rows[0], &rows[1]).expect("HAdd"), &rows[2]).expect("HAdd");
        let bin = s.add_plain_raw(&sum, &gh.top_up(3).expect("top-up")).expect("top-up");
        let plan = PackingPlan::new(pk, gh.pair_bits(), 1).expect("one pair fits");
        let packed = s.pack(&[bin], &plan).expect("pack");
        let sums = s.unpack_decrypt_gh(&packed, &gh).expect("unpack");
        let sums = sums.iter().map(|(g, h)| (g.to_f64(&enc), h.to_f64(&enc))).collect::<Vec<_>>();
        (rows, packed, sums)
    };
    let (gf, gn) = (paired(&sf), paired(&sn));
    assert_eq!(gf, gn, "paired ciphers, packed cipher and sums");
    assert_eq!(gf.2, vec![(-0.25, 0.375)]);

    assert!(sf.counters().snapshot().modmul > 0, "the fixed backend counts its multiplies");
    assert_eq!(sn.counters().snapshot().modmul, 0, "the fallback performs no counted modmul");
}
