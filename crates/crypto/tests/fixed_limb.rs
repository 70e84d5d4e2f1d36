//! Property tests for the fixed-limb Montgomery core against plain
//! `BigUint` formulas.
//!
//! Every supported dispatch width gets four families of checks —
//! widening multiply, Montgomery REDC multiplication, windowed modular
//! exponentiation, and the resident operations (enter, multiply, Horner
//! step, leave) with the pack built on them — over random operands *and*
//! the carry-edge vectors that break naive limb arithmetic: operands and
//! moduli at `2^(64k) ± 1` (all-ones / lowest-limb-only patterns) and
//! modulus-adjacent values (`m−1`, `m−2`, values just above `m` that force
//! the entry reduction).

use num_bigint::{BigUint, RandBigInt};
use num_traits::One;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vf2_crypto::{
    pack_ciphers, Ciphertext, CryptoError, EncodingConfig, Fixed, GhPlan, KeyPair, MontCost,
    MontExp, OpCounters, PackedCiphertext, PackingPlan, PublicKey, ResidentCiphertext, Suite,
};

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
    check_mul_wide!(1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128);
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
        (4097, 96),
        (6144, 96),
        (6145, 128),
        (8192, 128),
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
        // Past 4096 bits the five fixed exponents alone keep the
        // reference's time down.
        let exps = if bits > 4096 { &exps[..5] } else { &exps[..] };
        let bases = [
            BigUint::from(0u32),
            BigUint::one(),
            &m - &BigUint::one(),
            &m + &BigUint::from(3u32),
            rng.gen_biguint(bits + 13),
        ];
        for base in &bases {
            for exp in exps {
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
fn paillier_pipeline_round_trips_on_the_fixed_core() {
    let kp = KeyPair::generate_seeded(512, 21).expect("keygen");
    let ctr = OpCounters::default();
    for seed in 0..4u64 {
        let v = BigUint::from(seed * 1_000_003 + 17);
        let c = kp.private.encrypt_raw(&v, &mut StdRng::seed_from_u64(seed), &ctr);
        assert_eq!(kp.private.decrypt_raw(&c, &ctr), v);
        let k = BigUint::from(seed + 3);
        let scaled = kp.public.mul_raw(&c, &k, &ctr);
        assert_eq!(scaled, c.modpow(&k, kp.public.nn()));
        assert_eq!(kp.private.decrypt_raw(&scaled, &ctr), &v * &k);
    }

    // Suite level — the two operation chains a federated run drives: the
    // two-stream return path (encrypt_batch → pack → unpack_decrypt) and
    // the paired path (encrypt_gh_batch → HAdd → top-up → pack →
    // unpack_decrypt_gh). Both recover their plaintexts, and the suite
    // counts the Montgomery multiplies its key ran.
    let enc = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let s = Suite::paillier(kp, enc);
    assert_eq!(s.backend_label(), "fixed-16x64");
    let pk = s.public_key().expect("Paillier suite");

    let slots = s.encrypt_batch(&[0.5, 1.25, 3.0], 9).expect("encrypt");
    let plan = PackingPlan::new(pk, 64, slots.len()).expect("three 64-bit slots");
    let packed = s.pack(&slots, &plan).expect("pack");
    assert_eq!(s.unpack_decrypt(&packed).expect("unpack"), vec![0.5, 1.25, 3.0]);

    let gh = GhPlan::new(1.0, 0.25, 8, &enc).expect("plan");
    let rows =
        s.encrypt_gh_batch(&[0.5, -1.0, 0.25], &[0.25, 0.0, 0.125], &gh, 11).expect("encrypt");
    let sum = s.add(&s.add(&rows[0], &rows[1]).expect("HAdd"), &rows[2]).expect("HAdd");
    let bin = s.add_plain_raw(&sum, &gh.top_up(3).expect("top-up")).expect("top-up");
    let plan = PackingPlan::new(pk, gh.pair_bits(), 1).expect("one pair fits");
    let packed = s.pack(&[bin], &plan).expect("pack");
    let sums = s.unpack_decrypt_gh(&packed, &gh).expect("unpack");
    let sums = sums.iter().map(|(g, h)| (g.to_f64(&enc), h.to_f64(&enc))).collect::<Vec<_>>();
    assert_eq!(sums, vec![(-0.25, 0.375)]);

    assert!(s.counters().snapshot().modmul > 0, "the suite counts its key's multiplies");
}

#[test]
fn a_key_past_4096_bits_is_refused_before_any_prime_is_drawn() {
    let start = std::time::Instant::now();
    let err = KeyPair::generate_seeded(4097, 1).expect_err("no core serves a 4097-bit key");
    assert!(matches!(err, CryptoError::KeyGeneration(_)), "{err:?}");
    // A prime search at this width takes seconds; a refusal takes none.
    assert!(start.elapsed() < std::time::Duration::from_millis(200), "{:?}", start.elapsed());
}

/// Moduli that land on `limbs` limbs, carry edges first: `2^(64N) − 1`
/// (every limb all ones), `2^(64(N−1)) + 1` (the top limb just set, the
/// rest nearly zero), then a random odd one of `bits` bits.
fn edge_moduli(rng: &mut StdRng, bits: u64, limbs: usize) -> Vec<BigUint> {
    let top = 64 * limbs as u64;
    let mut moduli = vec![(BigUint::one() << top) - BigUint::one()];
    if limbs > 1 {
        moduli.push((BigUint::one() << (top - 64)) + BigUint::one());
    }
    moduli.push(odd_modulus(rng, bits));
    moduli
}

#[test]
fn resident_operations_match_reference_at_every_width() {
    let mut rng = StdRng::seed_from_u64(7003);
    for (bits, limbs) in dispatch_widths() {
        // k = 0 is multiply-assign; 125 is a return-path pair width, 64
        // the two-stream slot. Past 64 limbs, two keep the reference's
        // time down (the squaring kernel has its own test at each width).
        let ks: &[u32] = if limbs > 64 { &[0, 3] } else { &[0, 1, 3, 64, 125] };
        for m in edge_moduli(&mut rng, bits, limbs) {
            let me = MontExp::new(&m).expect("odd modulus dispatches");
            assert_eq!(me.limbs(), limbs, "{m} must use {limbs} limbs");
            let mut ops = edge_operands(m.bits());
            ops.truncate(4);
            // m − 1 and m − 2 pin the final conditional subtraction; m + 1
            // enters through the reduction.
            ops.extend([&m - BigUint::one(), &m - BigUint::from(2u32), &m + BigUint::one()]);
            ops.push(rng.gen_biguint(m.bits()));
            for a in &ops {
                let mut cost = MontCost::default();
                let ra = me.enter(a, &mut cost);
                assert_eq!(me.leave(&ra, &mut cost).unwrap(), a % &m, "enter/leave {a} mod {m}");
                assert_eq!((cost.modmuls, cost.redc_limbs), (2, 2 * limbs as u64));
                for b in ops.iter().step_by(3) {
                    let rb = me.enter(b, &mut MontCost::default());
                    for &k in ks {
                        let (mut acc, mut cost) = (ra.clone(), MontCost::default());
                        me.horner_step(&mut acc, k, &rb, &mut cost).unwrap();
                        let want = (a.modpow(&(BigUint::one() << k), &m) * b) % &m;
                        let got = me.leave(&acc, &mut MontCost::default()).unwrap();
                        assert_eq!(got, want, "{limbs} limbs: {a}^(2^{k})·{b} mod {m}");
                        assert_eq!(cost.modmuls, u64::from(k) + 1, "k squarings, one multiply");
                    }
                }
            }
        }
    }
    // A resident of another width is refused, and the accumulator kept.
    let (narrow, wide) = (odd_modulus(&mut rng, 200), odd_modulus(&mut rng, 1024));
    let (mn, mw) = (MontExp::new(&narrow).unwrap(), MontExp::new(&wide).unwrap());
    let mut cost = MontCost::default();
    let (rn, rw) =
        (mn.enter(&BigUint::from(5u32), &mut cost), mw.enter(&BigUint::one(), &mut cost));
    let mut acc = rn.clone();
    for k in [0, 3] {
        assert_eq!(mn.horner_step(&mut acc, k, &rw, &mut cost), Err(CryptoError::SuiteMismatch));
    }
    assert_eq!(acc, rn);
    assert_eq!(mw.leave(&rn, &mut cost), Err(CryptoError::SuiteMismatch));
}

/// The packing reference on plain `BigUint`s: each bin (the obfuscated
/// zero when empty) topped up by `g^k = 1 + k·n`, then Horner from the top
/// slot down, `acc ← acc^(2^M)·cⱼ mod n²`.
fn horner_reference(pk: &PublicKey, slots: &[BigUint], slot_bits: u32) -> BigUint {
    let nn = pk.nn();
    let (top, lower) = slots.split_last().expect("at least one slot");
    lower
        .iter()
        .rev()
        .fold(top.clone(), |acc, c| (acc.modpow(&(BigUint::one() << slot_bits), nn) * c) % nn)
}

#[test]
fn resident_pack_matches_the_biguint_horner_reference() {
    let keys = KeyPair::generate_seeded(512, 23).expect("keygen");
    let enc = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let gh = GhPlan::new(1.0, 0.25, 40, &enc).expect("plan");
    let guest = Suite::paillier(keys, enc);
    let host = guest.public_half();
    let pk = host.public_key().expect("Paillier suite").clone();
    let t = gh.bins_per_cipher(&pk);
    assert!(t >= 3, "{t} bins per cipher");
    let g: Vec<f64> = (0..t).map(|i| i as f64 / t as f64 - 0.5).collect();
    let h: Vec<f64> = (0..t).map(|i| 0.25 * i as f64 / t as f64).collect();
    let cts = guest.encrypt_gh_batch(&g, &h, &gh, 3).expect("encrypt");
    let resident: Vec<ResidentCiphertext> =
        cts.iter().map(|c| host.enter(c).expect("enter")).collect();
    let raw = |c: &Ciphertext| match c {
        Ciphertext::Paillier(e) => e.cipher.clone(),
        Ciphertext::Plain(_) => unreachable!("a Paillier suite"),
    };
    let zero = raw(&host.zero_obfuscated(gh.exponent()));
    // A full chunk, a partial one, one with empty bins, a lone empty
    // bin; row counts from none up to every row.
    let layouts: [Vec<Option<usize>>; 4] = [
        (0..t).map(Some).collect(),
        vec![Some(1), Some(0)],
        (0..t).map(|i| (i % 2 == 1).then_some(i)).collect(),
        vec![None],
    ];
    for layout in layouts {
        let bins: Vec<(Option<&ResidentCiphertext>, u64)> = layout
            .iter()
            .enumerate()
            .map(|(j, i)| (i.map(|i| &resident[i]), (j as u64 * 13) % 41))
            .collect();
        let topped: Vec<BigUint> = layout
            .iter()
            .zip(&bins)
            .map(|(i, &(_, rows))| {
                let c = i.map_or_else(|| zero.clone(), |i| raw(&cts[i]));
                let k = gh.top_up(rows).expect("top-up");
                (c * (BigUint::one() + k * pk.n())) % pk.nn()
            })
            .collect();
        let before = host.counters().snapshot();
        let packed = host.pack_gh(&bins, &gh).expect("pack");
        let spent = host.counters().snapshot().since(&before);
        let PackedCiphertext::Paillier { cipher, exponent, count, slot_bits } = packed else {
            panic!("a Paillier suite packs Paillier ciphers");
        };
        let what = format!("layout {layout:?}");
        assert_eq!(cipher, horner_reference(&pk, &topped, gh.pair_bits()), "{what}");
        assert_eq!((exponent, count, slot_bits), (gh.exponent(), bins.len(), gh.pair_bits()));
        let len = bins.len() as u64;
        assert_eq!((spent.hadd, spent.smul, spent.packs), (len, len - 1, 1), "{what}");
    }
    // The two-stream kernel on raw ciphers, full and partial.
    for n in [t, 2] {
        let slots: Vec<BigUint> = cts[..n].iter().map(raw).collect();
        let plan = PackingPlan::new(&pk, gh.pair_bits(), n).expect("fits");
        let got = pack_ciphers(&slots, &plan, &pk, &OpCounters::default()).expect("pack");
        assert_eq!(got, horner_reference(&pk, &slots, gh.pair_bits()), "{n} slots");
    }
}
