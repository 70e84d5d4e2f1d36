//! **Figure 7** — throughput (#operations per second) of the cryptography
//! operations, values drawn from a normal distribution.
//!
//! Paper reference points at S = 2048 (GMP-backed): decryption is the
//! slowest, HAdd the cheapest, and taking exponents into account
//! ("re-ordered" HAdd without scaling) raises HAdd throughput by ~4×;
//! packing buys a near-`t×` improvement on decryption. The *ordering* and
//! *ratios* are the reproduction target; absolute numbers depend on the
//! bignum backend and `VF2_KEY_BITS`.

use std::time::Instant;

use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vf2_bench::{header, key_bits};
use vf2_crypto::counters::OpSnapshot;
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::packing::PackingPlan;
use vf2_crypto::suite::{Ciphertext, ResidentCiphertext, Suite};

fn gaussian(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn throughput(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    header(
        "Figure 7: cryptography operation throughputs (ops/s, one thread)",
        "shape target: Dec slowest; HAdd cheapest; re-ordered HAdd ~4x over scaled HAdd; packing ~t x on Dec",
    );
    let encoding = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let suite = Suite::paillier_seeded(key_bits(), 42, encoding).expect("keygen");
    let mut rng = StdRng::seed_from_u64(7);

    let n = 512usize;
    let values: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();

    // Encryption (CRT fast path, as Party B always has the private key).
    let enc_tp = {
        let vals = values.clone();
        let s = suite.clone();
        let mut rng = StdRng::seed_from_u64(8);
        throughput(n, move |i| {
            let _ = s.encrypt(vals[i], &mut rng).unwrap();
        })
    };

    // Material for the remaining ops: ciphers at mixed exponents and at a
    // fixed exponent.
    let mut rng2 = StdRng::seed_from_u64(9);
    let mixed: Vec<Ciphertext> =
        values.iter().map(|&v| suite.encrypt(v, &mut rng2).unwrap()).collect();
    let fixed: Vec<Ciphertext> =
        values.iter().map(|&v| suite.encrypt_at(v, 8, &mut rng2).unwrap()).collect();

    // Decryption.
    let dec_tp = throughput(n, |i| {
        let _ = suite.decrypt(&mixed[i]).unwrap();
    });

    // HAdd with exponent-alignment scalings (naive accumulation).
    let mut acc = mixed[0].clone();
    let hadd_scaled_tp = throughput(n - 1, |i| {
        acc = suite.add(&acc, &mixed[i + 1]).unwrap();
    });

    // HAdd on matching exponents (what re-ordered accumulation achieves),
    // on ciphers entered into Montgomery form once, as a host holds them.
    let resident: Vec<ResidentCiphertext> = fixed.iter().map(|c| suite.enter(c).unwrap()).collect();
    let mut acc2 = resident[0].clone();
    let mut tally = OpSnapshot::default();
    let hadd_fast_tp = throughput(n - 1, |i| {
        suite.add_resident(&mut acc2, &resident[i + 1], &mut tally).unwrap();
    });

    // SMul by a small scaling factor (B^3 — one cipher scaling).
    let factor = BigUint::from(16u64.pow(3));
    let pk = suite.public_key().unwrap();
    let smul_tp = throughput(n, |i| {
        let Ciphertext::Paillier(e) = &mixed[i] else { unreachable!() };
        let _ = pk.mul_raw(&e.cipher, &factor, suite.counters());
    });

    // Packing: the paper's trade (§5.2) — Party A pays `(t−1)` HAdd+SMul
    // per packed cipher so Party B's decryption count shrinks by `t`. The
    // two sides are timed separately because they run on different parties
    // (and overlap under the concurrent protocol).
    let plan = PackingPlan::widest(suite.public_key().unwrap(), 64).expect("plan");
    // Shift negatives non-negative outside the timing (one plaintext add
    // per *feature* in the protocol, amortized over all bins).
    let shifted: Vec<Ciphertext> =
        fixed.iter().map(|x| suite.add_plain(x, 1000.0).unwrap()).collect();
    let rounds = (n / plan.slots).max(1);
    let mut packed_ciphers = Vec::with_capacity(rounds);
    let t0 = Instant::now();
    for c in shifted.chunks(plan.slots).take(rounds) {
        packed_ciphers.push(suite.pack(c, &plan).unwrap());
    }
    let pack_bins = rounds * plan.slots;
    let pack_tp = pack_bins as f64 / t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut recovered = 0usize;
    for p in &packed_ciphers {
        recovered += suite.unpack_decrypt(p).unwrap().len();
    }
    let packed_dec_tp = recovered as f64 / t0.elapsed().as_secs_f64();

    println!("{:<34}{:>14}", "operation", "ops/s");
    println!("{:-<48}", "");
    println!("{:<34}{:>14.0}", "Enc (CRT)", enc_tp);
    println!("{:<34}{:>14.0}", "Dec", dec_tp);
    println!("{:<34}{:>14.0}", "HAdd (mixed exponents, scaled)", hadd_scaled_tp);
    println!("{:<34}{:>14.0}", "HAdd (same exponent, re-ordered)", hadd_fast_tp);
    println!("{:<34}{:>14.0}", "SMul (scaling by B^3)", smul_tp);
    println!(
        "{:<34}{:>14.0}   ({} slots/cipher, Party B side)",
        "Dec via packing (bins/s)", packed_dec_tp, plan.slots
    );
    println!(
        "{:<34}{:>14.0}   (Party A side, overlapped in the protocol)",
        "Pack overhead (bins/s)", pack_tp
    );
    println!();
    println!(
        "re-ordered HAdd speedup over scaled HAdd : {:.2}x (paper: 4.08x at S=2048; \
         grows with smaller keys)",
        hadd_fast_tp / hadd_scaled_tp
    );
    println!(
        "guest decryption speedup via packing     : {:.2}x (paper: ~32x at S=2048, M=64, t=32; \
         proportional to t = {})",
        packed_dec_tp / dec_tp,
        plan.slots
    );
}
