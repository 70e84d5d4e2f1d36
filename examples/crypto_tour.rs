//! A tour of the cryptographic substrate: Paillier keygen, encryption,
//! the homomorphic operations GBDT relies on, and the paper's two
//! customizations — re-ordered accumulation (§5.1) and polynomial-based
//! packing (§5.2) — with live operation counts.
//!
//! Run with: `cargo run --release --example crypto_tour`

use rand::rngs::StdRng;
use rand::SeedableRng;
use vf2boost::crypto::counters::OpSnapshot;
use vf2boost::crypto::encoding::EncodingConfig;
use vf2boost::crypto::packing::PackingPlan;
use vf2boost::crypto::suite::{Ciphertext, ResidentCiphertext, Suite};

fn main() {
    let encoding = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    println!("generating a 1024-bit Paillier key pair...");
    let suite = Suite::paillier_seeded(1024, 42, encoding).expect("keygen");
    let mut rng = StdRng::seed_from_u64(7);

    // --- Basic homomorphic arithmetic -------------------------------
    let a = suite.encrypt(0.75, &mut rng).unwrap();
    let b = suite.encrypt(-0.25, &mut rng).unwrap();
    let sum = suite.add(&a, &b).unwrap();
    println!("HAdd:  ⟦0.75⟧ ⊕ ⟦-0.25⟧  →  {}", suite.decrypt(&sum).unwrap());

    let shifted = suite.add_plain(&a, 100.0).unwrap();
    println!("plain shift: ⟦0.75⟧ + 100  →  {}", suite.decrypt(&shifted).unwrap());

    // --- Re-ordered accumulation ------------------------------------
    // Sum 200 ciphers whose exponents are jittered (4 distinct values).
    let values: Vec<f64> = (0..200).map(|i| (i as f64) * 0.001 - 0.1).collect();
    let cts: Vec<Ciphertext> =
        values.iter().map(|&v| suite.encrypt(v, &mut rng).unwrap()).collect();
    let expected: f64 = values.iter().sum();

    let naive_suite = suite.public_half();
    let mut acc = cts[0].clone();
    for c in &cts[1..] {
        acc = naive_suite.add(&acc, c).unwrap();
    }
    let naive_scalings = naive_suite.counters().snapshot().scalings;

    let re_suite = suite.public_half();
    // Group by exponent, sum within groups (each cipher entered into
    // Montgomery form once, each sum one limb product), merge across
    // groups.
    let mut groups: std::collections::BTreeMap<i32, ResidentCiphertext> = Default::default();
    let mut tally = OpSnapshot::default();
    for c in &cts {
        let c = re_suite.enter(c).unwrap();
        match groups.get_mut(&c.exponent()) {
            None => {
                groups.insert(c.exponent(), c);
            }
            Some(acc) => re_suite.add_resident(acc, &c, &mut tally).unwrap(),
        }
    }
    re_suite.counters().publish(&tally);
    let mut merged: Option<Ciphertext> = None;
    for (_, g) in groups {
        let g = re_suite.leave(&g).unwrap();
        merged = Some(match merged {
            None => g,
            Some(prev) => re_suite.add(&prev, &g).unwrap(),
        });
    }
    let re_scalings = re_suite.counters().snapshot().scalings;
    println!("\nre-ordered accumulation of 200 jittered ciphers (§5.1):");
    println!("  naive      : {naive_scalings} cipher scalings");
    println!("  re-ordered : {re_scalings} cipher scalings (E-1)");
    let naive_sum = suite.decrypt(&acc).unwrap();
    let re_sum = suite.decrypt(&merged.unwrap()).unwrap();
    assert!((naive_sum - expected).abs() < 1e-6);
    assert!((re_sum - expected).abs() < 1e-6);
    println!("  both sums  : {re_sum:.6} (expected {expected:.6})");

    // --- Polynomial-based packing ------------------------------------
    let pk = suite.public_key().unwrap();
    let plan = PackingPlan::widest(pk, 64).unwrap();
    println!("\npacking (§5.2): a 1024-bit key fits {} 64-bit slots per cipher", plan.slots);
    let slots: Vec<Ciphertext> =
        (0..plan.slots).map(|i| suite.encrypt_at(i as f64 + 0.5, 10, &mut rng).unwrap()).collect();
    let before = suite.counters().snapshot();
    let packed = suite.pack(&slots, &plan).unwrap();
    let unpacked = suite.unpack_decrypt(&packed).unwrap();
    let delta = suite.counters().snapshot().since(&before);
    println!(
        "  {} bins recovered with {} decryption(s): {:?}",
        unpacked.len(),
        delta.dec,
        unpacked.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    assert_eq!(delta.dec, 1);
    for (i, v) in unpacked.iter().enumerate() {
        assert!((v - (i as f64 + 0.5)).abs() < 1e-6);
    }
    println!("\nall checks passed");
}
