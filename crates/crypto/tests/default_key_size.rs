//! The default configuration's key size, executed: one S = 2048 round trip
//! through every Paillier operation the protocol applies to a histogram
//! bin — encrypt, HAdd, pack, unpack-decrypt.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vf2_crypto::{EncodingConfig, PackingPlan, Suite};

#[test]
fn paillier_2048_encrypt_hadd_pack_unpack_round_trip() {
    // Seed 8's prime search is short: the test stays under 2 s in debug.
    // Seed 8's prime search is short: the test stays under 2 s in debug.
    let suite = Suite::paillier_seeded(2048, 8, EncodingConfig::default()).expect("keygen");
    let pk = suite.public_key().expect("Paillier suite");
    assert_eq!(pk.bits(), 2048);
    assert_eq!(suite.backend_label(), "fixed-64x64");
    let exp = suite.encoding().base_exp;
    let mut rng = StdRng::seed_from_u64(11);
    let enc = |v: f64, rng: &mut StdRng| suite.encrypt_at(v, exp, rng).expect("encrypt");
    let (a, b, c) = (enc(1.5, &mut rng), enc(2.25, &mut rng), enc(7.0, &mut rng));
    let sum = suite.add(&a, &b).expect("HAdd");
    assert!((suite.decrypt(&sum).expect("decrypt") - 3.75).abs() < 1e-9);
    let plan = PackingPlan::new(pk, 64, 2).expect("two 64-bit slots fit 2048 bits");
    let packed = suite.pack(&[sum, c], &plan).expect("pack");
    let got = suite.unpack_decrypt(&packed).expect("unpack");
    assert_eq!(got.len(), 2);
    assert!((got[0] - 3.75).abs() < 1e-9 && (got[1] - 7.0).abs() < 1e-9, "{got:?}");
}
