//! Criterion micro-benchmarks of the cryptographic primitives — the
//! statistically rigorous companion to `fig7_crypto_throughput`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use num_bigint::BigUint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vf2_bench::key_bits;
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::montgomery::CryptoBackend;
use vf2_crypto::packing::PackingPlan;
use vf2_crypto::suite::{Ciphertext, Suite};
use vf2_crypto::KeyPair;

fn bench_crypto(c: &mut Criterion) {
    for backend in [CryptoBackend::Fixed, CryptoBackend::NumBigint] {
        bench_paillier(c, backend);
    }
    bench_packing(c);
}

/// One group per bignum backend: "paillier-fixed" runs the fixed-limb
/// Montgomery core, "paillier-numbigint" the vendored fallback. Same key,
/// same operands — only the arithmetic engine differs.
fn bench_paillier(c: &mut Criterion, backend: CryptoBackend) {
    let encoding = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let keys = KeyPair::generate_seeded(key_bits(), 42).expect("keygen");
    let suite = Suite::paillier(keys.with_backend(backend), encoding);
    let mut rng = StdRng::seed_from_u64(7);
    let a = suite.encrypt_at(0.5, 8, &mut rng).unwrap();
    let b = suite.encrypt_at(-0.25, 8, &mut rng).unwrap();
    let mixed = suite.encrypt_at(0.125, 10, &mut rng).unwrap();

    let group_name = match backend {
        CryptoBackend::Fixed => "paillier-fixed",
        CryptoBackend::NumBigint => "paillier-numbigint",
    };
    let mut g = c.benchmark_group(group_name);
    g.sample_size(20);

    g.bench_function("encrypt", |bench| {
        let mut rng = StdRng::seed_from_u64(1);
        bench.iter(|| suite.encrypt(0.75, &mut rng).unwrap())
    });
    g.bench_function("decrypt", |bench| bench.iter(|| suite.decrypt(&a).unwrap()));
    g.bench_function("hadd_same_exp", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut acc| {
                suite.add_assign_same_exp(&mut acc, &b).unwrap();
                acc
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hadd_scaled", |bench| bench.iter(|| suite.add(&a, &mixed).unwrap()));
    g.bench_function("smul_b3", |bench| {
        let factor = BigUint::from(4096u32);
        let Ciphertext::Paillier(e) = &a else { unreachable!() };
        bench.iter(|| e.smul_uint(&factor, suite.public_key().unwrap(), suite.counters()))
    });
    g.bench_function("add_plain_shift", |bench| {
        bench.iter(|| suite.add_plain(&a, 1000.0).unwrap())
    });
    g.finish();
}

fn bench_packing(c: &mut Criterion) {
    let encoding = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
    let suite = Suite::paillier_seeded(key_bits(), 42, encoding).expect("keygen");
    let mut rng = StdRng::seed_from_u64(7);

    let mut g = c.benchmark_group("packing");
    g.sample_size(20);
    let plan = PackingPlan::widest(suite.public_key().unwrap(), 64).unwrap();
    let slots: Vec<Ciphertext> =
        (0..plan.slots).map(|i| suite.encrypt_at(i as f64, 8, &mut rng).unwrap()).collect();
    let packed = suite.pack(&slots, &plan).unwrap();
    g.bench_function("pack_full_cipher", |bench| bench.iter(|| suite.pack(&slots, &plan).unwrap()));
    g.bench_function("unpack_decrypt_full_cipher", |bench| {
        bench.iter(|| suite.unpack_decrypt(&packed).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
