//! Every combination of the four protocol optimizations must produce an
//! equivalent model — the optimizations change *when* and *how* work is
//! done (§4–§5), never *what* is computed.

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::train_federated;
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::split_vertical;
use vf2boost::gbdt::train::GbdtParams;

#[test]
fn all_sixteen_protocol_combinations_agree() {
    let data = generate_classification(&SyntheticConfig {
        rows: 300,
        features: 10,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 77,
    });
    let s = split_vertical(&data, &[5]);

    let mut reference: Option<Vec<f64>> = None;
    for mask in 0..16u8 {
        // Exhaustive on purpose (no `..`): the paper's contract is these
        // four toggles, and a fifth field must fail to compile here.
        let protocol = ProtocolConfig {
            optimistic: mask & 1 != 0,
            blaster_batch: if mask & 2 != 0 { Some(64) } else { None },
            reordered_accumulation: mask & 4 != 0,
            pack_histograms: mask & 8 != 0,
        };
        let cfg = TrainConfig {
            gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
            crypto: CryptoConfig::Mock,
            protocol,
            ..TrainConfig::for_tests()
        };
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let margins = out.model.predict_margin(&[&s.hosts[0]], &s.guest);
        // Re-ordered accumulation (bit 2) and packing (bit 3) change the
        // f64 summation order, so those combinations are compared with a
        // small tolerance; the purely scheduling-level flags (optimistic,
        // blaster) must be bit-exact.
        let tol = if mask & 0b1100 == 0 { 1e-12 } else { 1e-3 };
        match &reference {
            None => reference = Some(margins),
            Some(reference) => {
                let mean: f64 =
                    reference.iter().zip(&margins).map(|(a, b)| (a - b).abs()).sum::<f64>()
                        / margins.len() as f64;
                assert!(mean < tol, "combination {mask:04b} diverged: mean |Δ| = {mean}");
            }
        }
    }
}

/// The optimization flags must also agree under real cryptography (two
/// representative corners rather than all sixteen, for speed).
#[test]
fn paillier_baseline_and_vf2boost_agree() {
    let data = generate_classification(&SyntheticConfig {
        rows: 150,
        features: 8,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 78,
    });
    let s = split_vertical(&data, &[4]);
    let base = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 512 },
        ..TrainConfig::for_tests()
    };
    let baseline = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig { protocol: ProtocolConfig::baseline(), ..base },
    )
    .expect("training succeeds");
    let vf2 = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig { protocol: ProtocolConfig::vf2boost(), ..base },
    )
    .expect("training succeeds");
    let bm = baseline.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let vm = vf2.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let diff = bm.iter().zip(&vm).map(|(a, b)| (a - b).abs()).sum::<f64>() / bm.len() as f64;
    assert!(diff < 1e-3, "mean |Δmargin| = {diff}");
}
