//! The central correctness claim of the paper (§2.3): the vertical
//! federated GBDT algorithm is *lossless* — it produces the same model as
//! non-federated training on the co-located dataset, under every protocol
//! variant and under real cryptography.

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::train_federated;
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::split_vertical;
use vf2boost::gbdt::train::{GbdtParams, Trainer};

fn mean_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

fn dataset(rows: usize, seed: u64) -> vf2boost::gbdt::data::Dataset {
    generate_classification(&SyntheticConfig {
        rows,
        features: 10,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed,
    })
}

/// Mock crypto, sequential protocol: must match centralized training.
#[test]
fn sequential_mock_is_lossless() {
    let data = dataset(500, 1);
    let s = split_vertical(&data, &[5]);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 3, max_layers: 5, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig::baseline(),
        ..TrainConfig::for_tests()
    };
    let fed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let central =
        Trainer::new(GbdtParams { num_trees: 3, max_layers: 5, ..Default::default() }).fit(&data);
    let diff = mean_abs_diff(
        &fed.model.predict_margin(&[&s.hosts[0]], &s.guest),
        &central.predict_margin(&data),
    );
    assert!(diff < 1e-9, "mean |Δmargin| = {diff}");
}

/// Mock crypto, full optimistic protocol with rollback: still lossless —
/// dirty nodes must be repaired exactly.
#[test]
fn optimistic_mock_is_lossless() {
    let data = dataset(500, 2);
    let s = split_vertical(&data, &[5]);
    // Re-ordered accumulation changes f64 summation order, so it is kept
    // off here to make the check exact; the full stack is covered below.
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 3, max_layers: 5, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig {
            pack_histograms: false,
            reordered_accumulation: false,
            ..ProtocolConfig::vf2boost()
        },
        ..TrainConfig::for_tests()
    };
    let fed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    assert!(fed.report.guest.events.dirty_nodes > 0, "the test must exercise rollback");
    // Optimistic must be *exactly* equivalent to the sequential protocol:
    // rollback changes scheduling, never decisions.
    let seq = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig { protocol: ProtocolConfig::baseline(), ..cfg },
    )
    .expect("training succeeds");
    let diff = mean_abs_diff(
        &fed.model.predict_margin(&[&s.hosts[0]], &s.guest),
        &seq.model.predict_margin(&[&s.hosts[0]], &s.guest),
    );
    assert!(diff < 1e-12, "optimistic vs sequential mean |Δmargin| = {diff}");
    // Against centralized training, only tie-breaking between equal-gain
    // splits can differ (the parties enumerate features in a different
    // order than the co-located trainer).
    let central =
        Trainer::new(GbdtParams { num_trees: 3, max_layers: 5, ..Default::default() }).fit(&data);
    let cdiff = mean_abs_diff(
        &fed.model.predict_margin(&[&s.hosts[0]], &s.guest),
        &central.predict_margin(&data),
    );
    assert!(cdiff < 1e-4, "vs centralized mean |Δmargin| = {cdiff}");
}

/// The complete mock VF²Boost stack (optimistic + blaster + re-ordered +
/// packing) tracks centralized training up to f64 summation-order noise.
#[test]
fn full_mock_vf2boost_is_lossless_within_summation_noise() {
    let data = dataset(500, 2);
    let s = split_vertical(&data, &[5]);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 3, max_layers: 5, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig::vf2boost(),
        ..TrainConfig::for_tests()
    };
    let fed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let central =
        Trainer::new(GbdtParams { num_trees: 3, max_layers: 5, ..Default::default() }).fit(&data);
    let diff = mean_abs_diff(
        &fed.model.predict_margin(&[&s.hosts[0]], &s.guest),
        &central.predict_margin(&data),
    );
    assert!(diff < 1e-4, "mean |Δmargin| = {diff}");
}

/// Real Paillier with the full VF²Boost protocol (packing included): the
/// fixed-point encoding introduces ~B^-e noise but decisions must match on
/// separable data.
#[test]
fn full_vf2boost_paillier_is_lossless_within_encoding_noise() {
    let data = dataset(200, 3);
    let s = split_vertical(&data, &[5]);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 512 },
        protocol: ProtocolConfig::vf2boost(),
        ..TrainConfig::for_tests()
    };
    let fed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let central =
        Trainer::new(GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() }).fit(&data);
    let diff = mean_abs_diff(
        &fed.model.predict_margin(&[&s.hosts[0]], &s.guest),
        &central.predict_margin(&data),
    );
    assert!(diff < 1e-3, "mean |Δmargin| = {diff}");
}

/// The paired forward path against the two-stream one inside one build: a
/// Paillier run with `pack_histograms` ships one cipher per instance and
/// GH-packed histograms, the same run without it two ciphers per instance
/// and raw histograms. Sequential and optimistic, the final margins must be
/// *bitwise identical* — split decisions drive the tree shape and leaf
/// weights come from guest-side plaintext sums, so a decode discrepancy
/// that flipped a split would blow the margins apart — and the paired side
/// encrypts exactly once per instance and tree.
#[test]
fn paired_path_preserves_the_two_stream_split_decisions() {
    let (rows, trees) = (160, 2);
    let data = dataset(rows, 5);
    let s = split_vertical(&data, &[5]);
    for optimistic in [false, true] {
        let what = format!("opt={optimistic}");
        let paired = TrainConfig {
            gbdt: GbdtParams { num_trees: trees, max_layers: 4, ..Default::default() },
            crypto: CryptoConfig::Paillier { key_bits: 256 },
            protocol: ProtocolConfig {
                optimistic,
                blaster_batch: if optimistic { Some(64) } else { None },
                ..ProtocolConfig::vf2boost()
            },
            ..TrainConfig::for_tests()
        };
        let two_stream = TrainConfig {
            protocol: ProtocolConfig { pack_histograms: false, ..paired.protocol },
            ..paired
        };
        let on = train_federated(&s.hosts, &s.guest, &paired).expect("paired training");
        let off = train_federated(&s.hosts, &s.guest, &two_stream).expect("two-stream training");
        assert_eq!(on.report.guest.ops.enc, (rows * trees) as u64, "paired enc ({what})");
        assert_eq!(off.report.guest.ops.enc, (2 * rows * trees) as u64, "two-stream enc ({what})");
        assert_eq!(on.report.hosts[0].ops.scalings, 0, "pairs share one exponent ({what})");
        let m_on = on.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let m_off = off.model.predict_margin(&[&s.hosts[0]], &s.guest);
        assert_eq!(m_on.len(), m_off.len());
        for (i, (a, b)) in m_on.iter().zip(&m_off).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "margin {i}: paired={a} two-stream={b} ({what})");
        }
    }
}

/// Losslessness holds on sparse data too (zero-bin reconstruction on both
/// the guest's plaintext path and the host's encrypted path).
#[test]
fn sparse_paillier_is_lossless_within_encoding_noise() {
    let data = generate_classification(&SyntheticConfig {
        rows: 250,
        features: 16,
        density: 0.25,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 4,
    });
    let s = split_vertical(&data, &[8]);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 512 },
        ..TrainConfig::for_tests()
    };
    let fed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let central =
        Trainer::new(GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() }).fit(&data);
    let diff = mean_abs_diff(
        &fed.model.predict_margin(&[&s.hosts[0]], &s.guest),
        &central.predict_margin(&data),
    );
    assert!(diff < 1e-3, "mean |Δmargin| = {diff}");
}
