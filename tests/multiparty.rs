//! Multi-party training (the paper's §6.4 / Table 6): two or more host
//! parties contribute feature slices to the guest's task. More parties ⇒
//! more features ⇒ higher AUC, at a modest protocol cost.

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::train_federated;
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::split_even;
use vf2boost::gbdt::data::Dataset;
use vf2boost::gbdt::metrics::auc;
use vf2boost::gbdt::train::GbdtParams;

/// Slices the first `k × per_party` features (Table 6's fixed per-party
/// feature budget) and splits them evenly over `k` parties.
fn take_parties(
    data: &Dataset,
    k: usize,
    per_party: usize,
) -> vf2boost::datagen::vertical::VerticalScenario {
    let feats: Vec<usize> = (0..k * per_party).collect();
    split_even(&data.select_features(&feats, true), k)
}

#[test]
fn auc_improves_with_more_parties() {
    let data = generate_classification(&SyntheticConfig {
        rows: 1200,
        features: 48,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 60,
    });
    let (train, valid) = data.split_rows(900);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 4, max_layers: 5, ..Default::default() },
        crypto: CryptoConfig::Mock,
        ..TrainConfig::for_tests()
    };
    let mut last_auc = 0.0;
    for parties in [2usize, 3, 4] {
        let s = take_parties(&train, parties, 12);
        let v = take_parties(&valid, parties, 12);
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let host_refs: Vec<&Dataset> = v.hosts.iter().collect();
        let margins = out.model.predict_margin(&host_refs, &v.guest);
        let a = auc(v.guest.labels().unwrap(), &margins);
        assert!(
            a > last_auc - 0.02,
            "AUC should not degrade as parties join: {parties} parties gave {a} after {last_auc}"
        );
        last_auc = a;
        assert_eq!(out.report.hosts.len(), parties - 1);
        // Every host must actually contribute splits.
        for (h, telem) in out.report.hosts.iter().enumerate() {
            assert!(telem.events.splits_won > 0, "host {h} won no splits");
        }
    }
    assert!(last_auc > 0.68, "4-party AUC {last_auc}");
}

#[test]
fn four_party_paillier_smoke() {
    let data = generate_classification(&SyntheticConfig {
        rows: 120,
        features: 16,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 61,
    });
    let s = split_even(&data, 4);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 1, max_layers: 3, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 384 },
        ..TrainConfig::for_tests()
    };
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    assert_eq!(out.report.hosts.len(), 3);
    for t in &out.model.trees {
        t.validate().expect("valid tree");
    }
    // The guest encrypted each row's (g, h) pair once — one cipher per
    // instance and tree, broadcast to every host link.
    assert_eq!(out.report.guest.ops.enc, 120);
}
