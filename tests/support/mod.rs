//! Helpers shared by the integration tests. Each test binary compiles its
//! own copy and uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use std::path::PathBuf;

use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::TrainOutput;
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::{split_vertical, VerticalScenario};
use vf2boost::gbdt::data::Dataset;

/// Dense, noise-free synthetic classification data split vertically:
/// `host_features[i]` columns go to host `i`, the rest (and the labels) to
/// the guest.
pub fn scenario_of(
    rows: usize,
    features: usize,
    host_features: &[usize],
    seed: u64,
) -> VerticalScenario {
    let data = generate_classification(&SyntheticConfig {
        rows,
        features,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed,
    });
    split_vertical(&data, host_features)
}

/// The two-party job most robustness tests train: 200 rows, four features
/// at the host and four at the guest.
pub fn scenario(seed: u64) -> VerticalScenario {
    scenario_of(200, 8, &[4], seed)
}

/// Every protocol-mode combination a bitwise contract must hold for:
/// sequential/optimistic × raw/reordered/packed histograms. The last row
/// is exactly [`ProtocolConfig::vf2boost`].
pub fn modes() -> [(&'static str, ProtocolConfig); 6] {
    let seq = ProtocolConfig::baseline();
    let opt = ProtocolConfig {
        pack_histograms: false,
        reordered_accumulation: false,
        ..ProtocolConfig::vf2boost()
    };
    [
        ("seq-raw", seq),
        ("seq-reordered", ProtocolConfig { reordered_accumulation: true, ..seq }),
        ("seq-packed", ProtocolConfig { pack_histograms: true, ..seq }),
        ("opt-raw", opt),
        ("opt-reordered", ProtocolConfig { reordered_accumulation: true, ..opt }),
        (
            "opt-packed",
            ProtocolConfig { pack_histograms: true, reordered_accumulation: true, ..opt },
        ),
    ]
}

/// The four corners of [`modes`]: sequential/optimistic × raw/packed.
pub fn corner_modes() -> [(&'static str, ProtocolConfig); 4] {
    let all = modes();
    [all[0], all[2], all[3], all[5]]
}

/// The model's margins on the scenario it was trained on.
pub fn margins(out: &TrainOutput, s: &VerticalScenario) -> Vec<f64> {
    let hosts: Vec<&Dataset> = s.hosts.iter().collect();
    out.model.predict_margin(&hosts, &s.guest)
}

/// Two margin vectors must agree bit for bit.
pub fn assert_bitwise(context: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "[{context}] margin counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "[{context}] margin {i} diverged: {x} vs {y}");
    }
}

/// A fresh (removed if left over) per-process scratch directory path.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vf2_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
