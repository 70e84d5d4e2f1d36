//! Runs one small end-to-end federated training and writes the
//! machine-readable run report (`vf2boost-run-report/v1`, see
//! `vf2boost_core::telemetry`) — phase durations, op counts, link fault
//! counters, cache hit rates — to the given path: the
//! artifact ci.sh schema-checks with `jq`.
//!
//! `cargo run --release -p vf2-bench --bin run_report -- <path>`

use vf2_bench::base_config;
use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2_datagen::vertical::split_vertical;
use vf2_gbdt::binning::BinningConfig;
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::train::train_federated;
use vf2boost_core::TrainConfig;

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: run_report <path>");
        std::process::exit(2);
    };
    let s = split_vertical(
        &generate_classification(&SyntheticConfig {
            rows: 600,
            features: 8,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 9,
        }),
        &[4],
    );
    let cfg = TrainConfig {
        gbdt: GbdtParams {
            num_trees: 2,
            max_layers: 4,
            binning: BinningConfig { num_bins: 16, max_samples: 1 << 16 },
            ..Default::default()
        },
        ..base_config()
    };
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    std::fs::write(&path, out.report.to_json()).expect("write run report");
    println!(
        "wrote {path} (wall {:.3} s, {} bytes on the wire)",
        out.report.wall_time.as_secs_f64(),
        out.report.total_bytes()
    );
}
