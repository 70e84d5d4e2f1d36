//! `TrainConfig::workers` changes wall time and nothing else.
//!
//! The pool behind `workers` runs on real threads, and the encrypted
//! histogram build is sharded by *feature*: every bin receives its ciphers
//! in the same order at every width. So across `workers ∈ {1, 2, 4}`, under
//! real Paillier, in every protocol mode:
//!
//! * the trained model is bitwise identical;
//! * under the sequential protocol — where no work depends on who wins a
//!   rollback race — every party's operation counts and the bytes on the
//!   wire are *equal*, not merely close (a row-sharded build would add one
//!   merge HAdd per occupied bin per extra worker);
//! * a `workers: 1` run starts no pool thread at all.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::pool::worker_threads_started;
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::{train_federated, TrainOutput};
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::{split_vertical, VerticalScenario};
use vf2boost::gbdt::train::GbdtParams;

/// The started-worker counter is process-wide, so the tests of this file
/// take turns (they fill both cores on their own anyway).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One host holding the first `host_features` columns, the guest the rest.
fn scenario(seed: u64, features: usize, host_features: usize) -> VerticalScenario {
    let data = generate_classification(&SyntheticConfig {
        rows: 96,
        features,
        density: 0.8,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed,
    });
    split_vertical(&data, &[host_features])
}

/// Sequential/optimistic × two-stream raw histograms / paired packed ones,
/// each over the full VF²Boost stack (blaster batches, re-ordered
/// accumulation, one host task per split) so every counter is exercised.
fn modes() -> Vec<(String, TrainConfig)> {
    let mut out = Vec::new();
    for optimistic in [false, true] {
        for pack_histograms in [false, true] {
            let name = format!(
                "{}-{}",
                if optimistic { "opt" } else { "seq" },
                if pack_histograms { "paired" } else { "raw" },
            );
            let cfg = TrainConfig {
                gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
                crypto: CryptoConfig::Paillier { key_bits: 256 },
                protocol: ProtocolConfig {
                    optimistic,
                    pack_histograms,
                    blaster_batch: Some(40),
                    ..ProtocolConfig::vf2boost()
                },
                peer_timeout: Duration::from_secs(60),
                ..TrainConfig::for_tests()
            };
            out.push((name, cfg));
        }
    }
    out
}

fn train(s: &VerticalScenario, cfg: &TrainConfig, what: &str) -> TrainOutput {
    train_federated(&s.hosts, &s.guest, cfg)
        .unwrap_or_else(|f| panic!("[{what}] training failed: {}", f.error))
}

fn margin_bits(out: &TrainOutput, s: &VerticalScenario) -> Vec<u64> {
    let hosts: Vec<_> = s.hosts.iter().collect();
    out.model.predict_margin(&hosts, &s.guest).iter().map(|m| m.to_bits()).collect()
}

/// Per party (guest first): `(enc, dec, hadd, scalings, packs, negs)`.
fn op_counts(out: &TrainOutput) -> Vec<[u64; 6]> {
    std::iter::once(&out.report.guest)
        .chain(&out.report.hosts)
        .map(|p| [p.ops.enc, p.ops.dec, p.ops.hadd, p.ops.scalings, p.ops.packs, p.ops.negs])
        .collect()
}

/// Trains every mode at every width and holds the widths to the width-1
/// run.
fn assert_width_invariant(s: &VerticalScenario, widths: &[usize]) {
    for (name, cfg) in modes() {
        let base = train(s, &TrainConfig { workers: 1, ..cfg }, &name);
        assert!(base.report.hosts[0].ops.hadd > 0, "[{name}] the host never accumulated");
        let base_bits = margin_bits(&base, s);
        for &workers in widths {
            let what = format!("{name} workers={workers}");
            let out = train(s, &TrainConfig { workers, ..cfg }, &what);
            assert!(margin_bits(&out, s) == base_bits, "[{what}] model moved");
            if !cfg.protocol.optimistic {
                assert_eq!(op_counts(&out), op_counts(&base), "[{what}] op counts moved");
                assert_eq!(
                    out.report.total_bytes(),
                    base.report.total_bytes(),
                    "[{what}] bytes on the wire moved"
                );
            }
        }
    }
}

#[test]
fn every_worker_gets_columns() {
    let _turn = serial();
    // Host 7 features: column ranges 4 + 3 at two workers, 2 + 2 + 2 + 1 at
    // four.
    assert_width_invariant(&scenario(31, 10, 7), &[2, 4]);
}

#[test]
fn fewer_features_than_workers() {
    let _turn = serial();
    // Host 2 features under 4 workers: two column ranges, two idle workers;
    // the guest's 3 features leave its fourth decrypt worker idle too.
    assert_width_invariant(&scenario(32, 5, 2), &[4]);
}

#[test]
fn one_worker_starts_no_pool_thread() {
    let _turn = serial();
    let s = scenario(33, 10, 7);
    for (name, cfg) in modes() {
        let before = worker_threads_started();
        train(&s, &TrainConfig { workers: 1, ..cfg }, &name);
        assert_eq!(worker_threads_started(), before, "[{name}] workers=1 started threads");
    }
    // The counter is live: the same job at two workers does start some.
    let (name, cfg) = modes().remove(0);
    let before = worker_threads_started();
    train(&s, &TrainConfig { workers: 2, ..cfg }, &name);
    assert!(worker_threads_started() > before, "workers=2 never fanned out");
}
