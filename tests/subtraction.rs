//! Histogram subtraction, where it is free: a host builds, packs and ships
//! only the *smaller* child of every split, and the guest — which decrypted
//! that host's histogram of the parent one level earlier — derives the
//! larger child as `parent − smaller` on the decrypted integers. No party
//! negates a cipher and no host keeps a histogram. It is how every non-root
//! node is answered, so there is no "off" run to compare against: this
//! suite pins the message, pack, decryption and HAdd counts to the trained
//! trees' shape, and the model stays pinned to centralized training by
//! `tests/losslessness.rs` (the derivation itself is pinned, bit for bit,
//! to the ciphertext one by `crates/core/tests/derivation.rs`).

mod support;

use support::{assert_bitwise, margins, scenario_of};
use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::model::FedNode;
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::train_federated;
use vf2boost::crypto::suite::Suite;
use vf2boost::gbdt::binning::{BinnedDataset, BinningConfig};
use vf2boost::gbdt::train::GbdtParams;
use vf2boost::gbdt::tree::layer_of;

/// Paillier, on the paired path (one cipher and one HAdd per stored entry)
/// and on the two-stream raw wire (two of each), sequential and optimistic.
///
/// Under the sequential protocol nothing is speculative, so what a host
/// sends is a function of the trees alone: per tree one root histogram plus
/// one per split whose children still carry histograms (a last-layer child
/// is a leaf and is never asked for) — and the guest derives exactly as
/// many siblings as it received children. Packs and decryptions are that
/// answer count times the ciphers one histogram takes, and the HAdds land
/// at least 10 % under what building *both* children of every split would
/// cost (dense data: one HAdd per row, feature and stream at every level).
///
/// The optimistic run races over which superseded tasks a host still
/// executes, so its counts are not a function of the config; it training
/// the bit-identical model is the schedule-independence of the derivation
/// (a re-split derives its children again from the same retained parent).
#[test]
fn paillier_subtraction_halves_child_hadds_with_identical_trees() {
    let (rows, host_features, trees, max_layers) = (600, 5, 2, 4);
    let s = scenario_of(rows, 10, &[host_features], 11);
    let binning = BinningConfig { num_bins: 8, max_samples: 1 << 16 };
    let bins: Vec<usize> = BinnedDataset::bin(&s.hosts[0], &binning)
        .columns()
        .iter()
        .map(|column| column.num_bins())
        .collect();
    for paired in [true, false] {
        let mut sequential_margins = None;
        for optimistic in [false, true] {
            let what = format!("paired={paired} optimistic={optimistic}");
            let cfg = TrainConfig {
                gbdt: GbdtParams { num_trees: trees, max_layers, binning, ..Default::default() },
                crypto: CryptoConfig::Paillier { key_bits: 256 },
                protocol: ProtocolConfig {
                    pack_histograms: paired,
                    optimistic,
                    ..ProtocolConfig::vf2boost()
                },
                ..TrainConfig::for_tests()
            };
            let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
            let (guest, host) = (&out.report.guest, &out.report.hosts[0]);
            // The path under test is the one that ran: a cipher per row and
            // tree, or two.
            let streams: u64 = if paired { 1 } else { 2 };
            assert_eq!(guest.ops.enc, streams * (rows * trees) as u64, "{what}");
            // Nobody subtracts in ciphertext, and no host stores a histogram.
            assert_eq!(host.ops.negs, 0, "{what}");
            assert_eq!((host.events.hist_cache_hits, host.events.hist_cache_misses), (0, 0));
            assert!(guest.events.hists_derived > 0, "{what}: no sibling was ever derived");
            match &sequential_margins {
                None => sequential_margins = Some(margins(&out, &s)),
                Some(seq) => assert_bitwise(&what, seq, &margins(&out, &s)),
            }
            if optimistic {
                continue;
            }
            // One task — one answer, one derived sibling — per split whose
            // children are not last-layer, plus each tree's root.
            let splits_answered: u64 = out
                .model
                .trees
                .iter()
                .flat_map(|tree| tree.nodes.iter().enumerate())
                .filter(|(id, node)| {
                    !matches!(node, FedNode::Leaf(_) | FedNode::Absent)
                        && layer_of(*id) + 2 < max_layers
                })
                .count() as u64;
            assert!(splits_answered >= trees as u64, "{what}: the trees never grew past the root");
            let answers = trees as u64 + splits_answered;
            assert_eq!(guest.events.hists_derived, splits_answered, "{what}");
            assert_eq!(guest.events.sched_batch_hists, answers, "{what}");
            assert_eq!(guest.events.stale_histograms, 0, "{what}");
            // Ciphers one histogram takes on this wire.
            let (packs, ciphers) = if paired {
                let probe = Suite::paillier_seeded(256, 1, cfg.encoding).unwrap();
                let plan = cfg.gh_plan(&probe, rows).unwrap().expect("the paired path");
                let per_cipher = plan.bins_per_cipher(probe.public_key().unwrap());
                let ciphers: usize = bins.iter().map(|b| b.div_ceil(per_cipher)).sum();
                (ciphers as u64, ciphers as u64)
            } else {
                (0, 2 * bins.iter().sum::<usize>() as u64)
            };
            assert_eq!(host.ops.packs, answers * packs, "{what}");
            assert_eq!(guest.ops.dec, answers * ciphers, "{what}");
            let both_children = streams * (rows * host_features * (max_layers - 1) * trees) as u64;
            assert!(
                host.ops.hadd as f64 <= 0.9 * both_children as f64,
                "{what}: expected ≥10% fewer HAdds than {both_children}, got {}",
                host.ops.hadd
            );
        }
    }
}
