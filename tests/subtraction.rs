//! Ciphertext histogram subtraction: the host derives each split's larger
//! child as `parent ⊖ smaller_child` (one negation + HAdd per occupied bin)
//! instead of re-walking its rows. It is how every host builds every
//! non-root node, so there is no "off" run to compare against: this suite
//! pins the work saved against the analytic cost of building every node
//! from rows, and the model stays pinned to centralized training by
//! `tests/losslessness.rs`.

mod support;

use support::{assert_bitwise, margins, scenario_of};
use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::train_federated;
use vf2boost::gbdt::binning::BinningConfig;
use vf2boost::gbdt::train::GbdtParams;

/// Paillier, on the paired path (one cipher and one HAdd per stored entry)
/// and on the two-stream raw wire (two of each), sequential and optimistic:
/// the host derives larger children, and under the sequential protocol its
/// homomorphic additions land at least 10 % under what direct builds at
/// every node would cost.
///
/// Derivation costs one neg + one HAdd per occupied *bin slot* of the
/// sibling, so it pays off when nodes hold many more rows than
/// `bins × E` — the regime this dataset (600 rows, 8 bins) pins down.
/// With rows ≈ bins the direct build is already cheap and the host still
/// derives (the decision is row-count-, not profit-driven), which keeps
/// the policy a pure function of the row lists.
///
/// The optimistic run races, so some of its re-issued tasks miss their
/// parent and build from rows where the sequential run derived: the two
/// training the bit-identical model is the derive-vs-direct equivalence.
#[test]
fn paillier_subtraction_halves_child_hadds_with_identical_trees() {
    let (rows, host_features, trees, max_layers) = (600, 5, 2, 4);
    let s = scenario_of(rows, 10, &[host_features], 11);
    for paired in [true, false] {
        let mut sequential_margins = None;
        for optimistic in [false, true] {
            let what = format!("paired={paired} optimistic={optimistic}");
            let cfg = TrainConfig {
                gbdt: GbdtParams {
                    num_trees: trees,
                    max_layers,
                    binning: BinningConfig { num_bins: 8, max_samples: 1 << 16 },
                    ..Default::default()
                },
                crypto: CryptoConfig::Paillier { key_bits: 256 },
                protocol: ProtocolConfig {
                    pack_histograms: paired,
                    optimistic,
                    ..ProtocolConfig::vf2boost()
                },
                ..TrainConfig::for_tests()
            };
            let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
            let host = &out.report.hosts[0];
            // The path under test is the one that ran: a cipher per row and
            // tree, or two.
            let streams: u64 = if paired { 1 } else { 2 };
            assert_eq!(out.report.guest.ops.enc, streams * (rows * trees) as u64, "{what}");
            assert!(host.events.hist_subtractions > 0, "{what}: no sibling was ever derived");
            assert!(host.events.hist_cache_hits > 0, "{what}: no retained histogram was reused");
            assert!(host.events.hadds_saved > 0, "{what}: derivation saved nothing");
            assert!(
                host.events.hist_cache_hit_rate() > 0.5,
                "{what}: hit rate {} too low for a fault-free run",
                host.events.hist_cache_hit_rate()
            );
            assert!(host.ops.negs > 0, "{what}: subtraction must spend negations");
            match &sequential_margins {
                None => sequential_margins = Some(margins(&out, &s)),
                Some(seq) => assert_bitwise(&what, seq, &margins(&out, &s)),
            }
            if optimistic {
                // Which superseded tasks a host still executes is a race,
                // so an optimistic run's op counts are not a function of
                // the config.
                continue;
            }
            // Dense data: building a node from rows costs one HAdd per
            // (row, feature) entry and stream, and every histogram level
            // (all but the leaf layer) holds every row once. Derivation
            // replaces the larger child's share with per-bin work; even
            // with the (identical) root accumulation diluting the ratio,
            // the total must drop visibly.
            let direct = streams * (rows * host_features * (max_layers - 1) * trees) as u64;
            assert!(
                host.ops.hadd + host.ops.negs < direct,
                "{what}: spent {} adds+negs vs {direct} for direct builds",
                host.ops.hadd + host.ops.negs
            );
            assert!(
                host.ops.hadd as f64 <= 0.9 * direct as f64,
                "{what}: expected ≥10% fewer HAdds than {direct} direct ones, got {}",
                host.ops.hadd
            );
        }
    }
}
