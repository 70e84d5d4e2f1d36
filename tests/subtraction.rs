//! Ciphertext histogram subtraction: the host derives each split's larger
//! child as `parent ⊖ smaller_child` (one negation + HAdd per occupied bin)
//! instead of re-walking its rows. These tests pin down the two claims that
//! make the optimization shippable: the trained model is **bitwise
//! identical** to the direct build in every protocol mode, and the host's
//! homomorphic-addition count actually drops by about the larger child's
//! row share.

mod support;

use support::{assert_bitwise, margins, scenario_of};
use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::train_federated;
use vf2boost::gbdt::binning::BinningConfig;
use vf2boost::gbdt::train::GbdtParams;

/// Paillier, on the paired path (one cipher and one HAdd per stored
/// entry) and on the two-stream raw wire (two of each): subtraction on vs
/// off trains bitwise-identical models while the host's homomorphic
/// additions drop by roughly the larger children's row share, as witnessed
/// by both the raw op counters and the saved-adds telemetry.
///
/// Derivation costs one neg + one HAdd per occupied *bin slot* of the
/// sibling, so it pays off when nodes hold many more rows than
/// `bins × E` — the regime this dataset (600 rows, 8 bins) pins down.
/// With rows ≈ bins the direct build is already cheap and the scheduler
/// still derives (the decision is row-count-, not profit-driven), which
/// keeps the policy a pure function of the row lists.
#[test]
fn paillier_subtraction_halves_child_hadds_with_identical_trees() {
    for paired in [true, false] {
        for optimistic in [false, true] {
            subtraction_halves_child_hadds(paired, optimistic);
        }
    }
}

fn subtraction_halves_child_hadds(paired: bool, optimistic: bool) {
    let s = scenario_of(600, 10, &[5], 11);
    let base = TrainConfig {
        gbdt: GbdtParams {
            num_trees: 2,
            max_layers: 4,
            binning: BinningConfig { num_bins: 8, max_samples: 1 << 16 },
            ..Default::default()
        },
        crypto: CryptoConfig::Paillier { key_bits: 256 },
        protocol: ProtocolConfig {
            pack_histograms: paired,
            hist_subtraction: true,
            optimistic,
            ..ProtocolConfig::vf2boost()
        },
        ..TrainConfig::for_tests()
    };
    let on = train_federated(&s.hosts, &s.guest, &base).expect("training succeeds");
    let off = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig {
            protocol: ProtocolConfig { hist_subtraction: false, ..base.protocol },
            ..base
        },
    )
    .expect("training succeeds");

    assert_bitwise("subtraction on vs off", &margins(&on, &s), &margins(&off, &s));

    let on_host = &on.report.hosts[0];
    let off_host = &off.report.hosts[0];
    // The path under test is the one that ran: a cipher per row and tree,
    // or two.
    let per_row = if paired { 1 } else { 2 };
    assert_eq!(on.report.guest.ops.enc, per_row * 600 * 2, "paired={paired}");
    assert!(on_host.events.hist_subtractions > 0, "no sibling was ever derived");
    assert!(on_host.events.hist_cache_hits > 0, "the node cache was never hit");
    assert!(on_host.events.hadds_saved > 0, "derivation saved nothing");
    assert!(
        on_host.events.hist_cache_hit_rate() > 0.5,
        "hit rate {} too low for a clean (fault-free) run",
        on_host.events.hist_cache_hit_rate()
    );
    assert!(on_host.ops.negs > 0, "subtraction must spend negations");
    assert_eq!(off_host.ops.negs, 0, "direct build never negates");
    assert_eq!(off_host.events.hist_subtractions, 0);
    assert_eq!(off_host.events.hadds_saved, 0);
    if optimistic {
        // Which superseded tasks a host still executes is a race, so two
        // optimistic runs do not do the same work: the counters below are
        // comparable only under the sequential protocol.
        return;
    }

    // Depth ≥ 1 direct builds cost one HAdd per (row, feature) entry of
    // *both* children; derivation replaces the larger child's share with
    // per-bin work. Even with the (identical) root accumulation diluting
    // the ratio, the total must drop visibly, and the drop must be
    // consistent with what the telemetry claims was saved (on the paired
    // path, where nothing is ever rescaled, with no slack at all).
    let spent_on = on_host.ops.hadd + on_host.ops.negs;
    assert!(
        spent_on < off_host.ops.hadd,
        "subtraction run spent {spent_on} adds+negs vs {} direct adds",
        off_host.ops.hadd
    );
    let measured_drop = off_host.ops.hadd - on_host.ops.hadd;
    assert!(
        on_host.events.hadds_saved <= measured_drop + on_host.ops.scalings,
        "telemetry claims {} saved but the counters only dropped by {measured_drop}",
        on_host.events.hadds_saved
    );
    assert!(
        on_host.ops.hadd as f64 <= 0.9 * off_host.ops.hadd as f64,
        "expected ≥10% HAdd reduction, got {} vs {}",
        on_host.ops.hadd,
        off_host.ops.hadd
    );
}

/// Every protocol mode — sequential/optimistic × raw/reordered/packed —
/// trains the bit-identical model with subtraction on vs off, and actually
/// exercises the subtraction path.
#[test]
fn subtraction_is_bitwise_invisible_across_all_modes() {
    let s = scenario_of(200, 10, &[5], 12);
    for optimistic in [false, true] {
        for (reordered, packed) in [(false, false), (true, false), (true, true)] {
            let protocol = ProtocolConfig {
                optimistic,
                reordered_accumulation: reordered,
                pack_histograms: packed,
                hist_subtraction: true,
                ..ProtocolConfig::vf2boost()
            };
            let cfg = TrainConfig {
                gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
                crypto: CryptoConfig::Mock,
                protocol,
                ..TrainConfig::for_tests()
            };
            let context = format!("optimistic={optimistic} reordered={reordered} packed={packed}");
            let on = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
            let off = train_federated(
                &s.hosts,
                &s.guest,
                &TrainConfig {
                    protocol: ProtocolConfig { hist_subtraction: false, ..protocol },
                    ..cfg
                },
            )
            .expect("training succeeds");
            assert_bitwise(&context, &margins(&on, &s), &margins(&off, &s));
            assert!(
                on.report.hosts[0].events.hist_subtractions > 0,
                "{context}: subtraction path never taken"
            );
            assert_eq!(
                off.report.hosts[0].events.hist_subtractions, 0,
                "{context}: direct build must not derive"
            );
        }
    }
}

/// A tiny cache cap starves the subtraction path: the host falls back to
/// direct builds (counting misses), and the model is still bit-identical.
#[test]
fn tiny_cache_cap_falls_back_to_direct_builds() {
    let s = scenario_of(120, 10, &[5], 13);
    let base = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig { hist_cache_bytes: 1, ..ProtocolConfig::vf2boost() },
        ..TrainConfig::for_tests()
    };
    let starved = train_federated(&s.hosts, &s.guest, &base).expect("training succeeds");
    let off = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig {
            protocol: ProtocolConfig { hist_subtraction: false, ..base.protocol },
            ..base
        },
    )
    .expect("training succeeds");
    assert_bitwise("starved cache vs subtraction off", &margins(&starved, &s), &margins(&off, &s));
    let host = &starved.report.hosts[0];
    assert_eq!(host.events.hist_subtractions, 0, "a 1-byte cap cannot hold any parent");
    assert!(host.events.hist_cache_misses > 0, "starvation must surface as misses");
}
