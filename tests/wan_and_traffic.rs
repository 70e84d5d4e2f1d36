//! Behaviour under a constrained WAN and cross-party traffic accounting —
//! the properties behind the paper's resource-utilization findings (§6.2)
//! and the blaster/packing communication savings.

mod support;

use std::time::Duration;

use support::{assert_bitwise, margins, scenario};
use vf2boost::channel::{FaultConfig, StallWindow, WanConfig};
use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::{train_federated, train_federated_session, ChaosPlan};
use vf2boost::gbdt::train::GbdtParams;

/// Training over a slow link must still converge to the same model.
#[test]
fn constrained_wan_does_not_change_the_model() {
    let s = scenario(50);
    let fast = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 3, ..Default::default() },
        crypto: CryptoConfig::Mock,
        wan: WanConfig::instant(),
        ..TrainConfig::for_tests()
    };
    let slow = TrainConfig {
        wan: WanConfig {
            bandwidth_bytes_per_sec: 200_000.0,
            latency: Duration::from_millis(5),
            per_message_overhead_bytes: 64,
        },
        ..fast
    };
    let a = train_federated(&s.hosts, &s.guest, &fast).expect("training succeeds");
    let b = train_federated(&s.hosts, &s.guest, &slow).expect("training succeeds");
    let am = a.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let bm = b.model.predict_margin(&[&s.hosts[0]], &s.guest);
    for (x, y) in am.iter().zip(&bm) {
        assert!((x - y).abs() < 1e-12);
    }
    assert!(b.report.wall_time > a.report.wall_time, "the slow WAN must actually cost time");
}

/// Blaster batching multiplies message count but not byte volume.
#[test]
fn blaster_batches_split_messages_not_bytes() {
    let s = scenario(51);
    let base = TrainConfig {
        gbdt: GbdtParams { num_trees: 1, max_layers: 3, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig::baseline(),
        ..TrainConfig::for_tests()
    };
    let bulk = train_federated(&s.hosts, &s.guest, &base).expect("training succeeds");
    let blaster = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig {
            protocol: ProtocolConfig { blaster_batch: Some(32), ..ProtocolConfig::baseline() },
            ..base
        },
    )
    .expect("training succeeds");
    assert!(
        blaster.report.guest.messages_sent > bulk.report.guest.messages_sent + 4,
        "batching must produce more gradient messages"
    );
    let bulk_bytes = bulk.report.guest.bytes_sent as f64;
    let blaster_bytes = blaster.report.guest.bytes_sent as f64;
    assert!(
        (blaster_bytes - bulk_bytes).abs() / bulk_bytes < 0.05,
        "payload volume should be nearly unchanged: {bulk_bytes} vs {blaster_bytes}"
    );
}

/// The default protocol pipelines (§4.1): one 1 250-row tree leaves the
/// guest in ⌈1250 / 128⌉ = 10 gradient batches instead of one bulk message,
/// and trains the bulk run's model. The sequential schedule keeps message
/// counts deterministic.
#[test]
fn the_default_protocol_streams_gradients_in_batches() {
    let s = support::scenario_of(1250, 8, &[4], 55);
    let streamed = TrainConfig {
        gbdt: GbdtParams { num_trees: 1, max_layers: 3, ..Default::default() },
        crypto: CryptoConfig::Mock,
        wan: WanConfig::instant(),
        protocol: ProtocolConfig { optimistic: false, ..ProtocolConfig::vf2boost() },
        ..TrainConfig::for_tests()
    };
    let bulk = TrainConfig {
        protocol: ProtocolConfig { blaster_batch: None, ..streamed.protocol },
        ..streamed
    };
    let a = train_federated(&s.hosts, &s.guest, &streamed).expect("training succeeds");
    let b = train_federated(&s.hosts, &s.guest, &bulk).expect("training succeeds");
    assert_eq!(
        a.report.guest.messages_sent,
        b.report.guest.messages_sent + 9,
        "128-row batches must add exactly nine gradient messages"
    );
    assert_bitwise("streamed vs bulk", &margins(&a, &s), &margins(&b, &s));
}

/// Histogram packing must cut the host→guest traffic sharply under real
/// ciphers (the paper reports 3.2 GB → 1.1 GB per tree on synthesis).
#[test]
fn packing_reduces_host_traffic() {
    let s = scenario(52);
    let base = TrainConfig {
        gbdt: GbdtParams { num_trees: 1, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 512 },
        ..TrainConfig::for_tests()
    };
    let raw = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig {
            protocol: ProtocolConfig { pack_histograms: false, ..base.protocol },
            ..base
        },
    )
    .expect("training succeeds");
    let packed = train_federated(&s.hosts, &s.guest, &base).expect("training succeeds");
    let ratio = raw.report.hosts[0].bytes_sent as f64 / packed.report.hosts[0].bytes_sent as f64;
    assert!(ratio > 2.0, "packing ratio only {ratio:.2}x");
}

/// Effectively-once delivery + FIFO links mean repeated runs are
/// bit-for-bit reproducible given a seed.
#[test]
fn runs_are_deterministic_given_seed() {
    let s = scenario(53);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 384 },
        protocol: ProtocolConfig::baseline(),
        ..TrainConfig::for_tests()
    };
    let a = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let b = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let am = a.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let bm = b.model.predict_margin(&[&s.hosts[0]], &s.guest);
    assert_eq!(am, bm, "sequential protocol must be fully deterministic");
}

/// What a run sends is a function of the job, not of how long its parties
/// wait on each other: the same sequential job reports the same bytes and
/// the same per-party message counts on an instant link, on the paper's
/// link and through a blackout several keepalive intervals long. The
/// liveness traffic of that last run (and the retransmissions the blackout
/// provokes) is the link's own: it is in no party's `bytes_sent` or
/// `messages_sent`.
#[test]
fn bytes_and_message_counts_do_not_depend_on_timing() {
    let s = scenario(54);
    let instant = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig::baseline(),
        // A keepalive every 100 ms.
        peer_dead_after: Duration::from_millis(400),
        ..TrainConfig::for_tests()
    };
    let paper = TrainConfig { wan: WanConfig::paper_public_network(), ..instant };
    let outage = StallWindow { after: Duration::ZERO, duration: Duration::from_millis(250) };
    let stalled = ChaosPlan {
        fault_host_to_guest: FaultConfig { stall: Some(outage), ..FaultConfig::none() },
        ..ChaosPlan::default()
    };
    let calm = ChaosPlan::default();
    let runs =
        [("instant", &instant, &calm), ("paper", &paper, &calm), ("stalled", &instant, &stalled)]
            .map(|(name, cfg, chaos)| {
                let out = train_federated_session(&s.hosts, &s.guest, cfg, None, chaos)
                    .unwrap_or_else(|f| panic!("[{name}] training failed: {}", f.error));
                (name, out)
            });
    let traffic = |out: &vf2boost::core::TrainOutput| {
        let r = &out.report;
        (r.total_bytes(), r.guest.messages_sent, r.hosts[0].messages_sent)
    };
    let (_, reference) = &runs[0];
    for (name, out) in &runs[1..] {
        assert_eq!(traffic(out), traffic(reference), "[{name}] traffic moved with timing");
        assert_bitwise(name, &margins(reference, &s), &margins(out, &s));
    }
    let (_, stalled) = &runs[2];
    assert!(stalled.report.wall_time >= outage.duration, "the outage never bit");
}

/// Under the optimistic protocol what a host sends does not depend on
/// timing either. A host holds its histograms of a speculative split's
/// children until the guest's verdict, so one that a rollback supersedes
/// never ships, whether the rollback reaches the host before or after it
/// has packed that histogram. (The guest's own traffic still moves a
/// little: whether a node speculates depends on when its parent's verdict
/// came, and a rolled-back speculation sent one placement more.)
#[test]
fn what_a_host_sends_under_speculation_does_not_depend_on_timing() {
    let s = support::scenario_of(400, 20, &[16], 56);
    let instant = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 5, ..Default::default() },
        crypto: CryptoConfig::Mock,
        wan: WanConfig::instant(),
        protocol: ProtocolConfig::vf2boost(),
        ..TrainConfig::for_tests()
    };
    let paper = TrainConfig { wan: WanConfig::paper_public_network(), ..instant };
    let slow = TrainConfig {
        wan: WanConfig {
            bandwidth_bytes_per_sec: 2.0e6,
            latency: Duration::from_millis(30),
            per_message_overhead_bytes: 64,
        },
        ..instant
    };
    let runs = [("instant", &instant), ("paper", &paper), ("slow", &slow)].map(|(name, cfg)| {
        let out = train_federated(&s.hosts, &s.guest, cfg)
            .unwrap_or_else(|f| panic!("[{name}] training failed: {}", f.error));
        (name, out)
    });
    let host = |out: &vf2boost::core::TrainOutput| {
        (out.report.hosts[0].bytes_sent, out.report.hosts[0].messages_sent)
    };
    let (_, reference) = &runs[0];
    let dirty: u64 = runs.iter().map(|(_, out)| out.report.guest.events.dirty_nodes).sum();
    assert!(dirty > 0, "no speculation was rolled back: the test shows nothing");
    for (name, out) in &runs[1..] {
        assert_eq!(host(out), host(reference), "[{name}] host traffic moved with timing");
        assert_bitwise(name, &margins(reference, &s), &margins(out, &s));
    }
}
