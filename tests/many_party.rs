//! Many-party contracts of the guest's tree loop: 8 hosts over
//! heterogeneous faulty WANs, in every protocol mode.
//!
//! The loop reorders *work* (one host's decrypt overlaps another's
//! transfer; already-arrived histograms commit in batches) but must never
//! reorder *decisions*: per-node splits fire only once every host's answer
//! is admitted, and the winner scan walks hosts in index order. These
//! tests drive that claim through rolling per-link stalls, reordering
//! links, a heterogeneous bandwidth/latency spread, and a mid-run host kill
//! with phases overlapping, resumed across all nine parties — and pin the
//! baseline's one-commit-per-layer ordering.

mod support;

use std::time::Duration;

use support::{assert_bitwise, corner_modes, margins, scenario_of, temp_dir};
use vf2boost::channel::{FaultConfig, StallWindow, WanConfig};
use vf2boost::core::config::{CryptoConfig, WanSpread};
use vf2boost::core::error::{PartyId, TrainError};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::{
    train_federated, train_federated_session, ChaosPlan, SessionConfig, TrainConfig,
};
use vf2boost::datagen::vertical::VerticalScenario;
use vf2boost::gbdt::train::GbdtParams;

const HOSTS: usize = 8;

/// Three features per party, nine parties.
fn scenario(seed: u64) -> VerticalScenario {
    scenario_of(240, 27, &[3; HOSTS], seed)
}

/// A per-link plan with both fault classes the loop must ride out: a
/// timed blackout (host `p`'s opens `p` window lengths after host 0's, so
/// outages roll across the roster) and frame reordering.
fn rolling_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        reorder_prob: 0.05,
        reorder_depth: 3,
        stall: Some(StallWindow {
            after: Duration::from_millis(40),
            duration: Duration::from_millis(30),
        }),
        ..FaultConfig::none()
    }
}

fn calm_cfg(seed: u64, protocol: ProtocolConfig) -> TrainConfig {
    TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol,
        wan: WanConfig::instant(),
        seed,
        ..TrainConfig::for_tests()
    }
}

/// Eight hosts behind a heterogeneous WAN: host 0 gets the base link,
/// host 7 a quarter of the bandwidth at four times the latency.
fn spread_cfg(seed: u64, protocol: ProtocolConfig) -> TrainConfig {
    TrainConfig {
        wan: WanConfig {
            bandwidth_bytes_per_sec: 50.0e6,
            latency: Duration::from_micros(500),
            per_message_overhead_bytes: 32,
        },
        wan_spread: Some(WanSpread { slowest_bandwidth_frac: 0.25, latency_mult: 4.0 }),
        ..calm_cfg(seed, protocol)
    }
}

/// Rolling stalls and reordering on every link, in both directions.
fn hostile_links(seed: u64) -> ChaosPlan {
    ChaosPlan {
        fault_guest_to_host: rolling_faults(seed ^ 0xA11CE),
        fault_host_to_guest: rolling_faults(seed ^ 0xB0B),
        ..ChaosPlan::default()
    }
}

/// Arrival-order invariance: across sequential/optimistic × raw/packed,
/// an 8-host run on hostile heterogeneous links — answers arriving late,
/// in bursts and out of roster order — trains the model the same job
/// trains on instant fault-free links, and really did commit answers in
/// multi-answer batches on the way.
#[test]
fn eight_host_chaos_matrix_is_arrival_order_invariant() {
    let s = scenario(71);
    for (name, protocol) in corner_modes() {
        let calm = train_federated(&s.hosts, &s.guest, &calm_cfg(71, protocol))
            .unwrap_or_else(|f| panic!("[{name}] calm run failed: {}", f.error));
        let chaos = train_federated_session(
            &s.hosts,
            &s.guest,
            &spread_cfg(71, protocol),
            None,
            &hostile_links(71),
        )
        .unwrap_or_else(|f| panic!("[{name}] chaos run failed: {}", f.error));

        assert_eq!(chaos.report.hosts.len(), HOSTS);
        assert_bitwise(name, &margins(&calm, &s), &margins(&chaos, &s));

        // The wire really was hostile in the chaos run only.
        assert_eq!(calm.report.link_events().faults_injected, 0, "[{name}]");
        let link = chaos.report.link_events();
        assert!(link.faults_injected > 0, "[{name}] no faults fired: {link:?}");
        let ev = &chaos.report.guest.events;
        assert!(
            ev.sched_batches > 0 && ev.sched_batch_hists > ev.sched_batches,
            "[{name}] the guest never drained a multi-answer batch: {ev:?}"
        );
    }
}

/// The baseline's ordering ("BuildHistA fully precedes FindSplitA"): with
/// optimism off the loop holds a layer's answers and commits them in one
/// batch, so a tree of `L` layers commits at most `L − 1` batches (the
/// last layer is all leaves), each carrying every host's answer for at
/// least one node. The ordering is scheduling only: flipping `optimistic`
/// on the same data trains the same model bit for bit.
#[test]
fn baseline_commits_one_batch_per_layer_and_matches_optimistic() {
    let s = scenario_of(200, 8, &[4, 2], 74);
    let cfg =
        TrainConfig { protocol: ProtocolConfig::baseline(), seed: 74, ..TrainConfig::for_tests() };
    assert!(matches!(cfg.crypto, CryptoConfig::Paillier { key_bits: 256 }));
    let held = train_federated(&s.hosts, &s.guest, &cfg).expect("baseline run succeeds");
    let ev = &held.report.guest.events;
    let layers = (cfg.gbdt.num_trees * (cfg.gbdt.max_layers - 1)) as u64;
    assert!(ev.sched_batches > 0 && ev.sched_batches <= layers, "one commit per layer: {ev:?}");
    assert!(
        ev.sched_batch_hists >= s.hosts.len() as u64 * ev.sched_batches,
        "every commit carries all hosts' answers: {ev:?}"
    );

    let eager_cfg =
        TrainConfig { protocol: ProtocolConfig { optimistic: true, ..cfg.protocol }, ..cfg };
    let eager = train_federated(&s.hosts, &s.guest, &eager_cfg).expect("optimistic run succeeds");
    assert_bitwise("seq vs opt", &margins(&held, &s), &margins(&eager, &s));
}

/// Kill host 0 inside tree 1's node loop while the guest has overlapping
/// transfers in flight from seven other hosts: the run ends with the
/// crash, and restarting it from the checkpoints every party holds must
/// rejoin all nine at one resume point — the newest tree durable at each
/// of them, the barrier every party rewinds to — and finish with a model
/// bitwise identical to an uninterrupted run.
#[test]
fn pipelined_kill_and_rejoin_holds_the_rewind_barrier() {
    let s = scenario(73);
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 3, max_layers: 4, ..Default::default() },
        ..calm_cfg(73, ProtocolConfig::vf2boost())
    };

    let clean = train_federated(&s.hosts, &s.guest, &cfg)
        .unwrap_or_else(|f| panic!("clean run failed: {}", f.error));

    let dir = temp_dir("many_resume");
    let session = SessionConfig::new(0x0d10_0073, &dir);
    let kill = ChaosPlan { crash_host_on_node_task: Some((1, 0)), ..ChaosPlan::default() };
    let failure = train_federated_session(&s.hosts, &s.guest, &cfg, Some(&session), &kill)
        .expect_err("the injected crash must end the first run");
    assert!(
        matches!(failure.error, TrainError::PartyPanicked { party: PartyId::Host(0), .. }),
        "expected the injected host crash, got {}",
        failure.error
    );

    let resumed = train_federated_session(
        &s.hosts,
        &s.guest,
        &cfg,
        Some(&session.clone().resuming()),
        &ChaosPlan::default(),
    )
    .unwrap_or_else(|f| panic!("resumed run failed: {}", f.error));
    // Every party resumed from the one tree all nine hold, and only the
    // trees after it were trained again.
    assert_eq!(resumed.report.guest.events.resumes, 1);
    for (h, host) in resumed.report.hosts.iter().enumerate() {
        assert_eq!(host.events.resumes, 1, "host {h} did not resume: {:?}", host.events);
    }
    let retrained: Vec<usize> = resumed.report.tree_records.iter().map(|r| r.tree).collect();
    assert_eq!(retrained, [1, 2]);
    assert_bitwise("resumed", &margins(&clean, &s), &margins(&resumed, &s));
    let _ = std::fs::remove_dir_all(&dir);
}
