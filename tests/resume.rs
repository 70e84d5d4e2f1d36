//! Chaos tests for checkpoint/resume and liveness supervision.
//!
//! The core contract: killing a party mid-run and restarting the job
//! from its durable checkpoints must produce a model *bitwise identical*
//! to an uninterrupted run — in every protocol mode. And a peer that
//! silently dies must surface as a typed `PeerLost` within the liveness
//! deadline (never a hang), while a bounded outage shorter than the
//! deadline must be ridden out.

mod support;

use std::sync::Arc;
use std::time::{Duration, Instant};

use support::{assert_bitwise, corner_modes, margins, modes, scenario, scenario_of, temp_dir};
use vf2boost::channel::{duplex, FaultConfig, StallWindow, WanConfig};
use vf2boost::core::config::{CryptoConfig, HostLossPolicy};
use vf2boost::core::error::{PartyId, TrainError};
use vf2boost::core::host::run_host;
use vf2boost::core::messages::Msg;
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::session::PartySession;
use vf2boost::core::wire;
use vf2boost::core::{
    train_federated, train_federated_session, ChaosPlan, SessionConfig, TraceEvent, TraceEventKind,
    TrainConfig,
};
use vf2boost::crypto::encoding::EncodingConfig;
use vf2boost::crypto::suite::Suite;
use vf2boost::gbdt::data::{Dataset, FeatureColumn};
use vf2boost::gbdt::train::GbdtParams;

fn resume_cfg(seed: u64, protocol: ProtocolConfig) -> TrainConfig {
    TrainConfig {
        gbdt: GbdtParams { num_trees: 4, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        wan: WanConfig::instant(),
        protocol,
        seed,
        ..TrainConfig::for_tests()
    }
}

/// The one kill point: host 0 dies the moment tree 2's root task reaches
/// it — FIFO-after `TreeDone(1)`, so the 2-tree checkpoint is durable on
/// both sides, and inside the node loop, with the guest holding a
/// half-built tree.
fn kill_in_tree_2() -> ChaosPlan {
    ChaosPlan { crash_host_on_node_task: Some((2, 0)), ..ChaosPlan::default() }
}

/// A host→guest direction misbehaving per `fault`.
fn faulty_return_path(fault: FaultConfig) -> ChaosPlan {
    ChaosPlan { fault_host_to_guest: fault, ..ChaosPlan::default() }
}

/// How long [`early_outage`] lasts.
const OUTAGE: Duration = Duration::from_millis(600);

/// What a guest that rides [`early_outage`] out must have idled at least:
/// the outage, less the guest's own setup — the window opens at link
/// creation, a few milliseconds before the guest's first wait.
const SLEPT: Duration = Duration::from_millis(550);

/// A host→guest blackout from link creation: hellos and histograms are
/// held, then delivered.
fn early_outage() -> ChaosPlan {
    faulty_return_path(FaultConfig {
        stall: Some(StallWindow { after: Duration::ZERO, duration: OUTAGE }),
        ..FaultConfig::none()
    })
}

/// Kill the host after 2 of 4 trees, restart the whole job from its
/// checkpoints, and demand the final model be bitwise identical to an
/// uninterrupted run — for every protocol-mode combination.
fn assert_resume_matrix(seed: u64) {
    let s = scenario(seed);
    for (name, protocol) in modes() {
        let cfg = resume_cfg(seed, protocol);

        // Reference: one uninterrupted, session-less run.
        let clean = train_federated(&s.hosts, &s.guest, &cfg)
            .unwrap_or_else(|f| panic!("[{name}] clean run failed: {}", f.error));

        // Incarnation 1: the host is killed right after its second tree
        // checkpoint becomes durable.
        let dir = temp_dir(&format!("{seed}_{name}"));
        let session = SessionConfig::new(seed ^ 0x005e_5510, &dir);
        let failure =
            train_federated_session(&s.hosts, &s.guest, &cfg, Some(&session), &kill_in_tree_2())
                .expect_err("the injected crash must abort incarnation 1");
        assert!(
            matches!(failure.error, TrainError::PartyPanicked { party: PartyId::Host(0), .. }),
            "[{name}] expected the injected host crash, got {}",
            failure.error
        );
        // The panicked host's telemetry dies with its thread; the guest's
        // counters and the on-disk checkpoints testify for incarnation 1.
        assert!(
            failure.partial.guest.events.checkpoints_written >= 2,
            "[{name}] guest wrote {} checkpoints before the crash",
            failure.partial.guest.events.checkpoints_written
        );

        // Incarnation 2: same session, resume flag set, no crash. Both
        // parties must agree on tree 2 and finish the remaining trees.
        let resumed = train_federated_session(
            &s.hosts,
            &s.guest,
            &cfg,
            Some(&session.clone().resuming()),
            &ChaosPlan::default(),
        )
        .unwrap_or_else(|f| panic!("[{name}] resumed run failed: {}", f.error));
        assert!(
            resumed.report.guest.events.resumes >= 1,
            "[{name}] guest never resumed: {:?}",
            resumed.report.guest.events
        );
        assert!(
            resumed.report.hosts[0].events.resumes >= 1,
            "[{name}] host never resumed: {:?}",
            resumed.report.hosts[0].events
        );
        assert!(
            resumed.report.hosts[0].events.checkpoints_written >= 1,
            "[{name}] resumed host wrote no checkpoints: {:?}",
            resumed.report.hosts[0].events
        );

        assert_bitwise(&format!("{name} resumed"), &margins(&clean, &s), &margins(&resumed, &s));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_and_resumed_run_matches_bitwise_seed_61() {
    assert_resume_matrix(61);
}

#[test]
fn killed_and_resumed_run_matches_bitwise_seed_71() {
    assert_resume_matrix(71);
}

#[test]
fn killed_and_resumed_run_matches_bitwise_seed_81() {
    assert_resume_matrix(81);
}

#[test]
fn silent_peer_death_is_a_typed_error_within_the_liveness_deadline() {
    let s = scenario(65);
    // The host→guest direction blackholes early while the per-phase
    // deadline is far away: only the link's silence clock can notice.
    let cfg = TrainConfig {
        peer_timeout: Duration::from_secs(30),
        peer_dead_after: Duration::from_millis(1500),
        ..resume_cfg(65, ProtocolConfig::vf2boost())
    };
    let blackhole =
        faulty_return_path(FaultConfig { disconnect_after_frames: Some(6), ..FaultConfig::none() });
    let t0 = Instant::now();
    let failure = train_federated_session(&s.hosts, &s.guest, &cfg, None, &blackhole)
        .expect_err("a silently dead peer must abort the run");
    let elapsed = t0.elapsed();
    assert!(
        matches!(failure.error, TrainError::PeerLost { .. }),
        "expected PeerLost, got {}",
        failure.error
    );
    // Far below the 30 s per-phase deadline: the liveness supervisor
    // fired, not the timeout of last resort.
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    let guest = &failure.partial.guest;
    assert_eq!(guest.link.recv_timeouts, 1, "not the silence deadline: {:?}", guest.link);
    let declared_dead = |e: &TraceEvent| matches!(&e.kind, TraceEventKind::Note(n) if n.contains("host-0 declared dead after 1.5s"));
    assert!(guest.trace.events().any(declared_dead), "the silence was never observed");
}

#[test]
fn outage_shorter_than_the_deadline_is_ridden_out() {
    let s = scenario(66);
    let base = resume_cfg(66, ProtocolConfig::vf2boost());
    // The 600 ms blackout is shorter than the 2 s liveness deadline, so
    // the run must finish — with the identical model.
    let cfg = TrainConfig { peer_dead_after: Duration::from_secs(2), ..base };
    let clean = train_federated(&s.hosts, &s.guest, &base).expect("clean run succeeds");
    let stalled = train_federated_session(&s.hosts, &s.guest, &cfg, None, &early_outage())
        .expect("an outage shorter than the liveness deadline must be survived");
    assert_bitwise("stalled", &margins(&clean, &s), &margins(&stalled, &s));
    // The guest sat the outage out inside its wait: asleep, not retrying,
    // and no deadline fired.
    let guest = &stalled.report.guest;
    assert!(guest.phases.idle >= SLEPT, "guest idled only {:?}", guest.phases.idle);
    assert_eq!(guest.link.recv_timeouts, 0);
}

#[test]
fn a_session_id_mismatch_is_a_typed_resume_error() {
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let data =
        Arc::new(Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None));
    let cfg = TrainConfig { crypto: CryptoConfig::Mock, ..TrainConfig::for_tests() };
    let dir = temp_dir("sid_mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let sess = PartySession::host(&SessionConfig::new(7, &dir), &cfg, 0);
    let suite = Suite::plain(EncodingConfig::default());
    let handle = std::thread::spawn(move || {
        run_host(0, data, cfg, suite, host_ep, Some(sess), ChaosPlan::default())
    });
    // Drain the host's SessionHello and FeatureMeta, then claim a
    // different session id in the Resume decision.
    let _ = guest_ep.recv().unwrap();
    let _ = guest_ep.recv().unwrap();
    let resume = Msg::Resume { session_id: 8, tree_count: 0 };
    guest_ep.send(resume.kind(), wire::encode(&resume).unwrap());
    let failure = handle.join().unwrap().expect_err("a foreign session id must be rejected");
    assert!(
        matches!(failure.error, TrainError::ResumeMismatch { party: PartyId::Guest, .. }),
        "expected ResumeMismatch, got {}",
        failure.error
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing failure-time flight-record dump must never mask the original
/// error — but it must not vanish either: the guest counts it in
/// `events.flight_record_failed` and leaves a trace note. A *directory*
/// squatting on the guest's flight path makes the dump fail (EISDIR bites
/// even a root test runner, unlike permission bits) while checkpoints and
/// the rest of the session stay healthy; an injected host crash supplies
/// the error path.
#[test]
fn a_failing_flight_record_dump_is_counted_not_fatal() {
    let s = scenario(11);
    let cfg = resume_cfg(11, ProtocolConfig::baseline());
    let dir = temp_dir("flight_fail");
    std::fs::create_dir_all(dir.join("guest.flight.json")).unwrap();
    let session = SessionConfig::new(0xf11e, &dir);
    let failure =
        train_federated_session(&s.hosts, &s.guest, &cfg, Some(&session), &kill_in_tree_2())
            .expect_err("the injected host crash must abort the run");
    assert!(
        matches!(failure.error, TrainError::PartyPanicked { party: PartyId::Host(0), .. }),
        "expected the injected host crash, got {}",
        failure.error
    );
    assert_eq!(
        failure.partial.guest.events.flight_record_failed, 1,
        "the failed flight-record dump must be counted: {:?}",
        failure.partial.guest.events
    );
    // The squatting directory is still a directory: nothing overwrote it.
    assert!(dir.join("guest.flight.json").is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Dropout chaos: in-run host failure survival (rejoin / degrade / backoff).
//
// These kill a host *inside* the node loop — after it accepted a
// `NodeTask` but before its histogram answer, the worst spot for the
// guest, which now holds a half-built tree — and demand the run survive
// under the configured `on_host_loss` policy instead of restarting the
// whole job.
// ---------------------------------------------------------------------------

/// A two-host vertical split of the same synthetic data, so chaos runs
/// have a live survivor whose stream must be rewound and drained while
/// host 0 is down.
fn scenario2(seed: u64) -> vf2boost::datagen::vertical::VerticalScenario {
    scenario_of(200, 8, &[4, 2], seed)
}

/// Kill the host mid-node-loop of tree 2 under `AwaitRejoin`: the guest
/// must quarantine the stream, keep the session open, accept the
/// restarted incarnation's newer-epoch hello, rewind to the last
/// mutually durable tree, and finish with a model bitwise identical to
/// an uninterrupted run — for sequential/optimistic × raw/packed.
fn assert_rejoin_matrix(seed: u64) {
    let s = scenario(seed);
    for (name, protocol) in corner_modes() {
        let cfg = resume_cfg(seed, protocol);

        // Reference: one uninterrupted, session-less run.
        let clean = train_federated(&s.hosts, &s.guest, &cfg)
            .unwrap_or_else(|f| panic!("[{name}] clean run failed: {}", f.error));

        // Chaos: the host dies inside tree 2's node loop; the guest holds
        // the session open and a fresh incarnation rejoins mid-run.
        let dir = temp_dir(&format!("rejoin_{seed}_{name}"));
        let session = SessionConfig::new(seed ^ 0x0d10_0ca0, &dir);
        let rejoin_cfg = TrainConfig {
            on_host_loss: HostLossPolicy::AwaitRejoin { deadline: Duration::from_secs(10) },
            ..cfg
        };
        let out = train_federated_session(
            &s.hosts,
            &s.guest,
            &rejoin_cfg,
            Some(&session),
            &kill_in_tree_2(),
        )
        .unwrap_or_else(|f| panic!("[{name}] rejoin run failed: {}", f.error));

        let ev = &out.report.guest.events;
        assert!(ev.quarantines >= 1, "[{name}] host loss was never quarantined: {ev:?}");
        assert!(ev.rejoins >= 1, "[{name}] the restarted host never rejoined: {ev:?}");
        assert!(
            out.report.hosts[0].events.resumes >= 1,
            "[{name}] the rejoined incarnation never resumed from its checkpoint: {:?}",
            out.report.hosts[0].events
        );
        // No party was parked: every tree was trained by the full roster.
        for rec in &out.report.tree_records {
            assert_eq!(
                rec.party_set,
                vec![0, 1],
                "[{name}] tree {} lost a party despite the successful rejoin",
                rec.tree
            );
        }

        assert_bitwise(&format!("{name} rejoined"), &margins(&clean, &s), &margins(&out, &s));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn dropout_chaos_rejoin_matches_bitwise_seed_91() {
    assert_rejoin_matrix(91);
}

#[test]
fn dropout_chaos_rejoin_matches_bitwise_seed_92() {
    assert_rejoin_matrix(92);
}

#[test]
fn dropout_chaos_rejoin_matches_bitwise_seed_93() {
    assert_rejoin_matrix(93);
}

/// The rejoin barrier with a live survivor: host 0 dies mid-node-loop
/// while host 1 is healthy. The guest must rewind the *survivor* too —
/// `Rewind` → drain to `RewindAck` — so no aborted-attempt histogram
/// from host 1 can leak into the re-executed tree, and the final model
/// must still be bitwise identical to an uninterrupted two-host run.
#[test]
fn dropout_chaos_rejoin_with_a_live_survivor_rewinds_both() {
    let s = scenario2(94);
    for (name, protocol) in
        [("seq", ProtocolConfig::baseline()), ("opt", ProtocolConfig::vf2boost())]
    {
        let cfg = resume_cfg(94, protocol);
        let clean = train_federated(&s.hosts, &s.guest, &cfg)
            .unwrap_or_else(|f| panic!("[{name}] clean run failed: {}", f.error));

        let dir = temp_dir(&format!("rejoin2_{name}"));
        let session = SessionConfig::new(0x51d2_0094, &dir);
        let rejoin_cfg = TrainConfig {
            on_host_loss: HostLossPolicy::AwaitRejoin { deadline: Duration::from_secs(10) },
            ..cfg
        };
        let out = train_federated_session(
            &s.hosts,
            &s.guest,
            &rejoin_cfg,
            Some(&session),
            &kill_in_tree_2(),
        )
        .unwrap_or_else(|f| panic!("[{name}] two-host rejoin run failed: {}", f.error));
        let ev = &out.report.guest.events;
        assert!(ev.rejoins >= 1, "[{name}] the restarted host never rejoined: {ev:?}");
        for rec in &out.report.tree_records {
            assert_eq!(rec.party_set, vec![0, 1, 2], "[{name}] tree {} lost a party", rec.tree);
        }

        assert_bitwise(&format!("{name} survivor"), &margins(&clean, &s), &margins(&out, &s));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `Degrade` with a single host: parking it leaves only the guest, which
/// must finish the remaining trees on its own features. The per-tree
/// `party_set` records the roster shrink, and the model stays servable
/// (missing host splits route to a neutral 0.0 contribution).
#[test]
fn dropout_chaos_degrade_parks_the_only_host_and_finishes_guest_only() {
    let s = scenario(95);
    let cfg = TrainConfig {
        on_host_loss: HostLossPolicy::Degrade,
        ..resume_cfg(95, ProtocolConfig::vf2boost())
    };
    let out = train_federated_session(&s.hosts, &s.guest, &cfg, None, &kill_in_tree_2())
        .expect("a degrade run must survive losing its only host");
    let ev = &out.report.guest.events;
    assert_eq!(ev.quarantines, 1, "exactly one park expected: {ev:?}");
    assert_eq!(ev.rejoins, 0, "degrade must never rejoin: {ev:?}");
    assert_eq!(out.report.tree_records.len(), 4, "all four trees must complete");
    for rec in &out.report.tree_records {
        let expect = if rec.tree < 2 { vec![0, 1] } else { vec![0] };
        assert_eq!(
            rec.party_set, expect,
            "tree {} has the wrong training roster after the park",
            rec.tree
        );
    }
    // Session-less, so the dead host's split table is gone: prediction
    // must degrade gracefully, never panic.
    for (i, m) in margins(&out, &s).iter().enumerate() {
        assert!(m.is_finite(), "margin {i} is not finite: {m}");
    }
}

/// `Degrade` with a survivor: host 0 is parked mid-run, host 1 keeps
/// training. The survivor's stream is rewound through the ack barrier,
/// the roster shrinks to {guest, host 1}, and the parked host's split
/// table is recovered from its last durable checkpoint so the first two
/// trees still route through its features at prediction time.
#[test]
fn dropout_chaos_degrade_with_a_survivor_keeps_the_live_host() {
    let s = scenario2(96);
    let dir = temp_dir("degrade2");
    let session = SessionConfig::new(0xde60_0096, &dir);
    let cfg = TrainConfig {
        on_host_loss: HostLossPolicy::Degrade,
        ..resume_cfg(96, ProtocolConfig::vf2boost())
    };
    let out = train_federated_session(&s.hosts, &s.guest, &cfg, Some(&session), &kill_in_tree_2())
        .expect("a degrade run must survive losing one of two hosts");
    let ev = &out.report.guest.events;
    assert_eq!(ev.quarantines, 1, "exactly one park expected: {ev:?}");
    assert_eq!(out.report.tree_records.len(), 4, "all four trees must complete");
    for rec in &out.report.tree_records {
        let expect = if rec.tree < 2 { vec![0, 1, 2] } else { vec![0, 2] };
        assert_eq!(
            rec.party_set, expect,
            "tree {} has the wrong training roster after the park",
            rec.tree
        );
    }
    for (i, m) in margins(&out, &s).iter().enumerate() {
        assert!(m.is_finite(), "margin {i} is not finite: {m}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled-but-alive link must be ridden out inside the supervised wait
/// — slept through, never escalated to a quarantine — even with a loss
/// policy armed, and the model must be bitwise identical to an unstalled
/// run.
#[test]
fn dropout_chaos_slow_link_is_ridden_out_without_quarantine() {
    let s = scenario(97);
    let base = resume_cfg(97, ProtocolConfig::vf2boost());
    let cfg = TrainConfig {
        peer_dead_after: Duration::from_secs(2),
        on_host_loss: HostLossPolicy::AwaitRejoin { deadline: Duration::from_secs(10) },
        ..base
    };
    let clean = train_federated(&s.hosts, &s.guest, &base).expect("clean run succeeds");
    let stalled = train_federated_session(&s.hosts, &s.guest, &cfg, None, &early_outage())
        .expect("a stall shorter than the liveness deadline must be ridden out");
    let guest = &stalled.report.guest;
    assert!(guest.phases.idle >= SLEPT, "the stall never reached the wait: {:?}", guest.phases);
    let ev = &guest.events;
    assert_eq!(ev.quarantines, 0, "a slow link must not be quarantined: {ev:?}");
    assert_bitwise("stalled", &margins(&clean, &s), &margins(&stalled, &s));
}
