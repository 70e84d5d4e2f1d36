//! Chaos tests for checkpoint/resume and liveness supervision.
//!
//! The core contract: killing a party mid-run and restarting the job
//! from its durable checkpoints must produce a model *bitwise identical*
//! to an uninterrupted run — in every protocol mode. That restart is the
//! only way back from a lost host. And a peer that silently dies must
//! surface as a typed `PeerLost` within the liveness deadline (never a
//! hang), while a bounded outage shorter than the deadline must be ridden
//! out.

mod support;

use std::time::{Duration, Instant};

use support::{assert_bitwise, margins, modes, scenario, temp_dir};
use vf2boost::channel::{duplex, FaultConfig, StallWindow, WanConfig};
use vf2boost::core::config::CryptoConfig;
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

/// The one kill point: host 0 panics at tree 2's first histogram
/// accumulation — FIFO-after `TreeDone(1)`, so the 2-tree checkpoint is
/// durable on both sides, and before any answer of tree 2, with the guest
/// holding a half-built tree.
fn kill_in_tree_2() -> ChaosPlan {
    ChaosPlan { crash_host_on_tree: Some(2), ..ChaosPlan::default() }
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
        // Both parties' counters testify for incarnation 1: the crashed
        // host returns its telemetry and dumps its flight record like any
        // failed party.
        assert!(
            failure.partial.guest.events.checkpoints_written >= 2,
            "[{name}] guest wrote {} checkpoints before the crash",
            failure.partial.guest.events.checkpoints_written
        );
        assert_eq!(failure.partial.hosts[0].events.checkpoints_written, 2, "[{name}]");
        assert!(dir.join("host0.flight.json").is_file(), "[{name}] no host flight record");

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
    let data = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None);
    let cfg = TrainConfig { crypto: CryptoConfig::Mock, ..TrainConfig::for_tests() };
    let dir = temp_dir("sid_mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let sess = PartySession::host(&SessionConfig::new(7, &dir), &cfg, 0);
    let suite = Suite::plain(EncodingConfig::default());
    let handle = std::thread::spawn(move || {
        run_host(0, &data, cfg, suite, host_ep, Some(sess), ChaosPlan::default())
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
