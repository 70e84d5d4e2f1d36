//! Observability tests: the structured run report, the failure-time
//! flight recorder, and the worker-panic recovery path.
//!
//! Three invariants:
//!
//! * A panic inside a scoped histogram worker surfaces as a typed
//!   `TrainError::PartyPanicked` — with the partial telemetry of every
//!   joinable party — never as a process abort.
//! * A failing sessioned run leaves a parseable flight record (last trace
//!   events + config digest + session id) in the session directory.
//! * Tracing is observational only: spans on or off, caps big or tiny,
//!   the trained model is bitwise identical.

mod support;

use std::time::Duration;

use support::{assert_bitwise, margins, scenario, temp_dir};
use vf2boost::channel::{FaultConfig, WanConfig};
use vf2boost::core::config::CryptoConfig;
use vf2boost::core::error::{PartyId, TrainError};
use vf2boost::core::json::{parse, Json};
use vf2boost::core::telemetry::{PartyTelemetry, PhaseTimes, RUN_REPORT_SCHEMA};
use vf2boost::core::trace::{TraceEventKind, TracePhase, FLIGHT_RECORD_SCHEMA};
use vf2boost::core::{
    train_federated, train_federated_session, ChaosPlan, SessionConfig, TrainConfig,
};
use vf2boost::gbdt::train::GbdtParams;

fn mock_cfg() -> TrainConfig {
    TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        wan: WanConfig::instant(),
        ..TrainConfig::for_tests()
    }
}

#[test]
fn hist_worker_panic_is_a_typed_error_with_partial_telemetry() {
    let s = scenario(91);
    let cfg = TrainConfig { workers: 4, ..mock_cfg() };
    let kill = ChaosPlan { crash_hist_worker_on_tree: Some(0), ..ChaosPlan::default() };
    let failure = train_federated_session(&s.hosts, &s.guest, &cfg, None, &kill)
        .expect_err("an injected worker panic must abort the run");
    match &failure.error {
        TrainError::PartyPanicked { party: PartyId::Host(0), detail } => {
            assert!(
                detail.contains("histogram worker shard 0"),
                "panic attribution missing the shard: {detail}"
            );
            assert!(detail.contains("injected crash"), "payload text lost: {detail}");
        }
        other => panic!("expected PartyPanicked from host-0, got {other}"),
    }
    // The failure still carries every joinable party's telemetry: the
    // guest got far enough to send gradients before the host died.
    assert_eq!(failure.partial.hosts.len(), 1);
    assert!(failure.partial.guest.bytes_sent > 0, "guest telemetry missing");
}

#[test]
fn peer_loss_leaves_a_parseable_flight_record() {
    let s = scenario(92);
    let dir = temp_dir("flight");
    std::fs::create_dir_all(&dir).unwrap();
    // The host→guest direction blackholes early; the guest's liveness
    // supervisor declares the peer dead and dumps its flight record.
    let cfg = TrainConfig {
        peer_timeout: Duration::from_secs(30),
        peer_dead_after: Duration::from_millis(1500),
        ..mock_cfg()
    };
    let blackhole = ChaosPlan {
        fault_host_to_guest: FaultConfig {
            disconnect_after_frames: Some(6),
            ..FaultConfig::none()
        },
        ..ChaosPlan::default()
    };
    let session = SessionConfig::new(0xF11C, &dir);
    let failure = train_federated_session(&s.hosts, &s.guest, &cfg, Some(&session), &blackhole)
        .expect_err("a dead peer must abort the run");
    assert!(
        matches!(failure.error, TrainError::PeerLost { .. }),
        "expected PeerLost, got {}",
        failure.error
    );

    let raw = std::fs::read_to_string(dir.join("guest.flight.json"))
        .expect("the guest must dump a flight record next to its checkpoints");
    let doc = parse(&raw).expect("flight record must be valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(FLIGHT_RECORD_SCHEMA));
    assert_eq!(doc.get("party").and_then(Json::as_str), Some("guest"));
    assert_eq!(doc.get("session_id").and_then(Json::as_f64), Some(0xF11C as f64));
    let error = doc.get("error").and_then(Json::as_str).expect("error field");
    assert!(error.contains("lost"), "error text: {error}");
    let digest = doc.get("config_digest").and_then(Json::as_str).expect("digest field");
    assert_eq!(digest.len(), 16, "digest must be 16 hex chars: {digest}");
    // The last trace events made it into the dump; the run got past
    // hello, so the ring cannot be empty.
    let events = doc.get("events").and_then(Json::as_arr).expect("events array");
    assert!(!events.is_empty(), "flight record carries no trace events");
    for ev in events {
        assert!(ev.get("at_s").and_then(Json::as_f64).is_some(), "event missing at_s");
        assert!(ev.get("kind").and_then(Json::as_str).is_some(), "event missing kind");
    }
    // The embedded telemetry snapshot parses as part of the same doc.
    let tel = doc.get("telemetry").expect("telemetry object");
    assert!(tel.get("phases").is_some() && tel.get("events").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_never_changes_the_model() {
    let s = scenario(93);
    let traced = mock_cfg();
    let untraced = TrainConfig { trace_spans: false, trace_events_cap: 4, ..traced };
    let a = train_federated(&s.hosts, &s.guest, &traced).expect("traced run succeeds");
    let b = train_federated(&s.hosts, &s.guest, &untraced).expect("untraced run succeeds");
    assert_bitwise("traced vs untraced", &margins(&a, &s), &margins(&b, &s));
    // The traced run actually recorded spans; the untraced one recorded
    // none (its tiny ring would have overflowed otherwise).
    assert!(!a.report.guest.trace.is_empty(), "traced run recorded nothing");
    assert!(!b.report.guest.trace.spans_enabled());
}

const PHASES: [TracePhase; 6] = [
    TracePhase::Encrypt,
    TracePhase::Hadd,
    TracePhase::PlainHist,
    TracePhase::Pack,
    TracePhase::DecryptSplit,
    TracePhase::Placement,
];

/// The phase total a span of `phase` must have been billed to, written
/// out independently of `PhaseTimes::slot` so the test also pins which
/// field a phase feeds.
fn phase_total(p: &PhaseTimes, phase: TracePhase) -> Duration {
    match phase {
        TracePhase::Encrypt => p.encrypt,
        TracePhase::Hadd => p.build_hist_enc,
        TracePhase::PlainHist => p.build_hist_plain,
        TracePhase::Pack => p.pack,
        TracePhase::DecryptSplit => p.decrypt_find,
        TracePhase::Placement => p.split_nodes,
    }
}

/// Sums `Exit.at − Enter.at` per phase over a party's ring, asserting on
/// the way that the ring is whole, timestamps never go back, and no span
/// opens while another is open.
fn span_sums(party: &PartyTelemetry) -> [Duration; 6] {
    let name = &party.name;
    assert_eq!(party.trace.dropped(), 0, "{name}: the ring must hold the whole run");
    let mut sums = [Duration::ZERO; 6];
    let mut open: Option<(TracePhase, Duration)> = None;
    let mut last = Duration::ZERO;
    for ev in party.trace.events() {
        assert!(ev.at >= last, "{name}: trace time went backwards at {ev:?}");
        last = ev.at;
        match ev.kind {
            TraceEventKind::Enter(phase) => {
                assert!(open.is_none(), "{name}: {phase:?} opened inside {open:?}");
                open = Some((phase, ev.at));
            }
            TraceEventKind::Exit(phase) => {
                let (opened, at) = open.take().expect("an exit closes an open span");
                assert_eq!(opened, phase, "{name}: exit does not match the open span");
                let slot = PHASES.iter().position(|p| *p == phase).expect("a listed phase");
                sums[slot] += ev.at - at;
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "{name}: a span was left open: {open:?}");
    sums
}

#[test]
fn run_report_json_is_wellformed_and_phase_sums_bound_wall_time() {
    let s = scenario(94);
    for workers in [1, 2] {
        let cfg = TrainConfig { workers, trace_events_cap: 1 << 16, ..mock_cfg() };
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let doc = parse(&out.report.to_json()).expect("run report must be valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(RUN_REPORT_SCHEMA));
        let wall = doc.get("wall_time_s").and_then(Json::as_f64).expect("wall_time_s");
        assert!(wall > 0.0);
        let parties = doc.get("parties").and_then(Json::as_arr).expect("parties array");
        assert_eq!(parties.len(), 2, "guest + one host");
        for p in parties {
            let phases = p.get("phases").expect("phases object");
            let busy = phases.get("busy_s").and_then(Json::as_f64).expect("busy_s");
            let sum: f64 = [
                "encrypt_s",
                "build_hist_enc_s",
                "build_hist_plain_s",
                "pack_s",
                "decrypt_find_s",
                "split_nodes_s",
            ]
            .iter()
            .map(|k| phases.get(k).and_then(Json::as_f64).expect("phase field"))
            .sum();
            // busy is defined as the phase sum (each field rounds to 6
            // decimals independently, hence the slack), and no party can be
            // busy longer than the run took end to end (a host may still be
            // applying its last placement when the guest returns, hence the
            // 50 ms).
            assert!((busy - sum).abs() < 1e-5, "busy_s {busy} != phase sum {sum}");
            assert!(busy <= wall + 0.05, "party busy {busy}s exceeds wall {wall}s");
            assert!(p.get("ops").is_some() && p.get("events").is_some());
            let trace = p.get("trace").expect("trace summary");
            assert!(trace.get("cap").and_then(Json::as_f64).is_some());
        }
        assert!(doc.get("trees").and_then(Json::as_arr).map(<[Json]>::len) == Some(2));

        // One clock: what a party's ring shows for a phase is, to the
        // nanosecond, what its phase total says.
        let report = &out.report;
        for party in std::iter::once(&report.guest).chain(&report.hosts) {
            let sums = span_sums(party);
            for (phase, sum) in PHASES.into_iter().zip(sums) {
                assert_eq!(
                    sum,
                    phase_total(&party.phases, phase),
                    "{} at workers = {workers}: {phase:?} spans vs phase total",
                    party.name
                );
            }
        }
        // The guest's spans and its waits partition (part of) its own
        // lifetime: nothing is billed twice.
        let guest = &report.guest.phases;
        assert!(
            guest.busy() + guest.idle <= report.wall_time,
            "guest busy {:?} + idle {:?} exceeds wall {:?}",
            guest.busy(),
            guest.idle,
            report.wall_time
        );
    }
}
