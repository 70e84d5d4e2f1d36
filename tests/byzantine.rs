//! Byzantine conformance harness: a scripted misbehaving peer on one end
//! of a real link, a production party on the other.
//!
//! Every deviation — replay, phase skip, future-tree traffic, inadmissible
//! payloads, lying stream flags, truncated frames — must surface as a
//! *typed* [`TrainError`] carrying partial telemetry: never a panic, never
//! a hang, never a silently wrong model. A clean wire must stay bitwise
//! identical no matter how large the misbehavior budget is.

use std::time::Duration;

use vf2boost::channel::{duplex, Endpoint, WanConfig};
use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::error::{GuestFailure, PartyId, ProtocolError, TrainError};
use vf2boost::core::guest::run_guest;
use vf2boost::core::host::run_host;
use vf2boost::core::json;
use vf2boost::core::messages::{
    FeatureMeta, GhPackedFeatureHist, HistPayload, Msg, RawFeatureHist,
};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::rows::RowMajorBins;
use vf2boost::core::session::PartySession;
use vf2boost::core::telemetry::{party_to_json, PartyTelemetry};
use vf2boost::core::trace::write_flight_record;
use vf2boost::core::{encode_model, train_federated, wire, ChaosPlan, SessionConfig};
use vf2boost::crypto::paillier::RawCipher;
use vf2boost::crypto::suite::{Ciphertext, PackedCiphertext, PlainNumber, Suite};
use vf2boost::crypto::{CryptoError, EncryptedNumber, GhPlan, PackingPlan};
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::split_vertical;
use vf2boost::gbdt::binning::BinnedDataset;
use vf2boost::gbdt::data::{Dataset, FeatureColumn};
use vf2boost::gbdt::histogram::GradPair;
use vf2boost::gbdt::train::GbdtParams;

#[path = "support/malfeasant.rs"]
mod malfeasant;
use malfeasant::{MalfeasantPeer, Misdeed};

const DRAIN: Duration = Duration::from_secs(10);

/// Mock-suite config shared by every scripted scenario.
fn byz_cfg(budget: u32) -> TrainConfig {
    TrainConfig {
        crypto: CryptoConfig::Mock,
        misbehavior_budget: budget,
        ..TrainConfig::for_tests()
    }
}

/// A cipher the admission layer accepts under `byz_cfg` (`for_tests`
/// encodes at base_exp 8, jitter 4 ⇒ exponents 8..=11 are honest).
fn honest_cipher(v: f64) -> Ciphertext {
    Ciphertext::Plain(PlainNumber { value: v, exponent: 8 })
}

fn grad_batch(tree: u32, start_row: u32, rows: usize, last: bool, exponent: i32) -> Msg {
    let c = Ciphertext::Plain(PlainNumber { value: 0.25, exponent });
    Msg::GradBatch { tree, start_row, g: vec![c.clone(); rows], h: vec![c; rows], last }
}

type HostHandle =
    std::thread::JoinHandle<Result<PartyTelemetry, vf2boost::core::error::HostFailure>>;

/// Spawns a production host over a real instant link; the test plays the
/// (possibly byzantine) guest on the other end. The host owns one dense
/// feature over 4 rows.
fn spawn_host(cfg: TrainConfig) -> (Endpoint, HostHandle) {
    let data = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None);
    spawn_host_on(cfg, data, Suite::plain(cfg.encoding))
}

/// [`spawn_host`] over the caller's own columns and cipher suite.
fn spawn_host_on(cfg: TrainConfig, data: Dataset, suite: Suite) -> (Endpoint, HostHandle) {
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let handle = std::thread::spawn(move || {
        run_host(0, &data, cfg, suite, host_ep, None, ChaosPlan::default())
            .map(|(telemetry, _)| telemetry)
    });
    (guest_ep, handle)
}

/// Consumes the host's `SessionHello` + `FeatureMeta` greetings.
fn eat_greetings(guest_ep: &Endpoint) {
    for _ in 0..2 {
        let env = guest_ep.recv_timeout(DRAIN).expect("host greeting");
        let msg = wire::decode(env.kind, env.payload).expect("greeting decodes");
        assert!(matches!(msg, Msg::SessionHello { .. } | Msg::FeatureMeta(_)));
    }
}

fn send(ep: &Endpoint, msg: &Msg) {
    ep.send(msg.kind(), wire::encode(msg).unwrap());
}

#[test]
fn host_fails_fast_on_phase_skip_before_resume() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    eat_greetings(&guest_ep);
    // A node task while the host still awaits the resume decision.
    send(&guest_ep, &Msg::NodeTask { tree: 0, node: 0, epoch: 1 });
    let failure = handle.join().unwrap().expect_err("phase skip must abort the host");
    match failure.error {
        TrainError::PeerMisbehaving { party, violations, budget, last } => {
            assert_eq!(party, PartyId::Guest);
            assert_eq!((violations, budget), (1, 0));
            assert!(matches!(*last, ProtocolError::OutOfPhase { kind: 3, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
    // Partial telemetry still reports the deviation.
    assert_eq!(failure.telemetry.events.misbehavior, 1);
}

#[test]
fn host_detects_replayed_gradient_batch() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    let mut evil = MalfeasantPeer::new(guest_ep);
    eat_greetings(evil.endpoint());
    // Send index 1 (the first gradient batch) is replayed verbatim; the
    // transport re-sequences it, so only the protocol FSM can object.
    evil.script(1, Misdeed::ReplayEarlier(1));
    let resume = Msg::Resume { session_id: 0, tree_count: 0 };
    evil.send(resume.kind(), wire::encode(&resume).unwrap());
    let batch = grad_batch(0, 0, 2, false, 8);
    evil.send(batch.kind(), wire::encode(&batch).unwrap());
    let failure = handle.join().unwrap().expect_err("replay must abort the host");
    match failure.error {
        TrainError::PeerMisbehaving { last, .. } => {
            assert!(matches!(*last, ProtocolError::StaleOrReplayed { kind: 2, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn host_rejects_future_tree_gradients() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    eat_greetings(&guest_ep);
    send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
    send(&guest_ep, &grad_batch(1, 0, 4, false, 8));
    let failure = handle.join().unwrap().expect_err("future tree must abort the host");
    match failure.error {
        TrainError::PeerMisbehaving { last, .. } => {
            assert!(matches!(*last, ProtocolError::OutOfPhase { kind: 2, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn host_rejects_out_of_window_cipher_exponent() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    eat_greetings(&guest_ep);
    send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
    // Exponent 99 is outside the negotiated jitter window [8, 11]: the
    // payload is structurally fine but semantically inadmissible.
    send(&guest_ep, &grad_batch(0, 0, 4, true, 99));
    let failure = handle.join().unwrap().expect_err("bad exponent must abort the host");
    match failure.error {
        TrainError::PeerMisbehaving { last, .. } => {
            assert!(matches!(*last, ProtocolError::Inadmissible { kind: 2, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn host_rejects_gradient_rows_past_instance_count() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    eat_greetings(&guest_ep);
    send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
    // 6 rows declared against a 4-row dataset: caught before any buffer
    // is sized from peer-controlled counts.
    send(&guest_ep, &grad_batch(0, 0, 6, true, 8));
    let failure = handle.join().unwrap().expect_err("row overflow must abort the host");
    match failure.error {
        TrainError::PeerMisbehaving { last, .. } => {
            assert!(matches!(*last, ProtocolError::Inadmissible { kind: 2, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn host_rejects_lying_last_flag_with_uncovered_rows() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    eat_greetings(&guest_ep);
    send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
    // `last: true` after covering only 2 of 4 rows.
    send(&guest_ep, &grad_batch(0, 0, 2, true, 8));
    let failure = handle.join().unwrap().expect_err("lying last flag must abort the host");
    assert!(
        matches!(
            failure.error,
            TrainError::Protocol(ProtocolError::IncompleteGradients { expected: 4, got: 2 })
        ),
        "{}",
        failure.error
    );
}

#[test]
fn truncated_frame_surfaces_as_malformed_not_a_panic() {
    let (guest_ep, handle) = spawn_host(byz_cfg(0));
    let mut evil = MalfeasantPeer::new(guest_ep);
    eat_greetings(evil.endpoint());
    // The resume frame arrives transport-valid but chopped to one byte.
    evil.script(0, Misdeed::Truncate(1));
    let resume = Msg::Resume { session_id: 0, tree_count: 0 };
    evil.send(resume.kind(), wire::encode(&resume).unwrap());
    let failure = handle.join().unwrap().expect_err("truncated frame must abort the host");
    assert!(
        matches!(
            failure.error,
            TrainError::Protocol(ProtocolError::Malformed { from: PartyId::Guest, .. })
        ),
        "{}",
        failure.error
    );
}

/// Kind 8 was the leaf notice no party read, 13 the liveness beacon, 15 /
/// 16 the mid-run rewind and its ack. They are retired, not reused: a frame
/// carrying one is malformed like one of any unknown kind — whatever the
/// budget, since an undecodable frame cannot be dropped and resumed past.
#[test]
fn a_retired_beacon_frame_is_malformed_like_any_unknown_kind() {
    // What a leaf notice carried: a tree and a node. What a beacon
    // carried: one little-endian u64. What a rewind (or its ack) carried:
    // a session id and a tree count.
    let leaf = [1u32.to_le_bytes(), 12u32.to_le_bytes()].concat();
    let beacon = 41u64.to_le_bytes().to_vec();
    let rewind = [0x5e55u64.to_le_bytes().as_slice(), &2u32.to_le_bytes()].concat();
    let kinds = [(8u16, &leaf), (13, &beacon), (15, &rewind), (16, &rewind), (99, &beacon)];
    for (kind, payload) in kinds {
        let (guest_ep, handle) = spawn_host(byz_cfg(3));
        eat_greetings(&guest_ep);
        guest_ep.send(kind, payload.clone().into());
        let failure = handle.join().unwrap().expect_err("an unknown kind must abort the host");
        match failure.error {
            TrainError::Protocol(ProtocolError::Malformed { from, error }) => {
                assert_eq!(from, PartyId::Guest);
                assert_eq!(error, wire::WireError::BadTag("message kind", kind as u64));
            }
            other => panic!("kind {kind}: wrong error: {other}"),
        }
    }
}

/// A gradient batch refused for a bad cipher moves nothing: under budget 1
/// the host drops it with its row cursor where it was — the honest re-send
/// of the same rows is admitted, not a replay — and ends with the answers
/// and the split table of the honest run at budget 0.
#[test]
fn a_batch_refused_for_a_bad_cipher_leaves_the_row_cursor_unmoved() {
    let run = |budget: u32, refused: bool| {
        let cfg = byz_cfg(budget);
        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let data = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None);
        let suite = Suite::plain(cfg.encoding);
        let handle = std::thread::spawn(move || {
            run_host(0, &data, cfg, suite, host_ep, None, ChaosPlan::default())
        });
        eat_greetings(&guest_ep);
        send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
        if refused {
            // Exponent 99 lies outside the jitter window [8, 11].
            send(&guest_ep, &grad_batch(0, 0, 2, false, 99));
        }
        send(&guest_ep, &grad_batch(0, 0, 2, false, 8));
        send(&guest_ep, &grad_batch(0, 2, 2, true, 8));
        send(&guest_ep, &Msg::HostSplitChosen { tree: 0, node: 0, feature: 0, bin: 1 });
        let answers: Vec<_> = (0..2)
            .map(|_| guest_ep.recv_timeout(DRAIN).expect("the root, then the placement"))
            .map(|env| (env.kind, env.payload))
            .collect();
        send(&guest_ep, &Msg::TreeDone { tree: 0 });
        send(&guest_ep, &Msg::Shutdown);
        let (telemetry, splits) = handle.join().unwrap().expect("the run stays up");
        (answers, splits, telemetry.events.misbehavior)
    };
    let (honest, honest_splits, none) = run(0, false);
    let (answers, splits, charged) = run(1, true);
    assert_eq!((none, charged), (0, 1));
    assert_eq!(answers, honest);
    assert_eq!(splits, honest_splits);
    assert_eq!(splits.splits.len(), 1);
}

#[test]
fn budget_tolerates_violations_and_reports_them() {
    let (guest_ep, handle) = spawn_host(byz_cfg(2));
    eat_greetings(&guest_ep);
    // Two phase-skips, both within budget: dropped and counted.
    send(&guest_ep, &Msg::NodeTask { tree: 0, node: 0, epoch: 1 });
    send(&guest_ep, &Msg::NodeTask { tree: 0, node: 0, epoch: 1 });
    // Then an entirely honest (empty) session.
    send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
    send(&guest_ep, &Msg::Shutdown);
    let telemetry = handle.join().unwrap().expect("run stays up within budget");
    assert_eq!(telemetry.events.misbehavior, 2);
    // The counters reach the run-report JSON.
    let doc = json::parse(&party_to_json(&telemetry, 0)).expect("telemetry JSON parses");
    let events = doc.get("events").expect("events object");
    assert_eq!(events.get("misbehavior").and_then(json::Json::as_f64), Some(2.0));
    assert!(events.get("stale_msgs_dropped").is_some());
}

#[test]
fn budget_exceeded_reports_total_violations() {
    let (guest_ep, handle) = spawn_host(byz_cfg(1));
    eat_greetings(&guest_ep);
    for _ in 0..2 {
        send(&guest_ep, &Msg::NodeTask { tree: 0, node: 0, epoch: 1 });
    }
    let failure = handle.join().unwrap().expect_err("second violation exceeds budget 1");
    match failure.error {
        TrainError::PeerMisbehaving { violations, budget, .. } => {
            assert_eq!((violations, budget), (2, 1));
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(failure.telemetry.events.misbehavior, 2);
}

/// An honest re-split, at the host in isolation: after an optimistic
/// rollback the guest replaces a node's placement and tasks the host with
/// the new smaller child — one task per placement, as the guest issues
/// them. The host's second answer must describe the *new* row list bin for
/// bin: it builds every node it is asked for from that node's current rows
/// and keeps nothing from the first answer that could leak into it. Mock
/// and real Paillier.
#[test]
fn host_answers_a_resplit_from_the_new_row_lists() {
    let rows = 24usize;
    let column = |mul: usize, modulus: usize| {
        FeatureColumn::Dense((0..rows).map(|i| ((i * mul) % modulus) as f32).collect())
    };
    let data = Dataset::new(rows, vec![column(7, 24), column(5, 11)], None);
    let cfg = TrainConfig {
        protocol: ProtocolConfig { pack_histograms: false, ..ProtocolConfig::vf2boost() },
        ..byz_cfg(0)
    };
    let csr = RowMajorBins::from_binned(&BinnedDataset::bin(&data, &cfg.gbdt.binning));
    // Multiples of 1/16: exact in f64 sums and in the base-16 encoding.
    let grads: Vec<GradPair> = (0..rows)
        .map(|i| GradPair { g: (i as f64 - 11.0) / 16.0, h: (1 + i % 3) as f64 / 16.0 })
        .collect();
    let paillier = Suite::paillier_seeded(256, 7, cfg.encoding).unwrap();
    for guest_suite in [Suite::plain(cfg.encoding), paillier] {
        let (guest_ep, handle) = spawn_host_on(cfg, data.clone(), guest_suite.public_half());
        eat_greetings(&guest_ep);
        send(&guest_ep, &Msg::Resume { session_id: 0, tree_count: 0 });
        let stream = |pick: fn(&GradPair) -> f64, seed: u64| {
            guest_suite.encrypt_batch(&grads.iter().map(pick).collect::<Vec<_>>(), seed).unwrap()
        };
        let (g, h) = (stream(|p| p.g, 100), stream(|p| p.h, 200));
        send(&guest_ep, &Msg::GradBatch { tree: 0, start_row: 0, g, h, last: true });
        // The next answer must be `node`'s histogram at `epoch`, equal bin
        // for bin to the plaintext histogram of `node_rows`.
        let expect_answer = |node: u32, epoch: u32, node_rows: &[u32]| {
            let env = guest_ep.recv_timeout(DRAIN).expect("histogram answer");
            let msg = wire::decode(env.kind, env.payload).expect("answer decodes");
            let Msg::NodeHistograms { node: n, epoch: e, payload: HistPayload::Raw(feats), .. } =
                msg
            else {
                panic!("expected raw node histograms, got kind {}", msg.kind());
            };
            assert_eq!((n, e), (node, epoch));
            let plain = csr.node_histograms(node_rows, &grads);
            assert_eq!(feats.len(), plain.len());
            for (f, (enc, hist)) in feats.iter().zip(&plain).enumerate() {
                assert_eq!(enc.g.len(), hist.bins.len(), "node {node} feature {f}");
                for (b, want) in hist.bins.iter().enumerate() {
                    let got_g = guest_suite.decrypt(&enc.g[b]).unwrap();
                    let got_h = guest_suite.decrypt(&enc.h[b]).unwrap();
                    assert!(
                        (got_g - want.g).abs() < 1e-9 && (got_h - want.h).abs() < 1e-9,
                        "node {node} epoch {epoch} feature {f} bin {b}: \
                         ({got_g}, {got_h}) vs ({}, {})",
                        want.g,
                        want.h
                    );
                }
            }
        };
        let all: Vec<u32> = (0..rows as u32).collect();
        expect_answer(0, 1, &all);
        // First the left child is the smaller one (8 of 24), then — a
        // different bitmap, not a prefix of the first — the right one (9).
        let first: Vec<bool> = (0..rows).map(|i| i < 8).collect();
        let second: Vec<bool> = (0..rows).map(|i| i % 8 >= 3).collect();
        for (epoch, smaller, placement) in [(1, 1, first), (2, 2, second)] {
            let side: Vec<u32> =
                all.iter().copied().filter(|&r| placement[r as usize] == (smaller == 1)).collect();
            assert!(2 * side.len() < rows, "node {smaller} is the smaller child");
            send(
                &guest_ep,
                &Msg::ApplyPlacement { tree: 0, node: 0, speculative: false, placement },
            );
            send(&guest_ep, &Msg::NodeTask { tree: 0, node: smaller, epoch });
            expect_answer(smaller, epoch, &side);
        }
        send(&guest_ep, &Msg::TreeDone { tree: 0 });
        send(&guest_ep, &Msg::Shutdown);
        let telemetry = handle.join().unwrap().expect("an honest script ends the host cleanly");
        // One answer per task and nothing at all behind them, built without
        // a negation.
        let stray = guest_ep.recv_timeout(Duration::ZERO).map(|env| env.kind);
        assert!(stray.is_err(), "unasked frame of kind {stray:?}");
        assert_eq!(telemetry.ops.negs, 0);
        assert_eq!(telemetry.events.misbehavior, 0);
    }
}

/// A labelled dataset for driving `run_guest` against a scripted host.
fn guest_data() -> Dataset {
    generate_classification(&SyntheticConfig {
        rows: 48,
        features: 3,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 77,
    })
}

fn spawn_guest(cfg: TrainConfig) -> (Endpoint, std::thread::JoinHandle<Option<GuestFailure>>) {
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let data = guest_data();
    let suite = Suite::plain(cfg.encoding);
    let handle =
        std::thread::spawn(move || run_guest(&data, cfg, suite, vec![guest_ep], None).err());
    (host_ep, handle)
}

/// Pulls frames off the guest→host direction until the guest hangs up,
/// handing each decoded message to `react`.
fn drain_guest(host_ep: &Endpoint, mut react: impl FnMut(Msg)) {
    while let Ok(env) = host_ep.recv_timeout(DRAIN) {
        if let Ok(msg) = wire::decode(env.kind, env.payload) {
            react(msg);
        }
    }
}

/// A configuration `train_federated` refuses is refused by each party's
/// own entry point too, as a typed error before any link traffic — not a
/// guest that panics building a zero-layer tree while its host waits.
#[test]
fn scripted_parties_refuse_an_invalid_config() {
    let cfg = byz_cfg(0);
    let cfg = TrainConfig { gbdt: GbdtParams { max_layers: 0, ..cfg.gbdt }, ..cfg };
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let guest = run_guest(&guest_data(), cfg, Suite::plain(cfg.encoding), vec![guest_ep], None);
    assert!(matches!(guest.err().map(|f| f.error), Some(TrainError::InvalidConfig(_))));
    let data = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None);
    let suite = Suite::plain(cfg.encoding);
    let host = run_host(0, &data, cfg, suite, host_ep, None, ChaosPlan::default());
    assert!(matches!(host.err().map(|f| f.error), Some(TrainError::InvalidConfig(_))));
}

#[test]
fn guest_rejects_wrong_kind_during_handshake() {
    let (host_ep, handle) = spawn_guest(byz_cfg(0));
    // Feature metadata before the session hello: a handshake-order skip.
    send(&host_ep, &Msg::FeatureMeta(vec![FeatureMeta { num_bins: 8, zero_bin: 0 }]));
    drain_guest(&host_ep, |_| {});
    let failure = handle.join().unwrap().expect("handshake skip must abort the guest");
    match failure.error {
        TrainError::PeerMisbehaving { party, last, .. } => {
            assert_eq!(party, PartyId::Host(0));
            assert!(matches!(*last, ProtocolError::OutOfPhase { kind: 1, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(failure.telemetry.events.misbehavior, 1);
}

#[test]
fn guest_rejects_unsolicited_placement() {
    let (host_ep, handle) = spawn_guest(byz_cfg(0));
    send(&host_ep, &Msg::SessionHello { session_id: 0, durable: vec![] });
    send(&host_ep, &Msg::FeatureMeta(vec![FeatureMeta { num_bins: 8, zero_bin: 0 }]));
    // A placement that answers no outstanding split choice.
    send(&host_ep, &Msg::Placement { tree: 0, node: 0, placement: vec![true, false] });
    drain_guest(&host_ep, |_| {});
    let failure = handle.join().unwrap().expect("unsolicited placement must abort the guest");
    match failure.error {
        TrainError::PeerMisbehaving { party, last, .. } => {
            assert_eq!(party, PartyId::Host(0));
            assert!(matches!(*last, ProtocolError::StaleOrReplayed { kind: 7, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn guest_rejects_wrong_length_histograms() {
    let (host_ep, handle) = spawn_guest(byz_cfg(0));
    send(&host_ep, &Msg::SessionHello { session_id: 0, durable: vec![] });
    // Two features negotiated...
    send(&host_ep, &Msg::FeatureMeta(vec![FeatureMeta { num_bins: 8, zero_bin: 0 }; 2]));
    // ...but the histogram reply to the first task carries only one.
    let mut replied = false;
    drain_guest(&host_ep, |msg| {
        if let Msg::NodeTask { tree, node, epoch } = msg {
            if !replied {
                replied = true;
                let short = RawFeatureHist {
                    g: vec![honest_cipher(0.0); 8],
                    h: vec![honest_cipher(0.0); 8],
                };
                send(
                    &host_ep,
                    &Msg::NodeHistograms {
                        tree,
                        node,
                        epoch,
                        payload: HistPayload::Raw(vec![short]),
                    },
                );
            }
        }
    });
    assert!(replied, "the guest never issued a node task");
    let failure = handle.join().unwrap().expect("wrong-length histograms must abort the guest");
    match failure.error {
        TrainError::PeerMisbehaving { party, last, .. } => {
            assert_eq!(party, PartyId::Host(0));
            assert!(matches!(*last, ProtocolError::Inadmissible { kind: 4, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
}

/// A host that announces no feature at all still ends its handshake, and
/// its histograms are admitted like any other host's: the key's checks of
/// every cipher, then the shape. A NaN at an exponent past the window is
/// charged to the budget — not a fatal shape error that skipped both.
#[test]
fn a_host_without_features_has_its_histograms_checked_like_any_other() {
    let (host_ep, handle) = spawn_guest(byz_cfg(0));
    send(&host_ep, &Msg::SessionHello { session_id: 0, durable: vec![] });
    send(&host_ep, &Msg::FeatureMeta(vec![]));
    let mut replied = false;
    drain_guest(&host_ep, |msg| {
        if let Msg::NodeTask { tree, node, epoch } = msg {
            if !replied {
                replied = true;
                let nan = Ciphertext::Plain(PlainNumber { value: f64::NAN, exponent: 99 });
                let raw = RawFeatureHist { g: vec![nan.clone()], h: vec![nan] };
                let payload = HistPayload::Raw(vec![raw]);
                send(&host_ep, &Msg::NodeHistograms { tree, node, epoch, payload });
            }
        }
    });
    assert!(replied, "the guest never issued a node task");
    let failure = handle.join().unwrap().expect("a forged histogram must abort the guest");
    match failure.error {
        TrainError::PeerMisbehaving { party, violations, last, .. } => {
            assert_eq!((party, violations), (PartyId::Host(0), 1));
            assert!(matches!(*last, ProtocolError::Inadmissible { kind: 4, .. }), "{last}");
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(failure.telemetry.events.misbehavior, 1);
}

/// Runs a production guest at budget 1 against a scripted host that owns
/// one 2-bin feature with no stored entry, so every honest histogram is
/// all empty bins. The host answers every node task honestly; for the
/// first one it sends `refused` first. Returns the guest's margins and its
/// misbehavior count.
fn guest_against_an_empty_feature(refused: Option<HistPayload>) -> (Vec<f64>, u64) {
    let cfg = byz_cfg(1);
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let suite = Suite::plain(cfg.encoding);
    let handle = std::thread::spawn(move || {
        run_guest(&guest_data(), cfg, suite, vec![guest_ep], None)
            .unwrap_or_else(|failure| panic!("the guest failed: {}", failure.error))
    });
    send(&host_ep, &Msg::SessionHello { session_id: 0, durable: vec![] });
    send(&host_ep, &Msg::FeatureMeta(vec![FeatureMeta { num_bins: 2, zero_bin: 0 }]));
    let mut refused = refused;
    drain_guest(&host_ep, |msg| {
        if let Msg::NodeTask { tree, node, epoch } = msg {
            if let Some(payload) = refused.take() {
                send(&host_ep, &Msg::NodeHistograms { tree, node, epoch, payload });
            }
            let empty =
                RawFeatureHist { g: vec![honest_cipher(0.0); 2], h: vec![honest_cipher(0.0); 2] };
            let payload = HistPayload::Raw(vec![empty]);
            send(&host_ep, &Msg::NodeHistograms { tree, node, epoch, payload });
        }
    });
    let output = handle.join().unwrap();
    (output.train_margins, output.telemetry.events.misbehavior)
}

/// A histogram refused for its shape takes no entry in the tree's ledger:
/// the honest answer to the same `(node, epoch)` after it is admitted, not
/// charged as a replay, and the run trains the clean run's margins bit for
/// bit.
#[test]
fn a_refused_answer_changes_nothing_at_the_guest() {
    let (clean, none) = guest_against_an_empty_feature(None);
    assert_eq!(none, 0);
    let three_bins =
        RawFeatureHist { g: vec![honest_cipher(0.0); 3], h: vec![honest_cipher(0.0); 3] };
    let (margins, charged) =
        guest_against_an_empty_feature(Some(HistPayload::Raw(vec![three_bins])));
    assert_eq!(charged, 1, "the misshapen answer is charged once, the honest one not at all");
    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&margins), bits(&clean));
}

/// A restarted run's handshake names the session it resumes: a host that
/// announces some *other* session is refused as a typed `ResumeMismatch`
/// before any gradient leaves the guest (the wrong-kind arm is
/// `guest_rejects_wrong_kind_during_handshake`).
#[test]
fn guest_rejects_a_bad_rejoin_handshake_with_a_typed_error() {
    const SID: u64 = 0x5e55;
    let cfg = byz_cfg(0);
    let dir = std::env::temp_dir().join(format!("vf2boost-byz-foreign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let session = PartySession::guest(&SessionConfig::new(SID, &dir).resuming(), &cfg);
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let suite = Suite::plain(cfg.encoding);
    let handle = std::thread::spawn(move || {
        run_guest(&guest_data(), cfg, suite, vec![guest_ep], Some(session)).err()
    });
    send(&host_ep, &Msg::SessionHello { session_id: SID + 1, durable: vec![] });
    send(&host_ep, &Msg::FeatureMeta(vec![FeatureMeta { num_bins: 8, zero_bin: 0 }]));
    let mut sent = Vec::new();
    drain_guest(&host_ep, |msg| sent.push(msg.kind()));
    let failure = handle.join().unwrap().expect("a foreign session must fail the guest");
    assert!(
        matches!(failure.error, TrainError::ResumeMismatch { party: PartyId::Host(0), .. }),
        "{}",
        failure.error
    );
    assert!(sent.is_empty(), "the guest sent kinds {sent:?} to a foreign session");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drives a production guest on the paired path (Paillier, histogram
/// packing on) against a scripted host that owns one 4-bin feature. For
/// the guest's `nth` node task, naming `node`, the host sends what `answer`
/// builds from its public suite and the pair plan both sides derive: a
/// histogram for the node it returns, or nothing.
fn paired_guest_against(
    answer: impl Fn(&Suite, &GhPlan, usize, u32) -> Option<(u32, Vec<PackedCiphertext>)>,
) -> GuestFailure {
    let cfg = TrainConfig::for_tests();
    let guest_suite = Suite::paillier_seeded(256, 5, cfg.encoding).unwrap();
    let host_suite = guest_suite.public_half();
    let plan = cfg.gh_plan(&host_suite, 48).unwrap().expect("the default path is paired");
    assert_eq!(plan.bins_per_cipher(host_suite.public_key().unwrap()), 2);
    let (guest_ep, host_ep) = duplex(WanConfig::instant());
    let handle = std::thread::spawn(move || {
        run_guest(&guest_data(), cfg, guest_suite, vec![guest_ep], None).err()
    });
    send(&host_ep, &Msg::SessionHello { session_id: 0, durable: vec![] });
    send(&host_ep, &Msg::FeatureMeta(vec![FeatureMeta { num_bins: 4, zero_bin: 0 }]));
    let mut tasks = 0;
    drain_guest(&host_ep, |msg| {
        if let Msg::NodeTask { tree, node, epoch } = msg {
            if let Some((node, packed)) = answer(&host_suite, &plan, tasks, node) {
                let payload = HistPayload::GhPacked(vec![GhPackedFeatureHist { packed, bins: 4 }]);
                send(&host_ep, &Msg::NodeHistograms { tree, node, epoch, payload });
            }
            tasks += 1;
        }
    });
    assert!(tasks > 0, "the guest never issued a node task");
    handle.join().unwrap().expect("the forged histogram must abort the guest")
}

/// `bins` topped-up empty pair bins packed into one cipher, as an honest
/// host ships them.
fn packed_pairs(host: &Suite, plan: &GhPlan, bins: usize) -> PackedCiphertext {
    let empty =
        host.add_plain_raw(&host.zero_obfuscated(plan.exponent()), &plan.top_up(0).unwrap());
    let wire = PackingPlan::new(host.public_key().unwrap(), plan.pair_bits(), bins).unwrap();
    host.pack(&vec![empty.unwrap(); bins], &wire).unwrap()
}

#[test]
fn guest_rejects_a_pair_width_it_did_not_derive() {
    // Honest ciphers, honest slot totals — but the host declares slots one
    // bit wider than the plan both sides derive. Slicing by the declared
    // width would yield garbage sums; admission refuses it before a
    // decryption is spent.
    let failure = paired_guest_against(|host, plan, nth, node| {
        let wide = |_| match packed_pairs(host, plan, 2) {
            PackedCiphertext::Paillier { cipher, exponent, count, slot_bits } => {
                PackedCiphertext::Paillier { cipher, exponent, count, slot_bits: slot_bits + 1 }
            }
            plain => plain,
        };
        (nth == 0).then(|| (node, (0..2).map(wide).collect()))
    });
    match failure.error {
        TrainError::PeerMisbehaving { party, last, .. } => {
            assert_eq!(party, PartyId::Host(0));
            assert!(
                matches!(*last, ProtocolError::Inadmissible { kind: 4, context, .. }
                    if context.contains("derived plan")),
                "{last}"
            );
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(failure.telemetry.ops.dec, 0, "nothing was decrypted");
}

#[test]
fn guest_rejects_plaintext_bits_above_the_declared_slots() {
    // The layout is the derived one and the slot totals add up to the four
    // negotiated bins, so admission passes — but the first cipher carries
    // two bins while declaring one. The decrypted plaintext has bits above
    // its declared run: a typed crypto error in release builds too, never
    // a silently truncated histogram.
    let failure = paired_guest_against(|host, plan, nth, node| {
        let lying = match packed_pairs(host, plan, 2) {
            PackedCiphertext::Paillier { cipher, exponent, slot_bits, .. } => {
                PackedCiphertext::Paillier { cipher, exponent, count: 1, slot_bits }
            }
            plain => plain,
        };
        let packed = vec![lying, packed_pairs(host, plan, 2), packed_pairs(host, plan, 1)];
        (nth == 0).then_some((node, packed))
    });
    assert!(
        matches!(
            failure.error,
            TrainError::Crypto { error: CryptoError::PackedValueTooLarge { slot: 1 }, .. }
        ),
        "{}",
        failure.error
    );
}

/// An honest all-empty histogram of the scripted host's one feature: four
/// topped-up empty bins, two to a cipher.
fn empty_hist(host: &Suite, plan: &GhPlan) -> Vec<PackedCiphertext> {
    vec![packed_pairs(host, plan, 2), packed_pairs(host, plan, 2)]
}

#[test]
fn guest_rejects_a_smaller_child_that_exceeds_its_parent() {
    // The host's root histogram is honestly empty, so the guest's own
    // split stands and it asks for the smaller child only (task 1). The
    // answer claims one unit of hessian mass in a bin where the parent
    // held none: the sibling the guest derives would hold minus one. That
    // is the host's violation, by name — not a wrapped field, not a panic.
    let failure = paired_guest_against(|host, plan, nth, node| match nth {
        0 => Some((node, empty_hist(host, plan))),
        1 => {
            let one_h = plan.top_up(0).unwrap() + RawCipher::from(1u32);
            let forged = host.add_plain_raw(&host.zero_obfuscated(plan.exponent()), &one_h);
            let wire = PackingPlan::new(host.public_key().unwrap(), plan.pair_bits(), 2).unwrap();
            let first = host.pack(&vec![forged.unwrap(); 2], &wire).unwrap();
            Some((node, vec![first, packed_pairs(host, plan, 2)]))
        }
        _ => None,
    });
    match failure.error {
        TrainError::PeerMisbehaving { party, violations, last, .. } => {
            assert_eq!((party, violations), (PartyId::Host(0), 1));
            assert!(
                matches!(*last, ProtocolError::Inadmissible { from: PartyId::Host(0), kind: 4, context }
                    if context.contains("no split of its parent")),
                "{last}"
            );
        }
        other => panic!("wrong error: {other}"),
    }
    assert_eq!(failure.telemetry.events.hists_derived, 0, "the forged sibling was withheld");
}

#[test]
fn guest_rejects_a_histogram_for_the_sibling_it_derives_itself() {
    // Asked for the smaller child, the host answers for the larger one —
    // the histogram it used to ship. Nothing was ever asked about that
    // node, so admission refuses it as an answer to a request never made.
    let failure = paired_guest_against(|host, plan, nth, node| match nth {
        0 => Some((node, empty_hist(host, plan))),
        1 => Some((if node % 2 == 1 { node + 1 } else { node - 1 }, empty_hist(host, plan))),
        _ => None,
    });
    match failure.error {
        TrainError::PeerMisbehaving { party, last, .. } => {
            assert_eq!(party, PartyId::Host(0));
            assert!(
                matches!(*last, ProtocolError::OutOfPhase { kind: 4, context, .. }
                    if context.contains("task never issued")),
                "{last}"
            );
        }
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn clean_wire_runs_identical_under_any_budget() {
    let data = generate_classification(&SyntheticConfig {
        rows: 240,
        features: 12,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 91,
    });
    let s = split_vertical(&data, &[6]);
    let run = |budget: u32| {
        let cfg = TrainConfig {
            gbdt: GbdtParams { num_trees: 3, max_layers: 4, ..Default::default() },
            crypto: CryptoConfig::Mock,
            misbehavior_budget: budget,
            ..TrainConfig::for_tests()
        };
        train_federated(&s.hosts, &s.guest, &cfg).expect("clean run succeeds")
    };
    let strict = run(0);
    let lenient = run(7);
    // The admission layer is pure overhead on an honest wire: no
    // misbehavior, and the model is bitwise identical either way.
    assert_eq!(encode_model(&strict.model), encode_model(&lenient.model));
    assert_eq!(strict.train_margins, lenient.train_margins);
    for t in std::iter::once(&strict.report.guest)
        .chain(&strict.report.hosts)
        .chain(std::iter::once(&lenient.report.guest))
        .chain(&lenient.report.hosts)
    {
        assert_eq!(t.events.misbehavior, 0, "{} saw phantom misbehavior", t.name);
    }
}

/// One representative message per wire kind, with both cipher flavours.
fn mutation_corpus() -> Vec<Msg> {
    let plain = honest_cipher(1.5);
    let paillier =
        Ciphertext::Paillier(EncryptedNumber { cipher: RawCipher::from(0x1234u32), exponent: 9 });
    vec![
        Msg::FeatureMeta(vec![
            FeatureMeta { num_bins: 16, zero_bin: 2 },
            FeatureMeta { num_bins: 5, zero_bin: 0 },
        ]),
        Msg::GradBatch {
            tree: 1,
            start_row: 32,
            g: vec![plain.clone(), paillier.clone()],
            h: vec![paillier.clone(), plain.clone()],
            last: true,
        },
        Msg::NodeTask { tree: 2, node: 5, epoch: 3 },
        Msg::NodeHistograms {
            tree: 0,
            node: 1,
            epoch: 1,
            payload: HistPayload::Raw(vec![RawFeatureHist {
                g: vec![plain.clone(); 3],
                h: vec![paillier.clone(); 3],
            }]),
        },
        Msg::NodeHistograms {
            tree: 0,
            node: 2,
            epoch: 1,
            payload: HistPayload::Packed(vec![vf2boost::core::messages::PackedFeatureHist {
                g: vec![PackedCiphertext::Paillier {
                    cipher: RawCipher::from(0xbeefu32),
                    exponent: 8,
                    count: 4,
                    slot_bits: 32,
                }],
                h: vec![PackedCiphertext::Plain(vec![0.5, 1.5, 2.5, 3.5])],
                bins: 4,
            }]),
        },
        Msg::ApplyPlacement {
            tree: 0,
            node: 3,
            speculative: false,
            placement: vec![true, false, true, true],
        },
        Msg::HostSplitChosen { tree: 0, node: 3, feature: 7, bin: 4 },
        Msg::Placement { tree: 0, node: 3, placement: vec![false; 9] },
        Msg::TreeDone { tree: 0 },
        Msg::Shutdown,
        Msg::SessionHello { session_id: 0xF00D, durable: vec![1, 3] },
        Msg::Resume { session_id: 0xF00D, tree_count: 3 },
        Msg::PackedGradBatch { tree: 1, start_row: 0, gh: vec![paillier], last: false },
    ]
}

#[test]
fn decode_survives_single_byte_mutations() {
    // Property: for every wire kind, every single-byte corruption of a
    // valid encoding either decodes to *some* message or returns a typed
    // `WireError` — it never panics and never over-allocates.
    let mut rejected = 0u64;
    for msg in mutation_corpus() {
        let kind = msg.kind();
        let bytes = wire::encode(&msg).unwrap();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut mutated = bytes.to_vec();
                mutated[i] ^= mask;
                if wire::decode(kind, mutated.into()).is_err() {
                    rejected += 1;
                }
            }
        }
        // Valid payloads under arbitrary (including unassigned) kind tags.
        for tag in 0..=32u16 {
            let _ = wire::decode(tag, bytes.clone());
        }
    }
    assert!(rejected > 0, "no mutation was ever rejected — the corpus is too small");
}

#[test]
fn flight_record_round_trips_violation_errors() {
    let errors: Vec<TrainError> = vec![
        TrainError::PeerMisbehaving {
            party: PartyId::Host(1),
            violations: 3,
            budget: 2,
            last: Box::new(ProtocolError::OutOfPhase {
                from: PartyId::Host(1),
                kind: 4,
                phase: "active",
                context: "histograms for a task never issued",
            }),
        },
        TrainError::Protocol(ProtocolError::Inadmissible {
            from: PartyId::Guest,
            kind: 2,
            context: "ciphertext outside [0, n^2)",
        }),
        TrainError::Protocol(ProtocolError::StaleOrReplayed {
            from: PartyId::Guest,
            kind: 2,
            context: "gradient batch replays rows already received",
        }),
    ];
    let dir = std::env::temp_dir().join(format!("vf2boost-byz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, err) in errors.iter().enumerate() {
        let mut telemetry = PartyTelemetry { name: "guest".into(), ..Default::default() };
        telemetry.events.misbehavior = 3;
        let path = dir.join(format!("flight-{i}.json"));
        write_flight_record(&path, 7, 0xdead_beef, &err.to_string(), &telemetry)
            .expect("flight record writes");
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap())
            .expect("flight record is valid JSON");
        // The error string survives JSON escaping verbatim, and the
        // misbehavior counter rides along in the embedded telemetry.
        assert_eq!(doc.get("error").and_then(json::Json::as_str), Some(err.to_string().as_str()));
        let events = doc.get("telemetry").and_then(|t| t.get("events")).expect("events");
        assert_eq!(events.get("misbehavior").and_then(json::Json::as_f64), Some(3.0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
