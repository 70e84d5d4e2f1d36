//! Top-level federated training: spawns one thread per party, wires them
//! with simulated WAN links, and assembles the federated model.
//!
//! This is the in-process equivalent of the paper's deployment (one Spark
//! job per enterprise, Pulsar queues between the data centers): each party
//! runs autonomously on its own thread and communicates *only* through the
//! cross-party links — no shared state crosses the party boundary except
//! the messages themselves.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use vf2_channel::{duplex_faulty, FaultConfig, StallWindow};
use vf2_crypto::paillier::KeyPair;
use vf2_crypto::suite::Suite;
use vf2_gbdt::data::Dataset;

use crate::chaos::ChaosPlan;
use crate::config::{CryptoConfig, TrainConfig};
use crate::error::{
    panic_text, GuestFailure, HostFailure, PartyId, ProtocolError, TrainError, TrainFailure,
};
use crate::guest::run_guest;
use crate::host::run_host;
use crate::model::{FederatedModel, HostSplitTable};
use crate::rows::check_width;
use crate::session::{PartySession, SessionConfig};
use crate::telemetry::{PartyTelemetry, TrainReport};

/// The result of a federated training run.
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// The jointly trained model.
    pub model: FederatedModel,
    /// Per-party telemetry, wall time, and per-tree records.
    pub report: TrainReport,
    /// Final training-set margins at the guest.
    pub train_margins: Vec<f64>,
}

/// Host `p`'s copy of a fault plan: the seed is offset by `p` so its link
/// does not replay host 0's fault stream, and any stall window opens `p`
/// window lengths after host 0's — outages *roll* across the roster by
/// construction (every link dark at once tells you nothing about
/// scheduling), with no stagger for a test to pick.
fn fault_for_host(base: FaultConfig, p: usize) -> FaultConfig {
    let stall = base.stall.map(|w| StallWindow {
        after: w.after.saturating_add(w.duration.saturating_mul(p as u32)),
        ..w
    });
    FaultConfig { seed: base.seed.wrapping_add(p as u64), stall, ..base }
}

/// Trains a federated GBDT over vertically partitioned data.
///
/// `hosts[p]` is host party `p`'s feature slice (no labels); `guest` is
/// the label owner's slice. All datasets must be instance-aligned (the
/// paper's PSI preprocessing).
///
/// The run never panics on bad input, a hostile wire, or a dying peer:
/// every failure surfaces as a [`TrainFailure`] whose `partial` report
/// still carries the telemetry (phase times, fault counters,
/// completed-tree records) of every party that could be joined. Host
/// threads that panic are caught at `join()` and reported as
/// [`TrainError::PartyPanicked`]. With a session attached
/// ([`train_federated_session`]), each failing party additionally dumps
/// a flight record — its last trace events, config digest and session id
/// — into the session directory (see [`crate::trace`]).
pub fn train_federated(
    hosts: &[Dataset],
    guest: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainOutput, TrainFailure> {
    train_federated_session(hosts, guest, cfg, None, &ChaosPlan::default())
}

/// [`train_federated`] with a resumable session: every party checkpoints
/// its private state at every tree boundary, and a session flagged
/// [`SessionConfig::resuming`] restarts from the last *mutually* durable
/// tree instead of from scratch. The resumed model is bitwise identical to
/// an uninterrupted run (the chaos suite asserts this). That is the one
/// recovery path: a host lost mid-run ends the run with the error that
/// lost it (`PeerLost`, or `PartyPanicked` for a crashed host), every
/// checkpoint written so far stays durable, and the caller calls again
/// with the session flagged to resume.
///
/// `chaos` is where the robustness suites attach link faults and injected
/// crashes; everything else passes [`ChaosPlan::default`].
pub fn train_federated_session(
    hosts: &[Dataset],
    guest: &Dataset,
    cfg: &TrainConfig,
    session: Option<&SessionConfig>,
    chaos: &ChaosPlan,
) -> Result<TrainOutput, TrainFailure> {
    // Liveness knobs are validated before any thread, link, or key
    // material exists: an unsatisfiable configuration (a deadline that has
    // already passed) is a typed error, never a silent mis-train.
    if let Err(bad) = cfg.validate() {
        return Err(TrainError::from(bad).into());
    }
    if let Some(sc) = session {
        std::fs::create_dir_all(&sc.dir).map_err(|e| TrainError::Checkpoint {
            party: PartyId::Guest,
            detail: format!("session directory {}: {e}", sc.dir.display()),
        })?;
    }
    if hosts.is_empty() {
        return Err(TrainError::InvalidInput("at least one host party is required".into()).into());
    }
    if guest.labels().is_none() {
        return Err(TrainError::InvalidInput("the guest must own the labels".into()).into());
    }
    for (p, h) in hosts.iter().enumerate() {
        if h.num_rows() != guest.num_rows() {
            return Err(TrainError::InvalidInput(format!(
                "host {p} has {} instances but the guest has {} (PSI alignment missing)",
                h.num_rows(),
                guest.num_rows()
            ))
            .into());
        }
        if h.labels().is_some() {
            return Err(TrainError::InvalidInput(format!("host {p} must not carry labels")).into());
        }
        check_width(PartyId::Host(p), h.num_features())?;
    }
    check_width(PartyId::Guest, guest.num_features())?;

    // Key material: the guest holds the private key, hosts get the public
    // half.
    let guest_suite = match cfg.crypto {
        CryptoConfig::Paillier { key_bits } => {
            let keys = KeyPair::generate_seeded(key_bits, cfg.seed)
                .map_err(TrainError::crypto("key generation"))?;
            Suite::paillier(keys, cfg.encoding)
        }
        CryptoConfig::Mock => Suite::plain(cfg.encoding),
    };

    // One thread per host, each behind its own link shaped like every link
    // of that host (WAN spread, reliability, a keepalive four times inside
    // the silence deadline). A host gets a fresh public-half suite (mock
    // included), so operation counters stay per-party.
    let started = Instant::now();
    let mut guest_endpoints = Vec::with_capacity(hosts.len());
    let mut handles = Vec::with_capacity(hosts.len());
    for (p, data) in hosts.iter().enumerate() {
        let (guest_ep, host_ep) = duplex_faulty(
            cfg.wan_for_host(p, hosts.len()),
            fault_for_host(chaos.fault_guest_to_host, p),
            fault_for_host(chaos.fault_host_to_guest, p),
            cfg.reliability,
            cfg.dead_after() / 4,
        );
        let suite = guest_suite.public_half();
        let host_session = session.map(|sc| PartySession::host(sc, cfg, p));
        let (data, cfg, chaos) = (Arc::new(data.clone()), *cfg, *chaos);
        let handle = thread::Builder::new()
            .name(format!("vf2-host-{p}"))
            .spawn(move || run_host(p, data, cfg, suite, host_ep, host_session, chaos))
            .map_err(|e| TrainError::Setup {
                party: PartyId::Host(p),
                detail: format!("thread spawn failed: {e}"),
            })?;
        guest_endpoints.push(guest_ep);
        handles.push(handle);
    }

    let guest_session = session.map(|sc| PartySession::guest(sc, cfg));
    let guest_result =
        run_guest(Arc::new(guest.clone()), *cfg, guest_suite, guest_endpoints, guest_session);
    let wall_time = started.elapsed();

    let (guest_telemetry, tree_records, guest_ok, guest_error) = match guest_result {
        Ok(out) => (out.telemetry, out.tree_records, Some((out.trees, out.train_margins)), None),
        Err(GuestFailure { error, telemetry, tree_records }) => {
            (*telemetry, tree_records, None, Some(error))
        }
    };

    // Join every host, in party order, even after a failure: their partial
    // telemetry still belongs in the report, and a panicked thread must be
    // caught here rather than poisoning the caller (it leaves only its name
    // behind).
    let mut first_host_error = None;
    let mut host_telemetry = Vec::with_capacity(hosts.len());
    let mut host_tables = Vec::with_capacity(hosts.len());
    for (p, handle) in handles.into_iter().enumerate() {
        let (telemetry, table) = match handle.join() {
            Ok(Ok(done)) => done,
            Ok(Err(HostFailure { error, telemetry })) => {
                first_host_error.get_or_insert(error);
                (*telemetry, HostSplitTable::default())
            }
            Err(payload) => {
                let detail = panic_text(payload.as_ref());
                first_host_error
                    .get_or_insert(TrainError::PartyPanicked { party: PartyId::Host(p), detail });
                let name = format!("host-{p}");
                (PartyTelemetry { name, ..Default::default() }, HostSplitTable::default())
            }
        };
        host_telemetry.push(telemetry);
        host_tables.push(table);
    }

    let mut report =
        TrainReport { guest: guest_telemetry, hosts: host_telemetry, wall_time, tree_records };

    // Pick the most informative primary error: a guest that merely lost
    // its peer is a symptom when that peer panicked or failed for a
    // concrete reason first (a host PeerLost is equally symptomatic, so
    // the guest's attribution wins in that case).
    let primary = match (guest_error, first_host_error) {
        (None, None) => None,
        (None, Some(host_error)) => Some(host_error),
        (Some(guest_error), None) => Some(guest_error),
        (Some(guest_error), Some(host_error)) => {
            if matches!(guest_error, TrainError::PeerLost { .. })
                && !matches!(host_error, TrainError::PeerLost { .. })
            {
                Some(host_error)
            } else {
                Some(guest_error)
            }
        }
    };
    match (primary, guest_ok) {
        (None, Some((trees, train_margins))) => {
            let model = FederatedModel {
                trees,
                learning_rate: cfg.gbdt.learning_rate,
                base_score: cfg.gbdt.loss.base_score(),
                loss: cfg.gbdt.loss,
                host_tables,
            };
            // Every host split the guest recorded must be one its host
            // holds: a model that does not validate would route prediction
            // into a hole, so it is a failed run, never a returned model.
            if let Err(why) = model.validate() {
                report.guest.trace.note(format!("the assembled model is malformed: {why}"));
                let context = "the assembled model failed its structural check";
                let error = ProtocolError::InvariantViolated { party: PartyId::Guest, context };
                return Err(TrainFailure { error: error.into(), partial: Box::new(report) });
            }
            Ok(TrainOutput { model, report, train_margins })
        }
        (Some(error), _) => Err(TrainFailure { error, partial: Box::new(report) }),
        // Unreachable in practice (guest_ok is None only with a guest
        // error), but keep it total.
        (None, None) => Err(TrainFailure {
            error: TrainError::InvalidInput("guest produced no output".into()),
            partial: Box::new(report),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolConfig;
    use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
    use vf2_datagen::vertical::split_vertical;
    use vf2_gbdt::metrics::auc;
    use vf2_gbdt::train::{GbdtParams, Trainer};

    fn scenario(
        rows: usize,
        features: usize,
        host_feats: usize,
        seed: u64,
    ) -> vf2_datagen::vertical::VerticalScenario {
        let data = generate_classification(&SyntheticConfig {
            rows,
            features,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed,
        });
        split_vertical(&data, &[host_feats])
    }

    fn mock_cfg() -> TrainConfig {
        TrainConfig { crypto: CryptoConfig::Mock, ..TrainConfig::for_tests() }
    }

    /// Scenario guests always carry labels; make that assumption explicit
    /// instead of sprinkling bare `unwrap`s through the assertions.
    fn labels(d: &Dataset) -> &[f32] {
        d.labels().expect("scenario guest carries labels")
    }

    #[test]
    fn per_host_fault_plans_offset_the_seed_and_roll_the_stall() {
        use std::time::Duration;
        let window =
            StallWindow { after: Duration::from_millis(40), duration: Duration::from_millis(30) };
        let base =
            FaultConfig { seed: 7, drop_prob: 0.1, stall: Some(window), ..FaultConfig::none() };
        assert_eq!(fault_for_host(base, 0), base);
        let third = fault_for_host(base, 3);
        assert_eq!(third.seed, 10);
        // Host p's window opens p window lengths after host 0's, same length.
        let rolled = StallWindow { after: Duration::from_millis(40 + 3 * 30), ..window };
        assert_eq!(third, FaultConfig { seed: 10, stall: Some(rolled), ..base });
        // No stall window: only the seed moves — and an inert plan stays inert.
        let calm = FaultConfig { stall: None, ..base };
        assert_eq!(fault_for_host(calm, 3), FaultConfig { seed: 10, ..calm });
        assert!(!fault_for_host(FaultConfig::none(), 5).is_active());
    }

    #[test]
    fn mock_sequential_trains_and_predicts() {
        let s = scenario(300, 10, 5, 21);
        let cfg = TrainConfig { protocol: ProtocolConfig::baseline(), ..mock_cfg() };
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        assert_eq!(out.model.trees.len(), cfg.gbdt.num_trees);
        for t in &out.model.trees {
            t.validate().expect("valid federated tree");
        }
        let margins = out.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let a = auc(labels(&s.guest), &margins);
        assert!(a > 0.8, "train AUC {a}");
    }

    #[test]
    fn mock_optimistic_matches_sequential_model() {
        let s = scenario(300, 10, 5, 22);
        let seq_cfg = TrainConfig { protocol: ProtocolConfig::baseline(), ..mock_cfg() };
        let opt_cfg = TrainConfig {
            protocol: ProtocolConfig { pack_histograms: false, ..ProtocolConfig::vf2boost() },
            ..mock_cfg()
        };
        let seq = train_federated(&s.hosts, &s.guest, &seq_cfg).expect("training succeeds");
        let opt = train_federated(&s.hosts, &s.guest, &opt_cfg).expect("training succeeds");
        // The optimistic protocol must be *lossless*: identical final
        // predictions (mock crypto is exact, so exact equality up to fp
        // noise from summation order).
        let sm = seq.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let om = opt.model.predict_margin(&[&s.hosts[0]], &s.guest);
        for (a, b) in sm.iter().zip(&om) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn mock_federated_matches_centralized_training() {
        // The lossless property (§2.3): federated training equals
        // co-located training when bins agree.
        let data = generate_classification(&SyntheticConfig {
            rows: 400,
            features: 8,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 23,
        });
        let s = split_vertical(&data, &[4]);
        let cfg = TrainConfig { protocol: ProtocolConfig::baseline(), ..mock_cfg() };
        let fed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let central_params = GbdtParams {
            num_trees: cfg.gbdt.num_trees,
            max_layers: cfg.gbdt.max_layers,
            ..GbdtParams::default()
        };
        let central = Trainer::new(central_params).fit(&data);
        let fm = fed.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let cm = central.predict_margin(&data);
        // Allow tiny drift from tie-breaking between equal-gain splits.
        let mean_diff: f64 =
            fm.iter().zip(&cm).map(|(a, b)| (a - b).abs()).sum::<f64>() / fm.len() as f64;
        assert!(mean_diff < 1e-6, "mean |Δmargin| = {mean_diff}");
    }

    #[test]
    fn paillier_two_party_end_to_end() {
        let s = scenario(120, 6, 3, 24);
        let cfg = TrainConfig {
            gbdt: GbdtParams { num_trees: 2, max_layers: 3, ..Default::default() },
            ..TrainConfig::for_tests()
        };
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let margins = out.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let a = auc(labels(&s.guest), &margins);
        assert!(a > 0.7, "train AUC {a}");
        // Crypto really ran, on the paired path: one cipher per row and tree.
        assert_eq!(out.report.guest.ops.enc, 120 * 2);
        assert!(out.report.guest.ops.dec > 0);
        assert!(out.report.hosts[0].ops.hadd > 0);
    }

    #[test]
    fn paillier_matches_mock_decisions() {
        // Fixed-point Paillier must produce the same tree decisions as the
        // exact mock on well-separated data.
        let s = scenario(100, 6, 3, 25);
        let base = TrainConfig {
            gbdt: GbdtParams { num_trees: 2, max_layers: 3, ..Default::default() },
            ..TrainConfig::for_tests()
        };
        let paillier = train_federated(&s.hosts, &s.guest, &base).expect("training succeeds");
        let mock = train_federated(
            &s.hosts,
            &s.guest,
            &TrainConfig { crypto: CryptoConfig::Mock, ..base },
        )
        .expect("training succeeds");
        let pm = paillier.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let mm = mock.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let mean_diff: f64 =
            pm.iter().zip(&mm).map(|(a, b)| (a - b).abs()).sum::<f64>() / pm.len() as f64;
        assert!(mean_diff < 1e-3, "mean |Δmargin| = {mean_diff}");
    }

    #[test]
    fn multi_party_three_hosts() {
        let data = generate_classification(&SyntheticConfig {
            rows: 200,
            features: 12,
            density: 1.0,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 26,
        });
        let s = split_vertical(&data, &[3, 3, 3]);
        let cfg = mock_cfg();
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        assert_eq!(out.report.hosts.len(), 3);
        let refs: Vec<&Dataset> = s.hosts.iter().collect();
        let margins = out.model.predict_margin(&refs, &s.guest);
        let a = auc(labels(&s.guest), &margins);
        assert!(a > 0.75, "train AUC {a}");
    }

    #[test]
    fn optimistic_run_reports_events() {
        let s = scenario(300, 10, 5, 27);
        let cfg = TrainConfig {
            protocol: ProtocolConfig { pack_histograms: false, ..ProtocolConfig::vf2boost() },
            ..mock_cfg()
        };
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let ev = &out.report.guest.events;
        assert!(ev.optimistic_splits > 0, "optimistic splits must occur");
        // With an even feature split, some nodes must be won by the host
        // (and thus rolled back under the optimistic protocol).
        assert!(ev.dirty_nodes > 0, "expected dirty nodes on an even split");
        let ratio = out.report.guest_split_ratio();
        assert!(ratio > 0.15 && ratio < 0.85, "split ratio {ratio}");
    }

    #[test]
    fn packed_histograms_preserve_quality() {
        let s = scenario(150, 8, 4, 28);
        let cfg = TrainConfig {
            gbdt: GbdtParams { num_trees: 2, max_layers: 3, ..Default::default() },
            crypto: CryptoConfig::Paillier { key_bits: 512 },
            ..TrainConfig::for_tests()
        };
        let unpacked_cfg = TrainConfig {
            protocol: ProtocolConfig { pack_histograms: false, ..cfg.protocol },
            ..cfg
        };
        let packed = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let raw = train_federated(&s.hosts, &s.guest, &unpacked_cfg).expect("training succeeds");
        let pm = packed.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let rm = raw.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let mean_diff: f64 =
            pm.iter().zip(&rm).map(|(a, b)| (a - b).abs()).sum::<f64>() / pm.len() as f64;
        assert!(mean_diff < 1e-3, "mean |Δmargin| = {mean_diff}");
        // Packing must reduce decryptions and host→guest bytes.
        assert!(packed.report.guest.ops.dec < raw.report.guest.ops.dec);
        assert!(packed.report.hosts[0].bytes_sent < raw.report.hosts[0].bytes_sent);
    }

    #[test]
    fn sparse_data_trains_correctly() {
        let data = generate_classification(&SyntheticConfig {
            rows: 400,
            features: 20,
            density: 0.3,
            informative_frac: 0.5,
            label_noise: 0.0,
            seed: 29,
        });
        let s = split_vertical(&data, &[10]);
        let out = train_federated(&s.hosts, &s.guest, &mock_cfg()).expect("training succeeds");
        let margins = out.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let a = auc(labels(&s.guest), &margins);
        assert!(a > 0.7, "train AUC {a}");
    }

    #[test]
    fn unsatisfiable_liveness_config_is_a_typed_error() {
        use crate::error::{ConfigError, TrainError};
        use std::time::Duration;
        let s = scenario(50, 4, 2, 32);
        // A silence deadline that has already passed would declare every
        // peer dead on the first wait; the run must refuse to start.
        for cfg in [
            TrainConfig { peer_dead_after: Duration::ZERO, ..mock_cfg() },
            TrainConfig { peer_timeout: Duration::ZERO, ..mock_cfg() },
        ] {
            let err = train_federated(&s.hosts, &s.guest, &cfg).unwrap_err();
            assert_eq!(err.error, TrainError::InvalidConfig(ConfigError::ZeroPeerTimeout));
            // Nothing ran: the failure precedes thread spawn and key setup.
            assert!(err.partial.hosts.is_empty());
        }
    }

    #[test]
    fn invalid_input_is_an_error_not_a_panic() {
        use crate::error::{ConfigError, TrainError};
        let s = scenario(50, 4, 2, 31);
        let no_hosts = train_federated(&[], &s.guest, &mock_cfg()).unwrap_err();
        assert!(matches!(no_hosts.error, TrainError::InvalidInput(_)));
        // A host slice in the guest seat has no labels.
        let unlabeled = train_federated(&s.hosts, &s.hosts[0], &mock_cfg()).unwrap_err();
        assert!(matches!(unlabeled.error, TrainError::InvalidInput(_)));
        // Misaligned row counts (PSI violation).
        let short = scenario(40, 4, 2, 31);
        let misaligned = train_federated(&short.hosts, &s.guest, &mock_cfg()).unwrap_err();
        assert!(matches!(misaligned.error, TrainError::InvalidInput(_)));
        assert!(misaligned.partial.hosts.is_empty());
        // A party wider than a row-major entry can index, host or guest:
        // refused before anything runs.
        let wide = |labels| {
            let column = vf2_gbdt::data::FeatureColumn::Dense(vec![0.0, 1.0]);
            Dataset::new(2, vec![column; crate::wire::limits::MAX_FEATURES + 1], labels)
        };
        let narrow = scenario(2, 4, 2, 31);
        for (hosts, guest) in [
            (vec![wide(None)], narrow.guest.clone()),
            (narrow.hosts.clone(), wide(Some(vec![0.0, 1.0]))),
        ] {
            let too_wide = train_federated(&hosts, &guest, &mock_cfg()).unwrap_err();
            assert!(matches!(too_wide.error, TrainError::InvalidInput(_)), "{}", too_wide.error);
            assert!(too_wide.partial.hosts.is_empty());
        }
        // The parties refuse it themselves, for callers that run them.
        let cfg = mock_cfg();
        let (guest_ep, host_ep) = vf2_channel::duplex(cfg.wan);
        let suite = Suite::plain(cfg.encoding);
        let host = run_host(
            0,
            Arc::new(wide(None)),
            cfg,
            suite.clone(),
            host_ep,
            None,
            ChaosPlan::default(),
        );
        assert!(matches!(host.err().map(|f| f.error), Some(TrainError::InvalidInput(_))));
        let guest =
            run_guest(Arc::new(wide(Some(vec![0.0, 1.0]))), cfg, suite, vec![guest_ep], None);
        assert!(matches!(guest.err().map(|f| f.error), Some(TrainError::InvalidInput(_))));
        // A tree with no layers has no root to hold the rows.
        let flat =
            TrainConfig { gbdt: GbdtParams { max_layers: 0, ..mock_cfg().gbdt }, ..mock_cfg() };
        let no_layers = train_federated(&s.hosts, &s.guest, &flat).unwrap_err();
        assert_eq!(
            no_layers.error,
            TrainError::InvalidConfig(ConfigError::MaxLayersOutOfRange { max_layers: 0 })
        );
    }

    #[test]
    fn workers_do_not_change_the_model() {
        let s = scenario(200, 8, 4, 30);
        let one = TrainConfig { workers: 1, ..mock_cfg() };
        let four = TrainConfig { workers: 4, ..mock_cfg() };
        let m1 = train_federated(&s.hosts, &s.guest, &one).expect("training succeeds");
        let m4 = train_federated(&s.hosts, &s.guest, &four).expect("training succeeds");
        let p1 = m1.model.predict_margin(&[&s.hosts[0]], &s.guest);
        let p4 = m4.model.predict_margin(&[&s.hosts[0]], &s.guest);
        for (a, b) in p1.iter().zip(&p4) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
