//! Top-level training configuration.

use std::time::Duration;

use vf2_channel::WanConfig;
use vf2_crypto::encoding::EncodingConfig;
use vf2_crypto::error::CryptoError;
use vf2_crypto::packing::GhPlan;
use vf2_crypto::suite::Suite;
use vf2_gbdt::train::GbdtParams;
use vf2_gbdt::tree::MAX_LAYERS;

use crate::error::ConfigError;
use crate::protocol::ProtocolConfig;

/// Which cipher suite backs the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoConfig {
    /// Real Paillier with an `S`-bit modulus (the paper recommends 2048).
    Paillier {
        /// Modulus bits `S`, 64 to 4096 (key generation refuses any other).
        key_bits: u64,
    },
    /// Plaintext mock — the paper's VF-MOCK baseline.
    Mock,
}

/// Heterogeneous WAN spread across host links: link `p` of `n` gets its
/// bandwidth and latency interpolated linearly from the base
/// [`TrainConfig::wan`] (host 0) to `slowest_bandwidth_frac` /
/// `latency_mult` times the base (the last host). Models the paper's
/// cross-enterprise reality where every party connects over a different
/// public link and makespan is bound by the slowest one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanSpread {
    /// The slowest link's bandwidth as a fraction of the base link's
    /// (e.g. `0.25` = the last host gets a quarter of the bandwidth).
    /// Must be finite and positive.
    pub slowest_bandwidth_frac: f64,
    /// The slowest link's latency as a multiple of the base link's
    /// (e.g. `4.0` = the last host sits four RTT-classes away). Must be
    /// finite and at least zero.
    pub latency_mult: f64,
}

/// Everything needed to run one federated training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// GBDT hyper-parameters (trees, learning rate, layers, bins, loss).
    pub gbdt: GbdtParams,
    /// Protocol variant and optimization toggles.
    pub protocol: ProtocolConfig,
    /// Cipher suite.
    pub crypto: CryptoConfig,
    /// Fixed-point encoding (base, exponent window).
    pub encoding: EncodingConfig,
    /// Simulated WAN characteristics of every cross-party link.
    pub wan: WanConfig,
    /// Per-phase peer deadline: the longest any blocking cross-party wait
    /// may last before the peer is declared lost
    /// ([`crate::error::TrainError::PeerLost`]).
    pub peer_timeout: Duration,
    /// Liveness deadline: if the link has been completely silent (no
    /// intact data, no acks — see `Endpoint::idle_for`) for this long,
    /// the peer is declared dead. A live peer's link re-sends its ack
    /// every quarter of this however busy the peer is, so only a dead
    /// process or a dead path goes silent. The effective deadline is
    /// `min(peer_dead_after, peer_timeout)`.
    pub peer_dead_after: Duration,
    /// Cap on each party's in-memory trace ring; once full the oldest
    /// events are dropped (and counted) so a flapping link cannot grow
    /// memory without bound.
    pub trace_events_cap: usize,
    /// Whether parties record span enter/exit and transfer trace events
    /// (protocol events such as dirty rollbacks, cache evictions, and
    /// robustness notes are always recorded). Tracing never influences
    /// protocol decisions, so models are identical either way.
    pub trace_spans: bool,
    /// Misbehavior tolerance budget per peer: how many protocol
    /// violations (out-of-phase messages, replays, inadmissible payloads)
    /// a party tolerates — dropping the offending message and counting it
    /// — before failing the run with
    /// [`crate::error::TrainError::PeerMisbehaving`]. `0` fails on the
    /// first violation. Provably-honest staleness (optimistic-rollback
    /// stragglers) is never charged against this budget.
    pub misbehavior_budget: u32,
    /// Optional heterogeneous WAN spread across host links (see
    /// [`WanSpread`]). `None` gives every link the base [`Self::wan`].
    pub wan_spread: Option<WanSpread>,
    /// Data-parallel workers inside each party: the width of the party's
    /// [`Pool`](crate::pool::Pool), and so the number of column ranges an encrypted
    /// histogram build is cut into, of features a payload is packed or
    /// decrypted over at once, and of chunks a gradient batch is
    /// encrypted in. Changes wall time only — ciphers, op counts and bytes
    /// are the same at every width — and `1` starts no thread at all.
    pub workers: usize,
    /// Master seed: keys, encryption randomness, and exponent jitter all
    /// derive from it.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            gbdt: GbdtParams::default(),
            protocol: ProtocolConfig::vf2boost(),
            crypto: CryptoConfig::Paillier { key_bits: 2048 },
            encoding: EncodingConfig::default(),
            wan: WanConfig::paper_public_network(),
            peer_timeout: Duration::from_secs(60),
            peer_dead_after: Duration::from_secs(60),
            trace_events_cap: 256,
            trace_spans: true,
            misbehavior_budget: 0,
            wan_spread: None,
            workers: 1,
            seed: 42,
        }
    }
}

impl TrainConfig {
    /// The effective silence deadline: a peer is declared dead once its link
    /// has been silent this long (never longer than the per-phase
    /// `peer_timeout` itself).
    pub fn dead_after(&self) -> Duration {
        self.peer_dead_after.min(self.peer_timeout)
    }

    /// Rejects configurations whose supervision windows contradict each
    /// other, whose tree shape no party could allocate, or whose bins no
    /// party could index in 16 bits, *before* any party starts. An
    /// inconsistent liveness config used to train silently with a window
    /// that could never fire; now it is a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(1..=MAX_LAYERS).contains(&self.gbdt.max_layers) {
            return Err(ConfigError::MaxLayersOutOfRange { max_layers: self.gbdt.max_layers });
        }
        if self.gbdt.binning.num_bins > usize::from(u16::MAX) {
            return Err(ConfigError::TooManyBins(self.gbdt.binning.num_bins));
        }
        if self.dead_after().is_zero() {
            return Err(ConfigError::ZeroPeerTimeout);
        }
        if let Some(spread) = self.wan_spread {
            let bw_ok =
                spread.slowest_bandwidth_frac.is_finite() && spread.slowest_bandwidth_frac > 0.0;
            let lat_ok = spread.latency_mult.is_finite() && spread.latency_mult >= 0.0;
            if !bw_ok || !lat_ok {
                return Err(ConfigError::InvalidWanSpread {
                    bandwidth_frac: spread.slowest_bandwidth_frac,
                    latency_mult: spread.latency_mult,
                });
            }
        }
        Ok(())
    }

    /// The pair plan of a run of `num_rows` rows under `suite` (and its
    /// encoding): a Paillier suite with `protocol.pack_histograms` pairs
    /// each row's `(g, h)` into one cipher; everything else keeps the two
    /// streams (`None`). A pair too wide for the key is a typed error.
    pub fn gh_plan(&self, suite: &Suite, num_rows: usize) -> Result<Option<GhPlan>, CryptoError> {
        let Some(pk) = suite.public_key().filter(|_| self.protocol.pack_histograms) else {
            return Ok(None);
        };
        let loss = &self.gbdt.loss;
        let plan =
            GhPlan::new(loss.grad_bound(), loss.hess_bound(), num_rows as u64, suite.encoding())?;
        plan.validate_capacity(pk)?;
        Ok(Some(plan))
    }

    /// The WAN characteristics of host `p`'s link out of `total` hosts:
    /// the base [`Self::wan`] when no [`Self::wan_spread`] is set, else a
    /// linear interpolation from the base (host 0) down to the spread's
    /// slowest point (the last host). A single-host run always gets the
    /// base link.
    pub fn wan_for_host(&self, p: usize, total: usize) -> WanConfig {
        let Some(spread) = self.wan_spread else { return self.wan };
        if total <= 1 {
            return self.wan;
        }
        let t = p as f64 / (total - 1) as f64;
        let bw_frac = 1.0 + t * (spread.slowest_bandwidth_frac - 1.0);
        let lat_mult = 1.0 + t * (spread.latency_mult - 1.0);
        WanConfig {
            bandwidth_bytes_per_sec: self.wan.bandwidth_bytes_per_sec * bw_frac,
            latency: self.wan.latency.mul_f64(lat_mult.max(0.0)),
            per_message_overhead_bytes: self.wan.per_message_overhead_bytes,
        }
    }

    /// A configuration sized for unit tests: small key, instant network,
    /// few trees.
    pub fn for_tests() -> TrainConfig {
        TrainConfig {
            gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
            crypto: CryptoConfig::Paillier { key_bits: 256 },
            encoding: EncodingConfig { base: 16, base_exp: 8, jitter: 4 },
            wan: WanConfig::instant(),
            peer_timeout: Duration::from_secs(30),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_gbdt::binning::BinningConfig;

    #[test]
    fn paper_protocol_is_the_default() {
        let c = TrainConfig::default();
        assert_eq!(c.gbdt.num_trees, 20);
        assert_eq!(c.gbdt.max_layers, 7);
        assert!((c.gbdt.learning_rate - 0.1).abs() < 1e-12);
        assert_eq!(c.crypto, CryptoConfig::Paillier { key_bits: 2048 });
    }

    #[test]
    fn defaults_have_a_peer_deadline() {
        let c = TrainConfig::default();
        assert!(c.peer_timeout > Duration::ZERO);
    }

    #[test]
    fn liveness_defaults_are_sane() {
        let c = TrainConfig::default();
        assert!(c.trace_events_cap > 0);
        assert!(c.trace_spans);
        // Fail fast on the first protocol violation by default.
        assert_eq!(c.misbehavior_budget, 0);
    }

    #[test]
    fn dead_after_never_exceeds_peer_timeout() {
        let mut cfg = TrainConfig::for_tests();
        cfg.peer_timeout = Duration::from_secs(2);
        cfg.peer_dead_after = Duration::from_secs(60);
        assert_eq!(cfg.dead_after(), Duration::from_secs(2));
        cfg.peer_dead_after = Duration::from_millis(500);
        assert_eq!(cfg.dead_after(), Duration::from_millis(500));
    }

    #[test]
    fn zero_deadlines_are_rejected() {
        let ok = TrainConfig::for_tests();
        for bad in [
            TrainConfig { peer_timeout: Duration::ZERO, ..ok },
            TrainConfig { peer_dead_after: Duration::ZERO, ..ok },
        ] {
            assert_eq!(bad.validate(), Err(ConfigError::ZeroPeerTimeout));
        }
    }

    /// A bin index is a `u16` on every party: 65 535 bins fit, one more is
    /// refused rather than wrapped.
    #[test]
    fn bin_counts_past_a_u16_are_rejected() {
        let ok = TrainConfig::for_tests();
        let with_bins = |num_bins| {
            let binning = BinningConfig { num_bins, ..ok.gbdt.binning };
            TrainConfig { gbdt: GbdtParams { binning, ..ok.gbdt }, ..ok }
        };
        assert_eq!(with_bins(65_535).validate(), Ok(()));
        assert_eq!(with_bins(65_536).validate(), Err(ConfigError::TooManyBins(65_536)));
    }

    #[test]
    fn only_paillier_with_histogram_packing_pairs_gradients() {
        let cfg = TrainConfig::for_tests();
        let paillier = Suite::paillier_seeded(256, 7, cfg.encoding).unwrap();
        let plan = cfg.gh_plan(&paillier, 300).unwrap().expect("the default path is paired");
        assert_eq!(plan.exponent(), 11);
        // Sized for exactly the run's 300 rows.
        assert!(plan.top_up(300).is_ok() && plan.top_up(301).is_err());
        assert!(plan.bins_per_cipher(paillier.public_key().unwrap()) >= 2);
        // The host's public half derives the same plan.
        assert_eq!(cfg.gh_plan(&paillier.public_half(), 300).unwrap(), Some(plan));
        let raw = TrainConfig {
            protocol: ProtocolConfig { pack_histograms: false, ..cfg.protocol },
            ..cfg
        };
        assert_eq!(raw.gh_plan(&paillier, 300).unwrap(), None);
        let baseline = TrainConfig { protocol: ProtocolConfig::baseline(), ..cfg };
        assert_eq!(baseline.gh_plan(&paillier, 300).unwrap(), None);
        assert_eq!(cfg.gh_plan(&Suite::plain(cfg.encoding), 300).unwrap(), None);
        // A pair that cannot fit the key fails before any message is sent.
        let small = Suite::paillier_seeded(128, 7, cfg.encoding).unwrap();
        assert!(matches!(
            cfg.gh_plan(&small, 4_000_000),
            Err(CryptoError::PackingCapacity { requested: 1, max: 0 })
        ));
    }

    #[test]
    fn test_config_is_small() {
        let c = TrainConfig::for_tests();
        assert!(matches!(c.crypto, CryptoConfig::Paillier { key_bits: 256 }));
        assert!(c.gbdt.num_trees <= 4);
    }

    #[test]
    fn defaults_validate_with_uniform_links() {
        let c = TrainConfig::default();
        assert!(c.wan_spread.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn layer_counts_outside_1_to_24_are_rejected() {
        let with_layers = |max_layers: usize| TrainConfig {
            gbdt: GbdtParams { max_layers, ..Default::default() },
            ..TrainConfig::default()
        };
        for bad in [0, MAX_LAYERS + 1] {
            assert_eq!(
                with_layers(bad).validate(),
                Err(ConfigError::MaxLayersOutOfRange { max_layers: bad })
            );
        }
        assert!(with_layers(1).validate().is_ok());
        assert!(with_layers(MAX_LAYERS).validate().is_ok());
    }

    #[test]
    fn degenerate_wan_spreads_are_rejected() {
        for (bw, lat) in [(0.0, 1.0), (-1.0, 1.0), (f64::NAN, 1.0), (0.5, -0.5), (0.5, f64::NAN)] {
            let c = TrainConfig {
                wan_spread: Some(WanSpread { slowest_bandwidth_frac: bw, latency_mult: lat }),
                ..TrainConfig::default()
            };
            assert!(c.validate().is_err(), "spread ({bw}, {lat}) must be rejected");
        }
    }

    #[test]
    fn wan_spread_interpolates_from_base_to_slowest() {
        let cfg = TrainConfig {
            wan: WanConfig {
                bandwidth_bytes_per_sec: 1_000_000.0,
                latency: Duration::from_millis(10),
                per_message_overhead_bytes: 64,
            },
            wan_spread: Some(WanSpread { slowest_bandwidth_frac: 0.25, latency_mult: 4.0 }),
            ..TrainConfig::default()
        };
        let first = cfg.wan_for_host(0, 4);
        let last = cfg.wan_for_host(3, 4);
        assert!((first.bandwidth_bytes_per_sec - 1_000_000.0).abs() < 1e-6);
        assert_eq!(first.latency, Duration::from_millis(10));
        assert!((last.bandwidth_bytes_per_sec - 250_000.0).abs() < 1e-6);
        assert_eq!(last.latency, Duration::from_millis(40));
        // Without a spread (or with a single host) every link is the base.
        let plain = TrainConfig { wan_spread: None, ..cfg };
        assert_eq!(plain.wan_for_host(3, 4), cfg.wan);
        assert_eq!(cfg.wan_for_host(0, 1), cfg.wan);
    }
}
