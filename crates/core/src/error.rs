//! Error hierarchy for panic-free federated training.
//!
//! A federated run crosses enterprise boundaries: the peer may crash, the
//! gateway may blackhole a direction, a message may be malformed. None of
//! those conditions are programming errors, so none of them may panic —
//! they surface as [`TrainError`] values, and a failed
//! [`crate::train::train_federated`] run additionally hands back whatever
//! telemetry the surviving parties gathered (see [`TrainFailure`]).
//!
//! Layering:
//!
//! * [`ProtocolError`] — the peer violated the protocol (undecodable,
//!   out-of-phase or inadmissible message, a gradient stream that ends
//!   short). With the reliable
//!   delivery sublayer of `vf2-channel` underneath, these indicate a buggy
//!   or hostile peer rather than a noisy wire.
//! * [`TrainError`] — everything that can abort a run: protocol
//!   violations, crypto failures, invalid caller input, a silent peer
//!   ([`TrainError::PeerLost`]), or a party thread that panicked.

use std::time::Duration;

use vf2_crypto::CryptoError;

use crate::telemetry::{PartyTelemetry, TrainReport, TreeRecord};
use crate::wire::WireError;

/// Identifies one party of the federation in error reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartyId {
    /// The label owner / protocol driver (the paper's Party B).
    Guest,
    /// Feature-only host party `p` (the paper's Party A instances).
    Host(usize),
}

impl std::fmt::Display for PartyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartyId::Guest => write!(f, "guest"),
            PartyId::Host(p) => write!(f, "host-{p}"),
        }
    }
}

/// The protocol phase a party was in when it lost its peer. Deadlines are
/// per *phase wait*: each blocking cross-party receive gets the full
/// [`crate::config::TrainConfig::peer_timeout`] budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolPhase {
    /// Waiting for the initial `FeatureMeta` greeting.
    Hello,
    /// Waiting for (more) encrypted gradient batches.
    Gradients,
    /// Waiting for histograms / placements while growing a tree.
    TreeBuild,
}

impl std::fmt::Display for ProtocolPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolPhase::Hello => write!(f, "hello"),
            ProtocolPhase::Gradients => write!(f, "gradients"),
            ProtocolPhase::TreeBuild => write!(f, "tree-build"),
        }
    }
}

/// A peer violated the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// A message failed to decode.
    Malformed {
        /// The sending party.
        from: PartyId,
        /// The decode failure.
        error: WireError,
    },
    /// A structurally valid message arrived where it makes no sense.
    UnexpectedMessage {
        /// The sending party.
        from: PartyId,
        /// The message kind tag.
        kind: u16,
        /// What the receiver was doing.
        context: &'static str,
    },
    /// The final gradient batch left rows uncovered.
    IncompleteGradients {
        /// Rows the host's dataset holds.
        expected: usize,
        /// Rows covered by the received batches.
        got: usize,
    },
    /// The peer's message sequence broke a protocol-state invariant the
    /// receiver relies on (e.g. a tree the guest finished that fails its
    /// structural check). These sites used to be `expect(...)` panics;
    /// they are peer-triggerable, so they must surface as typed errors.
    InvariantViolated {
        /// The party whose messages broke the invariant.
        party: PartyId,
        /// The invariant that failed to hold.
        context: &'static str,
    },
    /// A structurally valid message arrived in a protocol phase whose
    /// transition set does not admit it (phase-skip, future tree, a
    /// response to a request that was never issued). Raised by either
    /// role's one admission, in its core.
    OutOfPhase {
        /// The sending party.
        from: PartyId,
        /// The message kind tag.
        kind: u16,
        /// The receiver's protocol phase when the message arrived.
        phase: &'static str,
        /// Which transition rule rejected it.
        context: &'static str,
    },
    /// The peer re-sent something it already delivered (replayed gradient
    /// batch, duplicate histogram for the same `(node, epoch)`, repeated
    /// placement). The reliability sublayer dedups wire-level duplicates,
    /// so a protocol-level replay indicates a deviating peer.
    StaleOrReplayed {
        /// The sending party.
        from: PartyId,
        /// The message kind tag.
        kind: u16,
        /// Which dedup rule caught it.
        context: &'static str,
    },
    /// The message is in phase but its payload contradicts locally-known
    /// bounds: histogram lengths vs negotiated bin counts, indices outside
    /// tree/meta bounds, ciphertexts outside `[0, n²)`, row ranges past
    /// the declared instance count. Raised by either role's one admission,
    /// the run's gradient path judging the ciphers first.
    Inadmissible {
        /// The sending party.
        from: PartyId,
        /// The message kind tag.
        kind: u16,
        /// Which bound the payload violated.
        context: &'static str,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Malformed { from, error } => {
                write!(f, "malformed message from {from}: {error}")
            }
            ProtocolError::UnexpectedMessage { from, kind, context } => {
                write!(f, "unexpected message kind {kind} from {from} ({context})")
            }
            ProtocolError::IncompleteGradients { expected, got } => {
                write!(f, "final gradient batch covers {got} of {expected} rows")
            }
            ProtocolError::InvariantViolated { party, context } => {
                write!(f, "message sequence from {party} broke invariant: {context}")
            }
            ProtocolError::OutOfPhase { from, kind, phase, context } => {
                write!(
                    f,
                    "out-of-phase message kind {kind} from {from} in phase {phase}: {context}"
                )
            }
            ProtocolError::StaleOrReplayed { from, kind, context } => {
                write!(f, "stale or replayed message kind {kind} from {from}: {context}")
            }
            ProtocolError::Inadmissible { from, kind, context } => {
                write!(f, "inadmissible payload in message kind {kind} from {from}: {context}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A configuration that can never work: supervision windows that
/// contradict each other (the run would either hang forever or declare
/// every peer dead instantly), a tree shape no party can allocate, or bins
/// no party can index.
/// Caught by [`crate::config::TrainConfig::validate`] before any party
/// starts.
// (`Eq` is off: the WAN-spread variant carries `f64` bounds.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `peer_timeout == 0` or `peer_dead_after == 0`: every blocking
    /// cross-party wait would expire immediately, before the peer could
    /// possibly answer.
    ZeroPeerTimeout,
    /// A [`crate::config::WanSpread`] with a non-finite or non-positive
    /// bandwidth fraction, or a non-finite / negative latency multiple —
    /// the interpolated links would have zero or undefined capacity.
    InvalidWanSpread {
        /// The rejected slowest-link bandwidth fraction.
        bandwidth_frac: f64,
        /// The rejected slowest-link latency multiple.
        latency_mult: f64,
    },
    /// `gbdt.max_layers` outside `1..=`[`vf2_gbdt::tree::MAX_LAYERS`]: every
    /// party sizes per-tree state as `2^max_layers − 1` heap slots, so zero
    /// layers leaves no root and a large count is an allocation (or a shift
    /// overflow) the caller did not mean.
    MaxLayersOutOfRange {
        /// The rejected layer count.
        max_layers: usize,
    },
    /// `gbdt.binning.num_bins` above `u16::MAX`: every party codes a bin in
    /// 16 bits, so a larger count would wrap bin indices silently.
    TooManyBins(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPeerTimeout => write!(
                f,
                "peer_timeout or peer_dead_after is zero; every cross-party wait would expire \
                 instantly"
            ),
            ConfigError::InvalidWanSpread { bandwidth_frac, latency_mult } => write!(
                f,
                "WAN spread (slowest bandwidth fraction {bandwidth_frac}, latency multiple \
                 {latency_mult}) is degenerate; links need finite positive capacity"
            ),
            ConfigError::MaxLayersOutOfRange { max_layers } => write!(
                f,
                "gbdt.max_layers is {max_layers}; a tree has 1 to {} layers",
                vf2_gbdt::tree::MAX_LAYERS
            ),
            ConfigError::TooManyBins(bins) => write!(f, "gbdt.binning.num_bins is {bins} > 65535"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Anything that can abort a federated training run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The caller's inputs are unusable (misaligned datasets, missing
    /// labels, labels on a host).
    InvalidInput(String),
    /// The configuration is self-contradictory (see [`ConfigError`]);
    /// rejected before any party thread starts.
    InvalidConfig(ConfigError),
    /// A cryptographic operation failed.
    Crypto {
        /// The operation that failed.
        context: &'static str,
        /// The underlying failure.
        error: CryptoError,
    },
    /// The peer violated the protocol.
    Protocol(ProtocolError),
    /// The peer went silent: nothing arrived within the per-phase
    /// deadline, or its endpoint disconnected without an orderly
    /// shutdown.
    PeerLost {
        /// The party that stopped talking.
        party: PartyId,
        /// The phase the receiver was blocked in.
        phase: ProtocolPhase,
        /// How long the receiver waited before giving up.
        waited: Duration,
    },
    /// A party thread panicked; the panic was caught at `join()`.
    PartyPanicked {
        /// The party whose thread died.
        party: PartyId,
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// A party failed to initialize (e.g. its worker pool).
    Setup {
        /// The party that failed to come up.
        party: PartyId,
        /// What went wrong.
        detail: String,
    },
    /// The resume handshake failed: the parties disagree on the session
    /// identity, or a checkpoint the handshake promised is missing or
    /// inconsistent with the run configuration.
    ResumeMismatch {
        /// The party reporting the disagreement.
        party: PartyId,
        /// What disagreed.
        detail: String,
    },
    /// A durable checkpoint could not be written or read back.
    Checkpoint {
        /// The party whose checkpoint failed.
        party: PartyId,
        /// The underlying persistence failure.
        detail: String,
    },
    /// The peer exceeded its misbehavior tolerance budget
    /// ([`crate::config::TrainConfig::misbehavior_budget`]): more protocol
    /// violations were observed from it than the run tolerates.
    PeerMisbehaving {
        /// The deviating party.
        party: PartyId,
        /// Violations observed from it (including the final one).
        violations: u64,
        /// The configured tolerance budget that was exceeded.
        budget: u32,
        /// The violation that tripped the budget (boxed to keep the
        /// common `Result` path small).
        last: Box<ProtocolError>,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
            TrainError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            TrainError::Crypto { context, error } => {
                write!(f, "crypto failure during {context}: {error:?}")
            }
            TrainError::Protocol(e) => write!(f, "protocol violation: {e}"),
            TrainError::PeerLost { party, phase, waited } => {
                write!(f, "{party} lost during {phase} (waited {waited:?})")
            }
            TrainError::PartyPanicked { party, detail } => {
                write!(f, "{party} thread panicked: {detail}")
            }
            TrainError::Setup { party, detail } => {
                write!(f, "{party} failed to initialize: {detail}")
            }
            TrainError::ResumeMismatch { party, detail } => {
                write!(f, "{party} resume mismatch: {detail}")
            }
            TrainError::Checkpoint { party, detail } => {
                write!(f, "{party} checkpoint failure: {detail}")
            }
            TrainError::PeerMisbehaving { party, violations, budget, last } => {
                write!(
                    f,
                    "{party} is misbehaving: {violations} protocol violations \
                     (budget {budget}); last: {last}"
                )
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainError {
    /// `map_err` adapter for crypto results:
    /// `suite.decrypt(c).map_err(TrainError::crypto("histogram decryption"))`.
    pub fn crypto(context: &'static str) -> impl Fn(CryptoError) -> TrainError {
        move |error| TrainError::Crypto { context, error }
    }
}

/// Renders a caught panic payload for [`TrainError::PartyPanicked`].
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl From<ProtocolError> for TrainError {
    fn from(e: ProtocolError) -> TrainError {
        TrainError::Protocol(e)
    }
}

impl From<ConfigError> for TrainError {
    fn from(e: ConfigError) -> TrainError {
        TrainError::InvalidConfig(e)
    }
}

/// A failed guest run: the error plus the telemetry gathered up to the
/// failure (link fault counters included), so a chaos run still reports
/// what the wire did.
#[derive(Debug)]
pub struct GuestFailure {
    /// Why the guest aborted.
    pub error: TrainError,
    /// Partial guest telemetry.
    pub telemetry: Box<PartyTelemetry>,
    /// Trees completed before the failure.
    pub tree_records: Vec<TreeRecord>,
}

/// A failed host run: the error plus the host's partial telemetry.
#[derive(Debug)]
pub struct HostFailure {
    /// Why the host aborted.
    pub error: TrainError,
    /// Partial host telemetry.
    pub telemetry: Box<PartyTelemetry>,
}

/// A failed end-to-end run: the primary error plus a partial
/// [`TrainReport`] assembled from every party that could still be joined.
#[derive(Debug)]
pub struct TrainFailure {
    /// The first error that brought the run down.
    pub error: TrainError,
    /// Telemetry gathered before the failure (phase times, fault
    /// counters, completed-tree records).
    pub partial: Box<TrainReport>,
}

impl std::fmt::Display for TrainFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)
    }
}

impl std::error::Error for TrainFailure {}

impl From<TrainError> for TrainFailure {
    fn from(error: TrainError) -> TrainFailure {
        TrainFailure { error, partial: Box::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable() {
        let e = TrainError::PeerLost {
            party: PartyId::Host(2),
            phase: ProtocolPhase::TreeBuild,
            waited: Duration::from_secs(5),
        };
        assert_eq!(e.to_string(), "host-2 lost during tree-build (waited 5s)");
        let p: TrainError = ProtocolError::IncompleteGradients { expected: 64, got: 0 }.into();
        assert!(p.to_string().contains("covers 0 of 64 rows"));
        assert!(TrainError::PartyPanicked { party: PartyId::Guest, detail: "boom".into() }
            .to_string()
            .contains("guest thread panicked: boom"));
        assert_eq!(
            TrainError::ResumeMismatch { party: PartyId::Host(0), detail: "session 1 vs 2".into() }
                .to_string(),
            "host-0 resume mismatch: session 1 vs 2"
        );
        assert!(TrainError::Checkpoint { party: PartyId::Guest, detail: "io: denied".into() }
            .to_string()
            .contains("guest checkpoint failure"));
        let inv: TrainError = ProtocolError::InvariantViolated {
            party: PartyId::Guest,
            context: "node task before tree state",
        }
        .into();
        assert_eq!(
            inv.to_string(),
            "protocol violation: message sequence from guest broke invariant: \
             node task before tree state"
        );
    }

    #[test]
    fn admission_errors_render_human_readable() {
        let oop: TrainError = ProtocolError::OutOfPhase {
            from: PartyId::Guest,
            kind: 3,
            phase: "await-resume",
            context: "node task before resume handshake",
        }
        .into();
        assert_eq!(
            oop.to_string(),
            "protocol violation: out-of-phase message kind 3 from guest in phase \
             await-resume: node task before resume handshake"
        );
        let stale = ProtocolError::StaleOrReplayed {
            from: PartyId::Host(1),
            kind: 4,
            context: "duplicate histogram for (node, epoch)",
        };
        assert!(stale.to_string().contains("stale or replayed message kind 4 from host-1"));
        let inad = ProtocolError::Inadmissible {
            from: PartyId::Host(0),
            kind: 4,
            context: "histogram length != negotiated bins",
        };
        assert!(inad.to_string().contains("inadmissible payload in message kind 4"));
        let trip = TrainError::PeerMisbehaving {
            party: PartyId::Host(0),
            violations: 3,
            budget: 2,
            last: Box::new(stale),
        };
        let s = trip.to_string();
        assert!(s.contains("host-0 is misbehaving: 3 protocol violations (budget 2)"), "{s}");
        assert!(s.contains("last: stale or replayed"), "{s}");
    }

    #[test]
    fn failure_from_error_has_empty_partial_report() {
        let f: TrainFailure = TrainError::InvalidInput("no labels".into()).into();
        assert!(f.partial.hosts.is_empty());
        assert_eq!(f.to_string(), "invalid input: no labels");
    }
}
