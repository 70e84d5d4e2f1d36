//! # vf2boost-core
//!
//! The paper's primary contribution: a vertical federated GBDT engine with
//! the VF²Boost optimizations.
//!
//! ## Roles
//!
//! * The **guest** (the paper's *Party B*) owns the labels and the Paillier
//!   private key. It computes and encrypts gradient statistics, builds
//!   plaintext histograms over its own features, decrypts host histograms,
//!   and performs all split finding.
//! * Each **host** (*Party A*) owns only features. It accumulates the
//!   encrypted gradient statistics into per-node histograms via homomorphic
//!   addition and recovers split feature/value when it owns a winning split.
//!
//! ## Protocols
//!
//! There is one protocol and one tree loop. [`protocol::ProtocolConfig`] is
//! a struct of independent toggles over it, each one of the paper's
//! techniques, so every ablation row is a combination of fields:
//!
//! * [`protocol::ProtocolConfig::baseline`] — everything off: the
//!   SecureBoost-style phase-sequential timing (the paper's **VF-GBDT**).
//! * [`protocol::ProtocolConfig::vf2boost`] — everything on: **blaster-style
//!   encryption** (§4.1), **optimistic node-splitting** with dirty-node
//!   rollback (§4.2), **re-ordered histogram accumulation** (§5.1), and
//!   **polynomial-based histogram packing** (§5.2).
//!
//! Selecting the plaintext mock suite reproduces **VF-MOCK** (protocol
//! overhead without cryptography).
//!
//! The [`train`] module spawns one thread per party, wires them with
//! simulated WAN links from `vf2-channel`, and returns the trained
//! [`model::FederatedModel`] plus per-party [`telemetry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-free policy: non-test code may not unwrap/expect. A federated run
// crosses enterprise boundaries, so every "impossible" state is either a
// typed error ([`error::ProtocolError::InvariantViolated`]) or a local
// `#[allow]` carrying a proof of infallibility. Enforced by ci.sh via
// `cargo clippy --lib -- -D warnings`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod config;
pub mod error;
mod grad_path;
mod grow;
pub mod guest;
pub mod hist_enc;
pub mod host;
pub mod json;
pub mod messages;
pub mod model;
mod peer;
pub mod persist;
pub mod protocol;
pub mod rows;
mod serve;
pub mod session;
pub mod telemetry;
pub mod trace;
pub mod train;
pub mod wire;

pub use chaos::ChaosPlan;
pub use config::TrainConfig;
pub use error::{PartyId, ProtocolError, ProtocolPhase, TrainError, TrainFailure};
pub use model::{FedNode, FedTree, FederatedModel};
pub use persist::{decode_model, encode_model, load_model, save_model};
pub use protocol::ProtocolConfig;
pub use session::SessionConfig;
pub use telemetry::{LinkFaultEvents, PartyTelemetry, PhaseTimes, TrainReport};
pub use trace::{TraceEvent, TraceEventKind, TracePhase, TraceRing};
pub use train::{train_federated, train_federated_session, TrainOutput};
