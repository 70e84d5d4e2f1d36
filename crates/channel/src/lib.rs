//! # vf2-channel
//!
//! Cross-party communication for the federated protocol.
//!
//! The paper routes all cross-enterprise traffic through message queues on
//! gateway machines (Apache Pulsar) because the parties sit in different
//! data centers behind restricted networks (§3.1). This crate reproduces
//! the *behavioural* properties that matter to the protocol:
//!
//! * **Simulated WAN** — every message pays `latency + bytes/bandwidth` on
//!   a FIFO link (the paper's clusters talk over a 300 Mbps public link),
//!   so cipher size directly translates into transfer time, exactly the
//!   cost the blaster-style encryption and histogram packing attack.
//! * **Reliable exactly-once delivery** — sequence-numbered, CRC-32
//!   checksummed envelopes with cumulative acks, retransmission on
//!   timeout (exponential backoff + jitter), duplicate suppression and
//!   in-order reassembly (Pulsar's effectively-once semantics, hardened
//!   for a hostile wire).
//! * **Deterministic fault injection** — a seeded [`fault::FaultConfig`]
//!   plan makes each direction drop, duplicate, reorder, corrupt, stall
//!   or disconnect on schedule, so chaos tests replay bit-for-bit.
//! * **Transfer accounting** — per-link byte/message counters (Table 2's
//!   "network transmission per tree" row) plus fault counters
//!   (retransmissions, acks, corrupt frames rejected, duplicates
//!   suppressed).
//! * A compact binary [`codec`] whose encoded size *is* the wire size used
//!   by the WAN model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-free policy: non-test code may not unwrap/expect. Wire faults are
// expected operating conditions here, so every fallible path returns a
// typed error; the two thread-spawn `expect`s carry local `#[allow]`s with
// a justification. Enforced by ci.sh via `cargo clippy --lib -- -D warnings`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod fault;
pub mod link;

pub use codec::{checksum, Checksum, Decoder, Encoder};
pub use fault::{FaultConfig, ReliabilityConfig, StallWindow};
pub use link::{
    duplex, duplex_faulty, recv_ready, Endpoint, Envelope, LinkStats, RecvError, RecvReady,
    WanConfig,
};
