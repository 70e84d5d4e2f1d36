//! Shared harness utilities for the table/figure benches.
//!
//! Every bench target regenerates one table or figure of the paper's §6 at
//! a laptop-scale parameterization. Two environment variables rescale the
//! experiments:
//!
//! * `VF2_SCALE` — multiplies every instance count (default 1.0; the
//!   printed headers state the absolute sizes used).
//! * `VF2_KEY_BITS` — Paillier modulus size (default 512; the paper uses
//!   2048 — raise it on a beefier machine to reproduce absolute ratios
//!   closer to the paper's).
//!
//! Every time a bench prints is a measured wall time, or a per-party
//! phase total that is itself a sum of wall-clock spans (see
//! `vf2boost_core::telemetry`); speedups are ratios of walls on the machine
//! the header names. The one model left, Table 5's worker-scaling
//! prediction, is printed beside the measurement it predicts with its
//! error.

use std::time::Duration;

use vf2_channel::WanConfig;
use vf2boost_core::config::{CryptoConfig, TrainConfig};

/// Reads `VF2_SCALE` (default `1.0`).
pub fn scale() -> f64 {
    std::env::var("VF2_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Reads `VF2_KEY_BITS` (default 512).
pub fn key_bits() -> u64 {
    std::env::var("VF2_KEY_BITS").ok().and_then(|s| s.parse().ok()).unwrap_or(512)
}

/// Cores this process may run on: every wall a bench prints depends on it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
}

/// Scales an instance count by [`scale`], keeping a sane floor.
pub fn scaled_rows(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(64)
}

/// A default experiment config: Paillier at [`key_bits`], one worker per
/// party, instant in-process links. Benches whose claim is about hiding
/// the wire (Tables 1–2) set `wan` to `WanConfig::paper_public_network()`
/// so the 300 Mbps link is inside the wall they report.
pub fn base_config() -> TrainConfig {
    TrainConfig {
        crypto: CryptoConfig::Paillier { key_bits: key_bits() },
        encoding: vf2_crypto::encoding::EncodingConfig { base: 16, base_exp: 8, jitter: 4 },
        wan: WanConfig::instant(),
        workers: 1,
        seed: 42,
        ..TrainConfig::default()
    }
}

/// Pretty seconds.
pub fn secs(d: Duration) -> String {
    format!("{:8.3}", d.as_secs_f64())
}

/// Speedup annotation `(x.yz×)` relative to a baseline duration.
pub fn speedup(base: Duration, other: Duration) -> String {
    if other.as_secs_f64() <= 0.0 {
        return "   -  ".into();
    }
    format!("({:.2}x)", base.as_secs_f64() / other.as_secs_f64())
}

/// Prints a standard bench header.
pub fn header(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    println!("{detail}");
    println!(
        "scale={} key_bits={} cores={} (set VF2_SCALE / VF2_KEY_BITS to rescale)\n",
        scale(),
        key_bits(),
        cores()
    );
}
