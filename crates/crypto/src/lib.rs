//! # vf2-crypto
//!
//! Cryptographic substrate for [VF²Boost] (SIGMOD 2021): a pure-Rust
//! implementation of the Paillier additive homomorphic cryptosystem together
//! with the GBDT-customized operations the paper builds on top of it:
//!
//! * **Fixed-point encoding** of floating-point gradient statistics into the
//!   Paillier plaintext space, carrying an *exponent* term that may be
//!   jittered to obfuscate value ranges (paper §2.2).
//! * **Exponent-aware homomorphic addition** — adding two ciphers whose
//!   exponents differ requires a cipher *scaling* (a scalar multiplication),
//!   the cost the re-ordered accumulation technique of §5.1 avoids
//!   ([`Suite::add`] scales and counts it; [`Suite::add_resident`] is the
//!   same HAdd on ciphers held in Montgomery form, one limb product inside
//!   per-exponent workspaces).
//! * **Polynomial-based cipher packing** (§5.2) — packing `t` bounded
//!   plaintexts into a single cipher so one decryption recovers all of them.
//! * A **plaintext mock suite** implementing the identical API so that the
//!   federated protocol can run without cryptography (the paper's VF-MOCK).
//!
//! Numbers live on two storeys: the **keys** ([`paillier`]: raw integer
//! ops modulo `n²`, each counted) and the **suite** ([`suite`]: exponents,
//! encoding, alignment, packing, the mock). [`EncryptedNumber`] between them
//! is data — a cipher and its exponent — with no methods of its own.
//!
//! | module | paper section |
//! |---|---|
//! | [`math`] | number-theoretic primitives (primality, CRT) |
//! | [`fixed`] | fixed-width limb arithmetic (stack-allocated bignums) |
//! | [`montgomery`] | CIOS Montgomery core + width-dispatched `modpow`; [`Resident`] residues |
//! | [`paillier`] | §2.2 cryptosystem (keygen, encrypt, decrypt, HAdd, SMul) |
//! | [`encoding`] | §2.2 fixed-point `⟨e, V⟩` encoding ([`encoding::encode`] / [`FixedPoint`]) |
//! | [`packing`] | §5.2 polynomial-based packing |
//! | [`suite`] | unified cipher suite (Paillier or plaintext mock): every exponent-aware operation |
//! | [`counters`] | per-operation counters feeding the paper's cost model |
//!
//! [VF²Boost]: https://doi.org/10.1145/3448016.3457241

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Shipping code must not panic on fallible paths; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod counters;
pub mod encoding;
pub mod error;
pub mod fixed;
pub mod math;
pub mod montgomery;
pub mod packing;
pub mod paillier;
pub mod seed;
pub mod suite;

pub use counters::OpCounters;
pub use encoding::{EncodingConfig, FixedPoint};
pub use error::{CryptoError, Result};
pub use fixed::Fixed;
pub use montgomery::{MontCost, MontExp, Resident};
pub use packing::{pack_ciphers, unpack_plaintext, GhPlan, PackingPlan};
pub use paillier::{KeyPair, PrivateKey, PublicKey};
pub use seed::split_seed;
pub use suite::{
    Ciphertext, EncryptedNumber, PackedCiphertext, ResidentCiphertext, Suite, SuiteKind,
};
