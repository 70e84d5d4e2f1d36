//! Error types for the cryptographic substrate.

use std::fmt;

/// Errors produced by encoding, encryption, or packing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// The value cannot be represented in the plaintext space without
    /// overflowing the safe range `(-n/3, n/3)`.
    EncodingOverflow {
        /// Human-readable description of the overflowing quantity.
        what: String,
    },
    /// A decoded plaintext landed in the ambiguous middle third of the
    /// modulus, indicating that homomorphic additions overflowed.
    DecodingOverflow,
    /// Packing parameters do not fit in the plaintext space.
    PackingCapacity {
        /// Requested number of packed slots.
        requested: usize,
        /// Maximum slots that fit for this key and slot width.
        max: usize,
    },
    /// A packed value would not fit in its `M`-bit slot.
    PackedValueTooLarge {
        /// Index of the offending slot.
        slot: usize,
    },
    /// A cipher was not invertible modulo `n²`, so it cannot be negated.
    /// Honest ciphers are always units; this indicates a corrupted or
    /// foreign cipher (a multiple of `p` or `q` slipped in).
    NonInvertibleCipher,
    /// Two operands whose shapes must agree (histogram lengths, builder
    /// strategies, packed bin counts) did not. At a trust boundary this
    /// means the peer sent data inconsistent with the negotiated layout;
    /// it must be a typed error, not a `debug_assert!`, so release builds
    /// reject it too.
    ShapeMismatch {
        /// The operation whose operands disagreed.
        context: &'static str,
        /// Left operand's shape (length / count / flag as usize).
        left: usize,
        /// Right operand's shape.
        right: usize,
    },
    /// An operation requiring the private key was attempted without one.
    MissingPrivateKey,
    /// Key generation failed (e.g. requested size too small).
    KeyGeneration(String),
    /// Plain/Paillier suite variants were mixed in one operation.
    SuiteMismatch,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::EncodingOverflow { what } => {
                write!(f, "fixed-point encoding overflow: {what}")
            }
            CryptoError::DecodingOverflow => {
                write!(f, "decoded plaintext fell in the overflow region of the modulus")
            }
            CryptoError::PackingCapacity { requested, max } => {
                write!(f, "cannot pack {requested} slots: at most {max} fit in the plaintext space")
            }
            CryptoError::PackedValueTooLarge { slot } => {
                write!(f, "value in packing slot {slot} exceeds the slot width")
            }
            CryptoError::NonInvertibleCipher => {
                write!(f, "cipher is not a unit modulo n² and cannot be negated")
            }
            CryptoError::ShapeMismatch { context, left, right } => {
                write!(f, "shape mismatch in {context}: {left} vs {right}")
            }
            CryptoError::MissingPrivateKey => {
                write!(f, "operation requires a private key but none is available")
            }
            CryptoError::KeyGeneration(msg) => write!(f, "key generation failed: {msg}"),
            CryptoError::SuiteMismatch => {
                write!(f, "mixed plaintext and Paillier values in one operation")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CryptoError>;
