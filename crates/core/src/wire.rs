//! Wire serialization of protocol messages.
//!
//! Every [`Msg`] is encoded through `vf2-channel`'s codec; the resulting
//! byte length is exactly what the WAN simulation charges, so a 2S-bit
//! Paillier cipher costs its true size on the wire while a mock cipher
//! costs 12 bytes — the honest basis for comparing VF-GBDT against VF-MOCK.

use bytes::Bytes;
use num_bigint::BigUint;
use vf2_channel::codec::{DecodeError, Decoder, Encoder};
use vf2_crypto::suite::{Ciphertext, EncryptedNumber, PackedCiphertext, PlainNumber};

use crate::messages::{
    FeatureMeta, GhPackedFeatureHist, HistPayload, Msg, PackedFeatureHist, RawFeatureHist,
};

/// Hard protocol maxima enforced at decode time, before any allocation.
///
/// The decoder's generic length guard already ties announced counts to the
/// bytes actually present, but a peer can still ship megabytes of payload
/// to justify a huge count. These ceilings bound every dimension a message
/// can declare to values far beyond any honest run yet far below anything
/// that could exhaust the receiver.
pub mod limits {
    /// Features one party may announce or send histograms for.
    pub const MAX_FEATURES: usize = 1 << 16;
    /// Rows one blaster gradient batch may carry.
    pub const MAX_BATCH_ROWS: usize = 1 << 22;
    /// Packed ciphertexts per feature histogram (bins are `u16`, and each
    /// packed cipher holds at least one bin).
    pub const MAX_PACKED_PER_FEATURE: usize = u16::MAX as usize;
    /// Slots one packed ciphertext may declare (bounds the unpack loop).
    pub const MAX_PACKED_SLOTS: usize = 1 << 12;
    /// Bits per packing slot (bounds the shift work during unpacking).
    pub const MAX_SLOT_BITS: u32 = 1 << 16;
    /// Entries in a session hello's durable-checkpoint list.
    pub const MAX_DURABLE: usize = 1 << 16;
}

/// Wire decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying codec failed.
    Codec(DecodeError),
    /// An unknown tag was encountered.
    BadTag(&'static str, u64),
    /// A length prefix announces more elements than the remaining payload
    /// could possibly hold (allocation-bomb guard).
    Oversized {
        /// What was being decoded.
        what: &'static str,
        /// The announced element count.
        len: u64,
        /// Bytes actually left in the payload.
        remaining: usize,
    },
    /// A declared count exceeds the protocol maximum for its dimension
    /// ([`limits`]), regardless of how much payload backs it.
    OverLimit {
        /// What was being decoded.
        what: &'static str,
        /// The announced count.
        len: u64,
        /// The protocol ceiling it exceeded.
        max: usize,
    },
    /// A count to *encode* exceeds its fixed-width wire field, so writing
    /// it would silently truncate. Encoding refuses instead: a message
    /// that cannot round-trip must never leave the process.
    EncodeOverflow {
        /// What was being encoded.
        what: &'static str,
        /// The count that does not fit.
        count: u64,
    },
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Codec(e)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Codec(e) => write!(f, "codec error: {e}"),
            WireError::BadTag(what, v) => write!(f, "bad {what} tag {v}"),
            WireError::Oversized { what, len, remaining } => {
                write!(f, "{what} count {len} cannot fit in {remaining} remaining bytes")
            }
            WireError::OverLimit { what, len, max } => {
                write!(f, "{what} count {len} exceeds the protocol maximum {max}")
            }
            WireError::EncodeOverflow { what, count } => {
                write!(f, "{what} count {count} does not fit its wire field")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Validates a decoded element count against the bytes actually present:
/// each element of `what` occupies at least `min_elem_bytes` on the wire,
/// so any announced count larger than `remaining / min_elem_bytes` is a
/// malformed (or hostile) length prefix. Rejecting it *before* reserving
/// the `Vec` keeps a garbage length from allocating gigabytes.
fn bounded_len(
    d: &Decoder,
    len: u64,
    min_elem_bytes: usize,
    what: &'static str,
) -> Result<usize, WireError> {
    let remaining = d.remaining();
    if (len as u128) * (min_elem_bytes as u128) > remaining as u128 {
        return Err(WireError::Oversized { what, len, remaining });
    }
    Ok(len as usize)
}

/// Rejects a decoded count that exceeds its protocol ceiling ([`limits`]).
fn capped_len(len: usize, max: usize, what: &'static str) -> Result<usize, WireError> {
    if len > max {
        return Err(WireError::OverLimit { what, len: len as u64, max });
    }
    Ok(len)
}

fn put_ciphertext(e: &mut Encoder, c: &Ciphertext) {
    match c {
        Ciphertext::Paillier(enc) => {
            e.put_u8(0);
            e.put_i32(enc.exponent);
            e.put_bytes(&enc.cipher.to_bytes_le());
        }
        Ciphertext::Plain(p) => {
            e.put_u8(1);
            e.put_i32(p.exponent);
            e.put_f64(p.value);
        }
    }
}

fn get_ciphertext(d: &mut Decoder) -> Result<Ciphertext, WireError> {
    match d.get_u8()? {
        0 => {
            let exponent = d.get_i32()?;
            let bytes = d.get_bytes()?;
            Ok(Ciphertext::Paillier(EncryptedNumber {
                cipher: BigUint::from_bytes_le(&bytes),
                exponent,
            }))
        }
        1 => {
            let exponent = d.get_i32()?;
            let value = d.get_f64()?;
            Ok(Ciphertext::Plain(PlainNumber { value, exponent }))
        }
        t => Err(WireError::BadTag("ciphertext", t as u64)),
    }
}

/// Writes a count into a `u32` wire field, refusing (typed) rather than
/// truncating when it does not fit. Every count encode routes through
/// here so no `as u32` cast can silently wrap past `u32::MAX`.
fn put_count_u32(e: &mut Encoder, count: usize, what: &'static str) -> Result<(), WireError> {
    let v = u32::try_from(count)
        .map_err(|_| WireError::EncodeOverflow { what, count: count as u64 })?;
    e.put_u32(v);
    Ok(())
}

fn put_packed(e: &mut Encoder, p: &PackedCiphertext) -> Result<(), WireError> {
    match p {
        PackedCiphertext::Paillier { cipher, exponent, count, slot_bits } => {
            e.put_u8(0);
            e.put_i32(*exponent);
            put_count_u32(e, *count, "packed slot count")?;
            e.put_u32(*slot_bits);
            e.put_bytes(&cipher.to_bytes_le());
        }
        PackedCiphertext::Plain(values) => {
            e.put_u8(1);
            e.put_f64_slice(values);
        }
    }
    Ok(())
}

fn get_packed(d: &mut Decoder) -> Result<PackedCiphertext, WireError> {
    match d.get_u8()? {
        0 => {
            let exponent = d.get_i32()?;
            let count =
                capped_len(d.get_u32()? as usize, limits::MAX_PACKED_SLOTS, "packed slot count")?;
            let slot_bits = d.get_u32()?;
            if slot_bits > limits::MAX_SLOT_BITS {
                return Err(WireError::OverLimit {
                    what: "packed slot bits",
                    len: u64::from(slot_bits),
                    max: limits::MAX_SLOT_BITS as usize,
                });
            }
            let bytes = d.get_bytes()?;
            Ok(PackedCiphertext::Paillier {
                cipher: BigUint::from_bytes_le(&bytes),
                exponent,
                count,
                slot_bits,
            })
        }
        1 => Ok(PackedCiphertext::Plain(d.get_f64_slice()?)),
        t => Err(WireError::BadTag("packed ciphertext", t as u64)),
    }
}

fn put_cipher_vec(e: &mut Encoder, v: &[Ciphertext]) {
    e.put_varint(v.len() as u64);
    for c in v {
        put_ciphertext(e, c);
    }
}

fn get_cipher_vec(d: &mut Decoder) -> Result<Vec<Ciphertext>, WireError> {
    // Smallest ciphertext on the wire: tag + exponent + empty byte string.
    let announced = d.get_varint()?;
    let len = bounded_len(d, announced, 6, "ciphertext vector")?;
    let len = capped_len(len, limits::MAX_BATCH_ROWS, "ciphertext vector")?;
    (0..len).map(|_| get_ciphertext(d)).collect()
}

fn put_packed_vec(e: &mut Encoder, v: &[PackedCiphertext]) -> Result<(), WireError> {
    e.put_varint(v.len() as u64);
    for c in v {
        put_packed(e, c)?;
    }
    Ok(())
}

fn get_packed_vec(d: &mut Decoder) -> Result<Vec<PackedCiphertext>, WireError> {
    // Smallest packed ciphertext: tag + empty f64 slice.
    let announced = d.get_varint()?;
    let len = bounded_len(d, announced, 2, "packed ciphertext vector")?;
    let len = capped_len(len, limits::MAX_PACKED_PER_FEATURE, "packed ciphertext vector")?;
    (0..len).map(|_| get_packed(d)).collect()
}

/// Encodes a message to its payload bytes (use [`Msg::kind`] for the
/// envelope tag). Fails (typed) when a count does not fit its wire field
/// instead of truncating.
pub fn encode(msg: &Msg) -> Result<Bytes, WireError> {
    let mut e = Encoder::new();
    match msg {
        Msg::FeatureMeta(metas) => {
            e.put_varint(metas.len() as u64);
            for m in metas {
                e.put_u16(m.num_bins);
                e.put_u16(m.zero_bin);
            }
        }
        Msg::GradBatch { tree, start_row, g, h, last } => {
            e.put_u32(*tree);
            e.put_u32(*start_row);
            e.put_bool(*last);
            put_cipher_vec(&mut e, g);
            put_cipher_vec(&mut e, h);
        }
        Msg::PackedGradBatch { tree, start_row, gh, last } => {
            e.put_u32(*tree);
            e.put_u32(*start_row);
            e.put_bool(*last);
            put_cipher_vec(&mut e, gh);
        }
        Msg::NodeTask { tree, node, epoch } => {
            e.put_u32(*tree);
            e.put_u32(*node);
            e.put_u32(*epoch);
        }
        Msg::NodeHistograms { tree, node, epoch, payload } => {
            e.put_u32(*tree);
            e.put_u32(*node);
            e.put_u32(*epoch);
            match payload {
                HistPayload::Raw(features) => {
                    e.put_u8(0);
                    e.put_varint(features.len() as u64);
                    for f in features {
                        put_cipher_vec(&mut e, &f.g);
                        put_cipher_vec(&mut e, &f.h);
                    }
                }
                HistPayload::Packed(features) => {
                    e.put_u8(1);
                    e.put_varint(features.len() as u64);
                    for f in features {
                        e.put_u16(f.bins);
                        put_packed_vec(&mut e, &f.g)?;
                        put_packed_vec(&mut e, &f.h)?;
                    }
                }
                HistPayload::GhPacked(features) => {
                    e.put_u8(3);
                    e.put_varint(features.len() as u64);
                    for f in features {
                        e.put_u16(f.bins);
                        put_packed_vec(&mut e, &f.packed)?;
                    }
                }
            }
        }
        Msg::ApplyPlacement { tree, node, placement } => {
            e.put_u32(*tree);
            e.put_u32(*node);
            e.put_bitmap(placement);
        }
        Msg::HostSplitChosen { tree, node, feature, bin } => {
            e.put_u32(*tree);
            e.put_u32(*node);
            e.put_u32(*feature);
            e.put_u16(*bin);
        }
        Msg::Placement { tree, node, placement } => {
            e.put_u32(*tree);
            e.put_u32(*node);
            e.put_bitmap(placement);
        }
        Msg::TreeDone { tree } => {
            e.put_u32(*tree);
        }
        Msg::Shutdown => {}
        Msg::SessionHello { session_id, durable } => {
            e.put_u64(*session_id);
            e.put_varint(durable.len() as u64);
            for k in durable {
                e.put_u32(*k);
            }
        }
        Msg::Resume { session_id, tree_count } => {
            e.put_u64(*session_id);
            e.put_u32(*tree_count);
        }
    }
    Ok(e.finish())
}

/// Decodes a message from its envelope kind and payload.
pub fn decode(kind: u16, payload: Bytes) -> Result<Msg, WireError> {
    let mut d = Decoder::new(payload);
    Ok(match kind {
        1 => {
            let announced = d.get_varint()?;
            let len = bounded_len(&d, announced, 4, "feature meta vector")?;
            let len = capped_len(len, limits::MAX_FEATURES, "feature meta vector")?;
            let mut metas = Vec::with_capacity(len);
            for _ in 0..len {
                metas.push(FeatureMeta { num_bins: d.get_u16()?, zero_bin: d.get_u16()? });
            }
            Msg::FeatureMeta(metas)
        }
        2 => {
            let tree = d.get_u32()?;
            let start_row = d.get_u32()?;
            let last = d.get_bool()?;
            let g = get_cipher_vec(&mut d)?;
            let h = get_cipher_vec(&mut d)?;
            Msg::GradBatch { tree, start_row, g, h, last }
        }
        3 => Msg::NodeTask { tree: d.get_u32()?, node: d.get_u32()?, epoch: d.get_u32()? },
        4 => {
            let tree = d.get_u32()?;
            let node = d.get_u32()?;
            let epoch = d.get_u32()?;
            let payload = match d.get_u8()? {
                0 => {
                    // Smallest raw feature: two empty ciphertext vectors.
                    let announced = d.get_varint()?;
                    let len = bounded_len(&d, announced, 2, "raw histogram vector")?;
                    let len = capped_len(len, limits::MAX_FEATURES, "raw histogram vector")?;
                    let mut features = Vec::with_capacity(len);
                    for _ in 0..len {
                        let g = get_cipher_vec(&mut d)?;
                        let h = get_cipher_vec(&mut d)?;
                        features.push(RawFeatureHist { g, h });
                    }
                    HistPayload::Raw(features)
                }
                1 => {
                    // Smallest packed feature: bin count + two empty vectors.
                    let announced = d.get_varint()?;
                    let len = bounded_len(&d, announced, 4, "packed histogram vector")?;
                    let len = capped_len(len, limits::MAX_FEATURES, "packed histogram vector")?;
                    let mut features = Vec::with_capacity(len);
                    for _ in 0..len {
                        let bins = d.get_u16()?;
                        let g = get_packed_vec(&mut d)?;
                        let h = get_packed_vec(&mut d)?;
                        features.push(PackedFeatureHist { g, h, bins });
                    }
                    HistPayload::Packed(features)
                }
                3 => {
                    // Smallest GH packed feature: bin count + one empty vector.
                    let announced = d.get_varint()?;
                    let len = bounded_len(&d, announced, 3, "gh packed histogram vector")?;
                    let len = capped_len(len, limits::MAX_FEATURES, "gh packed histogram vector")?;
                    let mut features = Vec::with_capacity(len);
                    for _ in 0..len {
                        let bins = d.get_u16()?;
                        let packed = get_packed_vec(&mut d)?;
                        features.push(GhPackedFeatureHist { packed, bins });
                    }
                    HistPayload::GhPacked(features)
                }
                t => return Err(WireError::BadTag("hist payload", t as u64)),
            };
            Msg::NodeHistograms { tree, node, epoch, payload }
        }
        5 => Msg::ApplyPlacement {
            tree: d.get_u32()?,
            node: d.get_u32()?,
            placement: d.get_bitmap()?,
        },
        6 => Msg::HostSplitChosen {
            tree: d.get_u32()?,
            node: d.get_u32()?,
            feature: d.get_u32()?,
            bin: d.get_u16()?,
        },
        7 => Msg::Placement { tree: d.get_u32()?, node: d.get_u32()?, placement: d.get_bitmap()? },
        9 => Msg::TreeDone { tree: d.get_u32()? },
        10 => Msg::Shutdown,
        11 => {
            let session_id = d.get_u64()?;
            let announced = d.get_varint()?;
            let len = bounded_len(&d, announced, 4, "durable checkpoint vector")?;
            let len = capped_len(len, limits::MAX_DURABLE, "durable checkpoint vector")?;
            let mut durable = Vec::with_capacity(len);
            for _ in 0..len {
                durable.push(d.get_u32()?);
            }
            Msg::SessionHello { session_id, durable }
        }
        12 => Msg::Resume { session_id: d.get_u64()?, tree_count: d.get_u32()? },
        14 => {
            let tree = d.get_u32()?;
            let start_row = d.get_u32()?;
            let last = d.get_bool()?;
            let gh = get_cipher_vec(&mut d)?;
            Msg::PackedGradBatch { tree, start_row, gh, last }
        }
        t => return Err(WireError::BadTag("message kind", t as u64)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vf2_crypto::encoding::EncodingConfig;
    use vf2_crypto::suite::Suite;

    fn round_trip(msg: Msg) {
        let kind = msg.kind();
        let bytes = encode(&msg).expect("encode");
        let back = decode(kind, bytes).expect("decode");
        assert_eq!(back, msg);
    }

    fn paillier_ciphers(n: usize) -> Vec<Ciphertext> {
        let s = Suite::paillier_seeded(256, 42, EncodingConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        (0..n).map(|i| s.encrypt(i as f64 * 0.5 - 1.0, &mut rng).unwrap()).collect()
    }

    /// FNV-1a of a forward batch as it leaves the guest.
    fn wire_digest(gh: Vec<Ciphertext>) -> u64 {
        let bytes = encode(&Msg::PackedGradBatch { tree: 0, start_row: 0, gh, last: true });
        bytes.unwrap().iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn forward_cipher_bytes_are_pinned() {
        // Every cipher byte hangs on the order of the RNG draws behind it
        // (exponent, then obfuscator, per `seed + i` stream). A refactor
        // that reorders a draw changes these digests, and no round-trip or
        // model-equality test would notice: never re-derive the constants
        // from the code under test.
        let enc = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
        let s = Suite::paillier_seeded(256, 42, enc).unwrap();
        let g = [0.5, -0.25, 0.75, -1.0, 0.0, 0.125, -0.875, 1.0];
        let h = [0.25, 0.25, 0.125, 0.0, 0.5, 1.0, 0.0625, 0.75];
        assert_eq!(wire_digest(s.encrypt_batch(&g, 7).unwrap()), 0xecbb_b066_0d9b_997f);
        let plan = vf2_crypto::GhPlan::new(1.0, 1.0, 8, &enc).unwrap();
        assert_eq!(
            wire_digest(s.encrypt_gh_batch(&g, &h, &plan, 7).unwrap()),
            0xa905_1a47_246e_6b88
        );
    }

    #[test]
    fn return_cipher_bytes_are_pinned() {
        // The return path's twin of the forward pin: a host's paired
        // histogram answer for a fixed builder — two features of three
        // bins at two bins per packed cipher (a partial last chunk), one
        // bin empty — digested as it leaves the host, under both bignum
        // backends. Accumulation, top-ups and packing may be reorganized
        // freely; the integers mod n² they produce may not move. The
        // constant was computed by the code this path replaced: never
        // re-derive it from the code under test.
        use crate::hist_enc::EncHistBuilder;
        use crate::rows::ColMeta;
        use vf2_crypto::montgomery::CryptoBackend;
        let enc = EncodingConfig { base: 16, base_exp: 8, jitter: 4 };
        let keys = vf2_crypto::KeyPair::generate_seeded(256, 42).unwrap();
        let plan = vf2_crypto::GhPlan::new(1.0, 1.0, 8, &enc).unwrap();
        let g = [0.5, -0.25, 0.75, -1.0, 0.0, 0.125, -0.875, 1.0];
        let h = [0.25, 0.25, 0.125, 0.0, 0.5, 1.0, 0.0625, 0.75];
        let bins_of = [[0usize, 1, 0, 1, 1, 0, 0, 1], [2, 0, 1, 2, 2, 0, 1, 2]];
        let meta = vec![ColMeta { num_bins: 3, zero_bin: 0, dense: true }; 2];
        for backend in [CryptoBackend::Fixed, CryptoBackend::NumBigint] {
            let guest = Suite::paillier(keys.with_backend(backend), enc);
            let host = guest.public_half();
            assert_eq!(plan.bins_per_cipher(host.public_key().unwrap()), 2);
            let rows = guest.encrypt_gh_batch(&g, &h, &plan, 7).unwrap();
            let mut builder = EncHistBuilder::new(&meta, &enc, true);
            for (f, bins) in bins_of.iter().enumerate() {
                for (c, &bin) in rows.iter().zip(bins) {
                    builder.add(&host, f, bin, c).unwrap();
                }
            }
            let features = (0..2).map(|f| builder.pack_gh_feature(&host, f, &plan).unwrap());
            let payload = HistPayload::GhPacked(features.collect());
            let bytes = encode(&Msg::NodeHistograms { tree: 0, node: 0, epoch: 1, payload });
            let digest = bytes.unwrap().iter().fold(0xcbf2_9ce4_8422_2325, |d: u64, &b| {
                (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(digest, 0x0dcb_0462_ab21_5dba, "{backend:?}");
        }
    }

    #[test]
    fn control_messages_round_trip() {
        round_trip(Msg::NodeTask { tree: 3, node: 7, epoch: 2 });
        round_trip(Msg::TreeDone { tree: 19 });
        round_trip(Msg::Shutdown);
        round_trip(Msg::HostSplitChosen { tree: 0, node: 5, feature: 88, bin: 13 });
        round_trip(Msg::FeatureMeta(vec![
            FeatureMeta { num_bins: 20, zero_bin: 3 },
            FeatureMeta { num_bins: 7, zero_bin: 0 },
        ]));
    }

    #[test]
    fn placements_round_trip() {
        let placement: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        round_trip(Msg::ApplyPlacement { tree: 2, node: 4, placement: placement.clone() });
        round_trip(Msg::Placement { tree: 2, node: 4, placement });
    }

    #[test]
    fn grad_batch_with_paillier_ciphers_round_trips() {
        let c = paillier_ciphers(4);
        round_trip(Msg::GradBatch {
            tree: 0,
            start_row: 128,
            g: c[..2].to_vec(),
            h: c[2..].to_vec(),
            last: true,
        });
    }

    #[test]
    fn grad_batch_with_plain_ciphers_round_trips() {
        let s = Suite::plain(EncodingConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let g: Vec<Ciphertext> = (0..3).map(|_| s.encrypt(0.25, &mut rng).unwrap()).collect();
        round_trip(Msg::GradBatch { tree: 1, start_row: 0, g: g.clone(), h: g, last: false });
    }

    #[test]
    fn raw_histograms_round_trip() {
        let c = paillier_ciphers(6);
        let payload =
            HistPayload::Raw(vec![RawFeatureHist { g: c[..3].to_vec(), h: c[3..].to_vec() }]);
        round_trip(Msg::NodeHistograms { tree: 0, node: 1, epoch: 4, payload });
    }

    #[test]
    fn packed_histograms_round_trip() {
        let s = Suite::paillier_seeded(384, 7, EncodingConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let plan = vf2_crypto::packing::PackingPlan::new(s.public_key().unwrap(), 64, 3).unwrap();
        let slots: Vec<Ciphertext> =
            (0..3).map(|i| s.encrypt_at(i as f64, 10, &mut rng).unwrap()).collect();
        let packed = s.pack(&slots, &plan).unwrap();
        let payload = HistPayload::Packed(vec![PackedFeatureHist {
            g: vec![packed.clone()],
            h: vec![packed],
            bins: 3,
        }]);
        round_trip(Msg::NodeHistograms { tree: 2, node: 6, epoch: 1, payload });
    }

    #[test]
    fn paillier_cipher_wire_size_reflects_key() {
        let c = paillier_ciphers(1);
        let msg = Msg::GradBatch { tree: 0, start_row: 0, g: c, h: vec![], last: false };
        let bytes = encode(&msg).unwrap();
        // 256-bit key ⇒ 512-bit cipher ⇒ 64 bytes + framing.
        assert!(bytes.len() >= 64 && bytes.len() < 96, "wire size {}", bytes.len());
    }

    #[test]
    fn packed_grad_batch_round_trips() {
        let c = paillier_ciphers(3);
        round_trip(Msg::PackedGradBatch { tree: 2, start_row: 96, gh: c, last: true });
        round_trip(Msg::PackedGradBatch { tree: 0, start_row: 0, gh: vec![], last: false });
    }

    #[test]
    fn gh_histograms_round_trip() {
        let packed = PackedCiphertext::Paillier {
            cipher: BigUint::from(12345u32),
            exponent: 11,
            count: 4,
            slot_bits: 125,
        };
        round_trip(Msg::NodeHistograms {
            tree: 1,
            node: 3,
            epoch: 2,
            payload: HistPayload::GhPacked(vec![GhPackedFeatureHist {
                packed: vec![packed],
                bins: 4,
            }]),
        });
    }

    #[test]
    fn oversized_counts_fail_encode_instead_of_truncating() {
        // A packed slot count past u32::MAX must refuse to encode — the
        // old `as u32` cast would have wrapped it silently.
        let packed = PackedCiphertext::Paillier {
            cipher: BigUint::from(7u32),
            exponent: 10,
            count: u32::MAX as usize + 1,
            slot_bits: 64,
        };
        let msg = Msg::NodeHistograms {
            tree: 0,
            node: 0,
            epoch: 0,
            payload: HistPayload::Packed(vec![PackedFeatureHist {
                g: vec![packed],
                h: vec![],
                bins: 3,
            }]),
        };
        let r = encode(&msg);
        assert!(
            matches!(r, Err(WireError::EncodeOverflow { what: "packed slot count", .. })),
            "{r:?}"
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(matches!(decode(99, Bytes::new()), Err(WireError::BadTag("message kind", 99))));
        // 8 was the leaf notice (a tree and a node), 13 the liveness
        // beacon, 15 / 16 the mid-run rewind and its ack (a session id and a
        // tree count): retired, not reused, whatever follows.
        let mut leaf = Encoder::new();
        leaf.put_u32(1);
        leaf.put_u32(12);
        assert!(matches!(decode(8, leaf.finish()), Err(WireError::BadTag("message kind", 8))));
        let beacon = Bytes::from_static(&[0; 8]);
        assert!(matches!(decode(13, beacon), Err(WireError::BadTag("message kind", 13))));
        let mut rewind = Encoder::new();
        rewind.put_u64(0xFACE);
        rewind.put_u32(3);
        let rewind = rewind.finish();
        for kind in [15, 16] {
            let r = decode(kind, rewind.clone());
            assert!(matches!(r, Err(WireError::BadTag("message kind", k)) if k == kind as u64));
        }
    }

    /// One representative message per kind (1–7, 9–12, 14), with real ciphertext
    /// payloads where the kind carries any.
    fn sample_messages() -> Vec<Msg> {
        let c = paillier_ciphers(4);
        vec![
            Msg::PackedGradBatch { tree: 1, start_row: 32, gh: c[..2].to_vec(), last: true },
            Msg::NodeHistograms {
                tree: 0,
                node: 2,
                epoch: 1,
                payload: HistPayload::GhPacked(vec![GhPackedFeatureHist {
                    packed: vec![PackedCiphertext::Paillier {
                        cipher: BigUint::from(99u32),
                        exponent: 11,
                        count: 2,
                        slot_bits: 125,
                    }],
                    bins: 2,
                }]),
            },
            Msg::FeatureMeta(vec![
                FeatureMeta { num_bins: 20, zero_bin: 3 },
                FeatureMeta { num_bins: 7, zero_bin: 0 },
            ]),
            Msg::GradBatch {
                tree: 1,
                start_row: 64,
                g: c[..2].to_vec(),
                h: c[2..].to_vec(),
                last: false,
            },
            Msg::NodeTask { tree: 3, node: 7, epoch: 2 },
            Msg::NodeHistograms {
                tree: 0,
                node: 1,
                epoch: 4,
                payload: HistPayload::Raw(vec![RawFeatureHist {
                    g: c[..2].to_vec(),
                    h: c[2..].to_vec(),
                }]),
            },
            Msg::ApplyPlacement { tree: 2, node: 4, placement: vec![true, false, true] },
            Msg::HostSplitChosen { tree: 0, node: 5, feature: 88, bin: 13 },
            Msg::Placement { tree: 2, node: 4, placement: vec![false; 17] },
            Msg::TreeDone { tree: 19 },
            Msg::Shutdown,
            Msg::SessionHello { session_id: 0xFACE, durable: vec![1, 2, 5] },
            Msg::Resume { session_id: 0xFACE, tree_count: 5 },
        ]
    }

    #[test]
    fn session_messages_round_trip() {
        round_trip(Msg::SessionHello { session_id: 1, durable: vec![] });
        round_trip(Msg::SessionHello { session_id: u64::MAX, durable: vec![0, 7, 31] });
        round_trip(Msg::Resume { session_id: 0, tree_count: 0 });
        round_trip(Msg::Resume { session_id: u64::MAX, tree_count: u32::MAX });
    }

    #[test]
    fn every_truncated_prefix_errors_without_panicking() {
        // Every field of every message is mandatory, so chopping any
        // number of trailing bytes must yield Err — never a panic, never
        // a silently wrong Ok.
        for msg in sample_messages() {
            let kind = msg.kind();
            let bytes = encode(&msg).unwrap();
            for cut in 0..bytes.len() {
                let r = decode(kind, bytes.slice(..cut));
                assert!(r.is_err(), "kind {kind} decoded a {cut}-byte prefix: {r:?}");
            }
        }
    }

    #[test]
    fn garbage_payloads_never_panic() {
        // Deterministic pseudo-random garbage at several lengths, fed to
        // every kind tag. Decoding may succeed by chance for all-scalar
        // kinds; the property is the absence of panics and of unbounded
        // allocation.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [0usize, 1, 3, 7, 16, 64, 257] {
            for round in 0..16 {
                let garbage: Vec<u8> = (0..len).map(|_| (next() >> (round % 8)) as u8).collect();
                for kind in 0..=16u16 {
                    let _ = decode(kind, Bytes::from(garbage.clone()));
                }
            }
        }
    }

    #[test]
    fn allocation_bomb_lengths_are_rejected() {
        // A huge varint count with a tiny payload must fail fast via the
        // bounded-length guard instead of reserving gigabytes.
        let bomb = |kind: u16, prefix: &[u8]| {
            let mut e = Encoder::new();
            for &b in prefix {
                e.put_u8(b);
            }
            e.put_varint(u64::MAX >> 2);
            let r = decode(kind, e.finish());
            assert!(
                matches!(r, Err(WireError::Oversized { .. })),
                "kind {kind} did not reject the bomb: {r:?}"
            );
        };
        bomb(1, &[]); // FeatureMeta count
        bomb(2, &[0, 0, 0, 0, 0, 0, 0, 0, 1]); // GradBatch g-vector count
        bomb(14, &[0, 0, 0, 0, 0, 0, 0, 0, 1]); // PackedGradBatch gh count
        let hdr = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]; // tree, node, epoch
        for tag in [0u8, 1, 3] {
            // Every HistPayload wire form: Raw, Packed, GhPacked.
            let mut p = hdr.to_vec();
            p.push(tag);
            bomb(4, &p);
        }
        // Tag 2 was the raw GH form; it no longer names a payload.
        let mut retired = hdr.to_vec();
        retired.push(2);
        assert!(matches!(decode(4, retired.into()), Err(WireError::BadTag("hist payload", 2))));
        bomb(11, &[0, 0, 0, 0, 0, 0, 0, 0]); // SessionHello durable count
    }

    #[test]
    fn counts_past_protocol_maxima_are_rejected_even_with_backing_bytes() {
        // Enough real payload to satisfy the generic byte-budget guard, but
        // a count past the protocol ceiling: must hit the OverLimit gate.
        let mut e = Encoder::new();
        e.put_varint(limits::MAX_FEATURES as u64 + 1);
        for _ in 0..=limits::MAX_FEATURES {
            e.put_u16(4);
            e.put_u16(0);
        }
        let r = decode(1, e.finish());
        assert!(
            matches!(r, Err(WireError::OverLimit { what: "feature meta vector", .. })),
            "{r:?}"
        );
    }

    #[test]
    fn hostile_packed_slot_declarations_are_rejected() {
        // A packed ciphertext declaring an absurd slot count (forcing the
        // unpack loop) or slot width must fail at decode.
        let packed_hist = |count: u32, slot_bits: u32| {
            let mut e = Encoder::new();
            for _ in 0..3 {
                e.put_u32(0); // tree, node, epoch
            }
            e.put_u8(1); // HistPayload::Packed
            e.put_varint(1); // one feature
            e.put_u16(3); // bins
            e.put_varint(1); // one packed cipher in g
            e.put_u8(0); // PackedCiphertext::Paillier
            e.put_i32(10);
            e.put_u32(count);
            e.put_u32(slot_bits);
            e.put_bytes(&[1, 2, 3, 4]);
            e.put_varint(0); // empty h
            decode(4, e.finish())
        };
        assert!(packed_hist(3, 64).is_ok());
        let r = packed_hist(u32::MAX, 64);
        assert!(matches!(r, Err(WireError::OverLimit { what: "packed slot count", .. })), "{r:?}");
        let r = packed_hist(3, u32::MAX);
        assert!(matches!(r, Err(WireError::OverLimit { what: "packed slot bits", .. })), "{r:?}");
    }
}
