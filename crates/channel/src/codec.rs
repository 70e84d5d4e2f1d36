//! A compact, deterministic binary codec.
//!
//! The federated protocol serializes every cross-party message through this
//! codec; the encoded length is exactly what the WAN simulation charges for,
//! so cipher sizes (2S bits each) show up honestly in transfer times.
//!
//! All integers are little-endian and fixed-width except lengths, which use
//! LEB128 varints. Big integers travel as length-prefixed little-endian
//! magnitude bytes (`num_bigint::BigUint::to_bytes_le` on the producer
//! side — this crate itself stays bigint-agnostic).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encodes values into a growable buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder { buf: BytesMut::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding and returns the immutable buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Writes a fixed-width u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }

    /// Writes a fixed-width u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Writes a fixed-width u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Writes a fixed-width i32.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.put_i32_le(v);
    }

    /// Writes an f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Writes an f32.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    /// Writes a LEB128 varint (used for lengths).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                break;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Writes length-prefixed raw bytes (big integers, bitmaps, ...).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Writes a length-prefixed slice of f64.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_varint(v.len() as u64);
        for &x in v {
            self.buf.put_f64_le(x);
        }
    }

    /// Writes a bitmap as a length-prefixed packed byte array.
    /// The paper encodes instance placement this way to cut node-splitting
    /// traffic (§3.2).
    pub fn put_bitmap(&mut self, bits: &[bool]) {
        self.put_varint(bits.len() as u64);
        let mut byte = 0u8;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.put_u8(byte);
                byte = 0;
            }
        }
        if !bits.len().is_multiple_of(8) {
            self.buf.put_u8(byte);
        }
    }
}

const CRC32_POLY: u32 = 0xEDB8_8320;

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// Incremental CRC-32 (IEEE 802.3 polynomial) over a byte stream.
///
/// Every link frame carries a CRC-32 over its header and payload; the
/// receiver recomputes it and rejects corrupt frames, which the
/// reliable-delivery sublayer then re-requests (see [`crate::link`]).
#[derive(Debug, Clone)]
pub struct Checksum {
    state: u32,
}

impl Checksum {
    /// A fresh checksum state.
    pub fn new() -> Checksum {
        Checksum { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC32_TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// Finalizes and returns the CRC-32 value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-value.
    Truncated,
    /// A varint ran past 64 bits.
    VarintOverflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes values from a buffer produced by [`Encoder`].
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Wraps an encoded buffer.
    pub fn new(buf: Bytes) -> Decoder {
        Decoder { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a bool.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a u16.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a u32.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a u64.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads an i32.
    pub fn get_i32(&mut self) -> Result<i32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_i32_le())
    }

    /// Reads an f64.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads an f32.
    pub fn get_f32(&mut self) -> Result<f32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    /// Reads a LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(DecodeError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.get_varint()? as usize;
        self.need(len)?;
        Ok(self.buf.copy_to_bytes(len))
    }

    /// Reads a length-prefixed f64 slice.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, DecodeError> {
        let len = self.get_varint()? as usize;
        self.need(len.saturating_mul(8))?;
        Ok((0..len).map(|_| self.buf.get_f64_le()).collect())
    }

    /// Reads a packed bitmap.
    pub fn get_bitmap(&mut self) -> Result<Vec<bool>, DecodeError> {
        let len = self.get_varint()? as usize;
        let bytes = len.div_ceil(8);
        self.need(bytes)?;
        let mut out = Vec::with_capacity(len);
        let mut current = 0u8;
        for i in 0..len {
            if i % 8 == 0 {
                current = self.buf.get_u8();
            }
            out.push(current & (1 << (i % 8)) != 0);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u16(65535);
        e.put_u32(123456);
        e.put_u64(u64::MAX);
        e.put_i32(-42);
        e.put_f64(std::f64::consts::PI);
        e.put_f32(1.5);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_u8().unwrap(), 7);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_u16().unwrap(), 65535);
        assert_eq!(d.get_u32().unwrap(), 123456);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i32().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(d.get_f32().unwrap(), 1.5);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_varint(v);
            let mut d = Decoder::new(e.finish());
            assert_eq!(d.get_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_is_compact() {
        let mut e = Encoder::new();
        e.put_varint(5);
        assert_eq!(e.len(), 1);
        let mut e = Encoder::new();
        e.put_varint(300);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn bytes_round_trip() {
        let mut e = Encoder::new();
        e.put_bytes(&[1, 2, 3]);
        e.put_bytes(&[]);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_bytes().unwrap().as_ref(), &[1, 2, 3]);
        assert!(d.get_bytes().unwrap().is_empty());
    }

    #[test]
    fn slices_round_trip() {
        let mut e = Encoder::new();
        e.put_f64_slice(&[1.0, -2.5, 3.25]);
        e.put_f64_slice(&[]);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_f64_slice().unwrap(), vec![1.0, -2.5, 3.25]);
        assert!(d.get_f64_slice().unwrap().is_empty());
    }

    #[test]
    fn bitmap_round_trip_odd_lengths() {
        for len in [0usize, 1, 7, 8, 9, 64, 65] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let mut e = Encoder::new();
            e.put_bitmap(&bits);
            let mut d = Decoder::new(e.finish());
            assert_eq!(d.get_bitmap().unwrap(), bits, "len {len}");
        }
    }

    #[test]
    fn bitmap_is_eight_times_smaller_than_bytes() {
        let bits = vec![true; 800];
        let mut e = Encoder::new();
        e.put_bitmap(&bits);
        assert!(e.len() <= 103, "packed bitmap should be ~100 bytes, got {}", e.len());
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let mut e = Encoder::new();
        e.put_u64(1);
        let buf = e.finish().slice(0..4);
        let mut d = Decoder::new(buf);
        assert_eq!(d.get_u64(), Err(DecodeError::Truncated));
    }

    #[test]
    fn truncated_slice_length_does_not_overallocate() {
        // A huge declared length with no data must fail cleanly.
        let mut e = Encoder::new();
        e.put_varint(u64::MAX);
        let mut d = Decoder::new(e.finish());
        assert!(d.get_f64_slice().is_err());
    }

    #[test]
    fn crc32_known_answer() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
    }

    #[test]
    fn crc32_incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Checksum::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), checksum(data));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let clean = checksum(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), clean, "flip at byte {i} bit {bit}");
            }
        }
    }
}
