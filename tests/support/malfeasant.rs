//! A scriptable byzantine peer endpoint for the conformance harness
//! (`tests/byzantine.rs`).
//!
//! [`MalfeasantPeer`] wraps an [`Endpoint`] and deviates from the honest
//! protocol *above* the transport: every misdeed is applied **before**
//! the frame is sequenced and checksummed, so the tampered frame arrives
//! transport-valid at the receiver. That is exactly the byzantine-peer
//! threat model — the reliability layer (checksums, dedup, in-order
//! reassembly) can do nothing about a peer that is lying at the protocol
//! level, and the receiver's admission layer has to catch it instead.
//!
//! The wrapper records every honest payload it was asked to send, so a
//! script (or a test) can replay any earlier protocol frame verbatim —
//! which the transport happily treats as a brand-new message.

use std::collections::HashMap;

use bytes::Bytes;
use vf2boost::channel::Endpoint;

/// One scripted deviation, applied at a specific send index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misdeed {
    /// Send honestly, then re-send the recorded frame at this history
    /// index as a fresh transport message (a protocol-level replay the
    /// transport dedup cannot see).
    ReplayEarlier(usize),
    /// Silently drop the frame instead of sending it.
    Swallow,
    /// Send the payload under a different wire kind tag.
    RewriteKind(u16),
    /// XOR one payload byte (at `offset % len`) before sending.
    FlipByte(usize),
    /// Truncate the payload to at most this many bytes.
    Truncate(usize),
}

/// An [`Endpoint`] wrapper that misbehaves on schedule.
#[derive(Debug)]
pub struct MalfeasantPeer {
    inner: Endpoint,
    /// Scripted deviations keyed by send index (0-based, counting only
    /// [`MalfeasantPeer::send`] calls).
    script: HashMap<u64, Misdeed>,
    sends: u64,
    /// Honest copies of everything sent, pre-misdeed.
    history: Vec<(u16, Bytes)>,
}

impl MalfeasantPeer {
    /// Wraps an endpoint with an empty script (fully honest until
    /// scripted otherwise).
    pub fn new(inner: Endpoint) -> MalfeasantPeer {
        MalfeasantPeer { inner, script: HashMap::new(), sends: 0, history: Vec::new() }
    }

    /// Schedules `misdeed` to fire at the `at`-th call to
    /// [`MalfeasantPeer::send`] (0-based). Later scripts for the same
    /// index replace earlier ones.
    pub fn script(&mut self, at: u64, misdeed: Misdeed) -> &mut MalfeasantPeer {
        self.script.insert(at, misdeed);
        self
    }

    /// Sends a message, applying whatever misdeed the script holds for
    /// this send index. The *honest* frame is recorded to history either
    /// way, so replays always reference what should have been sent.
    pub fn send(&mut self, kind: u16, payload: Bytes) {
        let idx = self.sends;
        self.sends += 1;
        self.history.push((kind, payload.clone()));
        match self.script.remove(&idx) {
            None => self.inner.send(kind, payload),
            Some(Misdeed::Swallow) => {}
            Some(Misdeed::RewriteKind(k)) => self.inner.send(k, payload),
            Some(Misdeed::FlipByte(offset)) => {
                let mut bytes = payload.to_vec();
                if let Some(len) = bytes.len().checked_sub(1) {
                    let at = offset % (len + 1);
                    bytes[at] ^= 0xa5;
                }
                self.inner.send(kind, Bytes::from(bytes));
            }
            Some(Misdeed::Truncate(len)) => {
                let cut = payload.slice(..len.min(payload.len()));
                self.inner.send(kind, cut);
            }
            Some(Misdeed::ReplayEarlier(i)) => {
                self.inner.send(kind, payload);
                self.replay(i);
            }
        }
    }

    /// Re-sends the recorded frame at history index `i` (if any) as a
    /// fresh transport message.
    pub fn replay(&mut self, i: usize) {
        if let Some((kind, payload)) = self.history.get(i).cloned() {
            self.inner.send(kind, payload);
        }
    }

    /// Number of [`MalfeasantPeer::send`] calls so far.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The honest frames recorded so far (kind, payload), pre-misdeed.
    pub fn history(&self) -> &[(u16, Bytes)] {
        &self.history
    }

    /// The wrapped endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2boost::channel::{duplex, WanConfig};

    fn pair() -> (MalfeasantPeer, Endpoint) {
        let (a, b) = duplex(WanConfig::instant());
        (MalfeasantPeer::new(a), b)
    }

    #[test]
    fn unscripted_sends_are_honest() {
        let (mut evil, honest) = pair();
        evil.send(7, Bytes::from_static(b"hello"));
        let env = honest.recv().unwrap();
        assert_eq!((env.kind, &env.payload[..]), (7, &b"hello"[..]));
        assert_eq!(evil.sends(), 1);
        assert_eq!(evil.history().len(), 1);
    }

    #[test]
    fn swallow_drops_only_the_scripted_frame() {
        let (mut evil, honest) = pair();
        evil.script(0, Misdeed::Swallow);
        evil.send(1, Bytes::from_static(b"gone"));
        evil.send(2, Bytes::from_static(b"kept"));
        let env = honest.recv().unwrap();
        assert_eq!((env.kind, &env.payload[..]), (2, &b"kept"[..]));
    }

    #[test]
    fn replay_re_sends_an_earlier_frame_transport_validly() {
        let (mut evil, honest) = pair();
        evil.script(1, Misdeed::ReplayEarlier(0));
        evil.send(3, Bytes::from_static(b"first"));
        evil.send(4, Bytes::from_static(b"second"));
        let kinds: Vec<u16> = (0..3).map(|_| honest.recv().unwrap().kind).collect();
        // The transport delivers all three: dedup cannot catch a replay
        // that was re-sequenced by the sender.
        assert_eq!(kinds, vec![3, 4, 3]);
    }

    #[test]
    fn flip_and_truncate_arrive_transport_valid_but_mutated() {
        let (mut evil, honest) = pair();
        evil.script(0, Misdeed::FlipByte(1));
        evil.script(1, Misdeed::Truncate(2));
        evil.script(2, Misdeed::RewriteKind(9));
        evil.send(5, Bytes::from_static(b"abcd"));
        evil.send(5, Bytes::from_static(b"abcd"));
        evil.send(5, Bytes::from_static(b"abcd"));
        let a = honest.recv().unwrap();
        assert_eq!(&a.payload[..], &[b'a', b'b' ^ 0xa5, b'c', b'd']);
        let b = honest.recv().unwrap();
        assert_eq!(&b.payload[..], b"ab");
        let c = honest.recv().unwrap();
        assert_eq!(c.kind, 9);
        // The honest history is untouched by the misdeeds.
        assert!(evil.history().iter().all(|(k, p)| *k == 5 && &p[..] == b"abcd"));
    }

    #[test]
    fn flip_byte_on_an_empty_payload_is_a_no_op() {
        let (mut evil, honest) = pair();
        evil.script(0, Misdeed::FlipByte(3));
        evil.send(6, Bytes::new());
        let env = honest.recv().unwrap();
        assert!(env.payload.is_empty());
    }
}
