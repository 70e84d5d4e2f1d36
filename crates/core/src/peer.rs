//! One link to one peer, and the one supervised wait both roles block in.
//!
//! The parties talk only through gateway message queues, so "block on the
//! peers' queues, stay alive, notice a dead peer" is the one operation the
//! guest and the host share. [`wait`] is that operation — the host's single
//! link, the guest's N live links and the rejoin handshake all block here —
//! and [`poll`] is its zero-timeout twin. Both hand back undecoded
//! [`Envelope`]s: decoding, validation and FSM admission stay with the
//! caller, which holds one [`Deadline`] across every frame it drops, so
//! neither heartbeats nor a flood of stale or tolerated-violation frames
//! can extend a phase. No protocol decision reads a clock; every clock read
//! of the party drivers is in this file.

use std::time::{Duration, Instant};

use bytes::Bytes;
use vf2_channel::{recv_ready, Endpoint, Envelope, RecvReady};

use crate::config::TrainConfig;
use crate::error::{PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::fsm::MisbehaviorBudget;
use crate::messages::{Msg, HEARTBEAT_KIND};
use crate::telemetry::{LinkFaultEvents, PartyTelemetry};
use crate::wire;

/// Encodes one of `local`'s own messages. A failure (a count too large for
/// its wire field) is a malformed message attributed to `local` itself,
/// never sent.
pub(crate) fn encode(local: PartyId, msg: &Msg) -> Result<Bytes, TrainError> {
    wire::encode(msg).map_err(|error| ProtocolError::Malformed { from: local, error }.into())
}

/// One protocol wait's budget: the phase it is billed to, when it began and
/// how long it may last. Made once per logical wait and carried across
/// every frame the caller drops.
pub(crate) struct Deadline {
    phase: ProtocolPhase,
    started: Instant,
    limit: Duration,
}

impl Deadline {
    /// A wait for `phase` that starts now and gives up after `limit`.
    pub(crate) fn new(phase: ProtocolPhase, limit: Duration) -> Deadline {
        Deadline { phase, started: Instant::now(), limit }
    }
}

/// One link of this party: the endpoint, who is on its far end, when this
/// party last beaconed at it, and the far end's misbehavior budget.
pub(crate) struct Peer {
    endpoint: Endpoint,
    local: PartyId,
    remote: PartyId,
    /// When this party last beaconed a heartbeat at `remote`.
    hb_last: Instant,
    /// Monotone heartbeat counter of this link.
    hb_seq: u64,
    budget: MisbehaviorBudget,
}

impl Peer {
    /// `local`'s link to `remote`, tolerating `budget` protocol violations.
    pub(crate) fn new(endpoint: Endpoint, local: PartyId, remote: PartyId, budget: u32) -> Peer {
        let budget = MisbehaviorBudget::new(budget);
        Peer { endpoint, local, remote, hb_last: Instant::now(), hb_seq: 0, budget }
    }

    /// Swaps in the link to a restarted incarnation of `remote`. The budget
    /// carries over: it is the company's, not the process's.
    pub(crate) fn reconnect(&mut self, endpoint: Endpoint) {
        self.endpoint = endpoint;
        self.hb_last = Instant::now();
    }

    /// Hands an already encoded message to the link.
    pub(crate) fn send_encoded(&self, kind: u16, payload: Bytes) {
        self.endpoint.send(kind, payload);
    }

    /// Encodes and sends `msg`; returns the payload bytes handed to the link.
    pub(crate) fn send(&self, msg: &Msg) -> Result<u64, TrainError> {
        let payload = encode(self.local, msg)?;
        let bytes = payload.len() as u64;
        self.send_encoded(msg.kind(), payload);
        Ok(bytes)
    }

    /// Lingers until `remote` acked every frame sent, or `timeout`.
    pub(crate) fn flush(&self, timeout: Duration) {
        self.endpoint.flush(timeout);
    }

    /// Records a protocol violation against `remote`'s misbehavior budget:
    /// counted, traced, tolerated while within budget, fatal
    /// ([`TrainError::PeerMisbehaving`]) once past it.
    pub(crate) fn charge(
        &mut self,
        violation: ProtocolError,
        telemetry: &mut PartyTelemetry,
    ) -> Result<(), TrainError> {
        telemetry.events.misbehavior += 1;
        telemetry.trace.note(format!("protocol violation by {}: {violation}", self.remote));
        self.budget.charge(self.remote, violation)
    }

    /// Folds this link's send-direction statistics into the party totals and
    /// returns them on their own, for the per-peer breakout that attributes
    /// retransmissions and RTO expiries to the specific flaky link.
    pub(crate) fn fold_stats(&self, telemetry: &mut PartyTelemetry) -> LinkFaultEvents {
        let stats = self.endpoint.send_stats();
        telemetry.bytes_sent += stats.bytes();
        telemetry.messages_sent += stats.messages();
        let mut link = LinkFaultEvents::default();
        link.absorb(stats);
        telemetry.link.merge(&link);
        link
    }

    /// Beacons a heartbeat at `remote` if one is due. Heartbeats carry no
    /// protocol meaning: their transport ack is what proves a busy-but-alive
    /// peer, and they keep this party from looking dead to a peer it is not
    /// waiting on. A beacon that finds the link silent for a whole interval
    /// is the precursor signal to declaring the peer dead.
    fn beacon(
        &mut self,
        every: Duration,
        telemetry: &mut PartyTelemetry,
    ) -> Result<(), TrainError> {
        if self.hb_last.elapsed() < every {
            return Ok(());
        }
        self.hb_last = Instant::now();
        self.send(&Msg::Heartbeat { seq: self.hb_seq })?;
        telemetry.events.heartbeats_sent += 1;
        let silent = self.endpoint.idle_for();
        if silent >= every {
            telemetry.events.heartbeats_missed += 1;
            telemetry.trace.note(format!(
                "{} silent for {silent:?} at heartbeat {}",
                self.remote, self.hb_seq
            ));
        }
        self.hb_seq += 1;
        Ok(())
    }

    /// `remote` is lost: disconnected, silent, or out of `deadline`.
    fn lost(&self, deadline: &Deadline) -> TrainError {
        let waited = deadline.started.elapsed();
        TrainError::PeerLost { party: self.remote, phase: deadline.phase, waited }
    }
}

/// The single blocking wait of both roles. `peers` are all of this party's
/// links; the `live` ones are beaconed — a party blocked on one link is
/// otherwise silent toward all of them — and the `listen` ones (a subset)
/// are received from and judged. Parks on the listened delivery queues
/// through the channel layer's wakeup-based [`recv_ready`] and wakes at the
/// earliest of
///
/// * **a frame** — heartbeats are consumed here, below dispatch; anything
///   else returns with the index of the peer it came from;
/// * **the next beacon due** (`hb_last + heartbeat_interval` of any live
///   peer) — derived from state the loop holds, so beacons go out exactly
///   on cadence;
/// * **the silence deadline** — a listened link completely silent (no
///   data, no acks) for `dead_after` is [`TrainError::PeerLost`];
/// * **the caller's deadline** — which no heartbeat and no dropped frame
///   resets: a peer that beacons but makes no protocol progress still trips
///   it, and the loss is blamed on the listened peer whose link has been
///   silent the longest (the actually-dead one, not an arbitrary index).
///
/// A torn-down link is `PeerLost` at once. Each wakeup with nothing
/// received counts one `transfer_retries`; the two timeouts count
/// `recv_timeouts`; `phases.idle` is billed exactly the time spent in here.
pub(crate) fn wait(
    peers: &mut [&mut Peer],
    live: &[usize],
    listen: &[usize],
    deadline: &Deadline,
    cfg: &TrainConfig,
    telemetry: &mut PartyTelemetry,
) -> Result<(usize, Envelope), TrainError> {
    let entered = Instant::now();
    let (every, dead_after) = (cfg.heartbeat_interval, cfg.dead_after());
    let mut blocked = || -> Result<(usize, Envelope), TrainError> {
        loop {
            let left = deadline.limit.saturating_sub(deadline.started.elapsed());
            if left.is_zero() {
                // `max_by_key` keeps the last of equals: reversed, ties break
                // to the lowest index.
                let idle = |p: &&usize| peers[**p].endpoint.idle_for();
                let blame = listen.iter().rev().max_by_key(idle).copied().unwrap_or(0);
                telemetry.link.recv_timeouts += 1;
                return Err(peers[blame].lost(deadline));
            }
            let beacon_in = live.iter().map(|&p| every.saturating_sub(peers[p].hb_last.elapsed()));
            let silence_in =
                listen.iter().map(|&p| dead_after.saturating_sub(peers[p].endpoint.idle_for()));
            let nap = beacon_in.chain(silence_in).fold(left, Duration::min);
            let queues: Vec<&Endpoint> = listen.iter().map(|&p| &peers[p].endpoint).collect();
            match recv_ready(&queues, nap) {
                RecvReady::Msg(_, env) if env.kind == HEARTBEAT_KIND => {}
                RecvReady::Msg(i, env) => return Ok((listen[i], env)),
                RecvReady::Disconnected(i) => return Err(peers[listen[i]].lost(deadline)),
                RecvReady::Timeout => {
                    telemetry.events.transfer_retries += 1;
                    for &p in live {
                        peers[p].beacon(every, telemetry)?;
                    }
                    for &p in listen {
                        if peers[p].endpoint.idle_for() >= dead_after {
                            let remote = peers[p].remote;
                            telemetry
                                .trace
                                .note(format!("{remote} declared dead after {dead_after:?}"));
                            telemetry.link.recv_timeouts += 1;
                            return Err(peers[p].lost(deadline));
                        }
                    }
                }
            }
        }
    };
    let outcome = blocked();
    telemetry.phases.idle += entered.elapsed();
    outcome
}

/// The zero-timeout twin of [`wait`]: one frame that already arrived on a
/// listened link (heartbeats consumed), or `None` when nothing is queued —
/// or when a link died, which the next blocking wait classifies and
/// reports. Nothing here waits, so no idle time accrues.
pub(crate) fn poll(peers: &[&Peer], listen: &[usize]) -> Option<(usize, Envelope)> {
    let queues: Vec<&Endpoint> = listen.iter().map(|&p| &peers[p].endpoint).collect();
    loop {
        match recv_ready(&queues, Duration::ZERO) {
            RecvReady::Msg(_, env) if env.kind == HEARTBEAT_KIND => {}
            RecvReady::Msg(i, env) => return Some((listen[i], env)),
            RecvReady::Disconnected(_) | RecvReady::Timeout => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    use vf2_channel::{duplex, WanConfig};

    use crate::trace::{TraceEventKind, TraceRing};

    const MS: Duration = Duration::from_millis(1);
    /// A protocol frame kind that is not a heartbeat.
    const DATA: u16 = 4;

    /// Liveness knobs in milliseconds. `TrainConfig::validate` is not run:
    /// a heartbeat slower than the whole test is how a case here keeps a
    /// link silent (no beacon, so no transport ack) without a fault plan.
    fn cfg(heartbeat: u32, dead_after: u32) -> TrainConfig {
        TrainConfig {
            heartbeat_interval: heartbeat * MS,
            peer_dead_after: dead_after * MS,
            peer_timeout: 10_000 * MS,
            ..TrainConfig::for_tests()
        }
    }

    /// The guest's link to host `h` over an instant wire, and its far end.
    fn link(h: usize) -> (Peer, Endpoint) {
        let (near, far) = duplex(WanConfig::instant());
        (Peer::new(near, PartyId::Guest, PartyId::Host(h), 0), far)
    }

    fn telemetry() -> PartyTelemetry {
        PartyTelemetry { trace: TraceRing::new(64, false), ..Default::default() }
    }

    fn notes(telemetry: &PartyTelemetry) -> Vec<String> {
        let text = |e: &crate::trace::TraceEvent| match &e.kind {
            TraceEventKind::Note(text) => Some(text.clone()),
            _ => None,
        };
        telemetry.trace.events().filter_map(text).collect()
    }

    /// `wait` on `listen` with every peer live, for at most `limit` ms.
    fn wait_on(
        peers: &mut [Peer],
        listen: &[usize],
        limit: u32,
        cfg: &TrainConfig,
        telemetry: &mut PartyTelemetry,
    ) -> Result<(usize, Envelope), TrainError> {
        let live: Vec<usize> = (0..peers.len()).collect();
        let mut peers: Vec<&mut Peer> = peers.iter_mut().collect();
        let deadline = Deadline::new(ProtocolPhase::TreeBuild, limit * MS);
        wait(&mut peers, &live, listen, &deadline, cfg, telemetry)
    }

    #[test]
    fn a_frame_returns_at_once_and_idle_is_the_time_inside_the_wait() {
        let (peer, far) = link(0);
        let mut t = telemetry();
        far.send(DATA, Bytes::from_static(b"x"));
        let t0 = Instant::now();
        let (from, env) = wait_on(&mut [peer], &[0], 5_000, &cfg(50, 5_000), &mut t).unwrap();
        let wall = t0.elapsed();
        assert_eq!((from, env.kind, &env.payload[..]), (0, DATA, &b"x"[..]));
        assert!(wall < 1_000 * MS, "took {wall:?}");
        assert!(t.phases.idle > Duration::ZERO && t.phases.idle <= wall);
        assert_eq!((t.events.transfer_retries, t.link.recv_timeouts), (0, 0));
    }

    #[test]
    fn heartbeats_are_consumed_and_never_returned() {
        let (peer, far) = link(0);
        let beat = encode(PartyId::Host(0), &Msg::Heartbeat { seq: 0 }).unwrap();
        for _ in 0..3 {
            far.send(HEARTBEAT_KIND, beat.clone());
        }
        far.send(DATA, Bytes::new());
        let mut peers = [peer];
        let (_, env) = wait_on(&mut peers, &[0], 5_000, &cfg(50, 5_000), &mut telemetry()).unwrap();
        assert_eq!(env.kind, DATA);
        // The zero-timeout form skips them too.
        far.send(HEARTBEAT_KIND, beat);
        far.send(DATA + 1, Bytes::new());
        let t0 = Instant::now();
        let polled = loop {
            match poll(&[&peers[0]], &[0]) {
                Some((_, env)) => break env.kind,
                None => assert!(t0.elapsed() < 5_000 * MS, "the frame never arrived"),
            }
        };
        assert_eq!(polled, DATA + 1);
    }

    #[test]
    fn a_silent_peer_is_declared_dead_at_the_silence_deadline() {
        let (peer, _far) = link(0);
        let mut t = telemetry();
        let t0 = Instant::now();
        let lost = wait_on(&mut [peer], &[0], 10_000, &cfg(60_000, 150), &mut t).unwrap_err();
        assert!(
            matches!(lost, TrainError::PeerLost { party: PartyId::Host(0), .. }),
            "expected PeerLost, got {lost}"
        );
        assert!(t0.elapsed() < 2_000 * MS, "took {:?}", t0.elapsed());
        assert_eq!(t.link.recv_timeouts, 1);
        assert!(notes(&t).iter().any(|n| n.contains("host-0 declared dead")), "{:?}", notes(&t));
        assert!(t.events.transfer_retries > 0);
    }

    #[test]
    fn a_disconnect_is_peer_lost_at_once_and_names_the_right_peer() {
        let ((a, _far_a), (b, far_b), (c, _far_c)) = (link(0), link(1), link(2));
        drop(far_b);
        let mut t = telemetry();
        let t0 = Instant::now();
        let lost = wait_on(&mut [a, b, c], &[0, 1, 2], 10_000, &cfg(50, 10_000), &mut t);
        let lost = lost.unwrap_err();
        assert!(
            matches!(lost, TrainError::PeerLost { party: PartyId::Host(1), .. }),
            "expected host-1 lost, got {lost}"
        );
        assert!(t0.elapsed() < 2_000 * MS, "took {:?}", t0.elapsed());
        assert_eq!(t.link.recv_timeouts, 0, "a disconnect is not a timeout");
    }

    #[test]
    fn an_expired_phase_blames_the_longest_idle_peer_not_index_0() {
        // Link 1 is the oldest, so — with no beacon to be acked — it has
        // been silent the longest when the phase deadline passes.
        let (b, _far_b) = link(1);
        thread::sleep(40 * MS);
        let ((a, _far_a), (c, _far_c)) = (link(0), link(2));
        let mut t = telemetry();
        let lost = wait_on(&mut [a, b, c], &[0, 1, 2], 150, &cfg(60_000, 10_000), &mut t);
        match lost.unwrap_err() {
            TrainError::PeerLost { party, phase, waited } => {
                assert_eq!((party, phase), (PartyId::Host(1), ProtocolPhase::TreeBuild));
                assert!(waited >= 150 * MS, "gave up after {waited:?}");
            }
            other => panic!("expected PeerLost, got {other}"),
        }
        assert_eq!(t.link.recv_timeouts, 1);
    }

    #[test]
    fn a_wait_on_one_peer_beacons_every_live_peer() {
        let ((a, _far_a), (b, far_b)) = (link(0), link(1));
        let mut t = telemetry();
        wait_on(&mut [a, b], &[0], 200, &cfg(20, 10_000), &mut t).unwrap_err();
        let env = far_b.try_recv().expect("peer 1 was never beaconed");
        assert_eq!(env.kind, HEARTBEAT_KIND);
        assert!(matches!(wire::decode(env.kind, env.payload), Ok(Msg::Heartbeat { seq: 0 })));
        // On cadence: about 200 / 20 beacons per peer, never a burst.
        assert!((4..=22).contains(&t.events.heartbeats_sent), "{}", t.events.heartbeats_sent);
    }

    #[test]
    fn poll_returns_none_on_an_empty_queue_and_on_a_dead_link() {
        let (peer, far) = link(0);
        assert!(poll(&[&peer], &[0]).is_none());
        drop(far);
        assert!(peer.endpoint.recv().is_err(), "the teardown reached this end");
        assert!(poll(&[&peer], &[0]).is_none());
    }

    /// A peer that keeps the link busy every quarter of the phase deadline —
    /// with frames the caller drops, or with heartbeats only — makes no
    /// protocol progress: the one deadline the caller holds still expires.
    #[test]
    fn neither_dropped_frames_nor_heartbeats_extend_the_phase() {
        for kind in [DATA, HEARTBEAT_KIND] {
            let (mut peer, far) = link(0);
            let stop = AtomicBool::new(false);
            thread::scope(|scope| {
                scope.spawn(|| {
                    let beat = encode(PartyId::Host(0), &Msg::Heartbeat { seq: 0 }).unwrap();
                    while !stop.load(Ordering::Relaxed) {
                        far.send(kind, beat.clone());
                        thread::sleep(30 * MS);
                    }
                });
                let (cfg, mut t) = (cfg(10, 10_000), telemetry());
                let mut peers = [&mut peer];
                let deadline = Deadline::new(ProtocolPhase::Gradients, 120 * MS);
                let (t0, mut dropped) = (Instant::now(), 0);
                let lost = loop {
                    match wait(&mut peers, &[0], &[0], &deadline, &cfg, &mut t) {
                        Ok(_) => dropped += 1,
                        Err(lost) => break lost,
                    }
                };
                stop.store(true, Ordering::Relaxed);
                match lost {
                    TrainError::PeerLost { waited, .. } => {
                        assert!(waited >= 120 * MS, "gave up after {waited:?}")
                    }
                    other => panic!("expected PeerLost, got {other}"),
                }
                assert!(t0.elapsed() < 1_000 * MS, "hung for {:?}", t0.elapsed());
                assert_eq!(dropped > 0, kind == DATA, "{dropped} frames reached the caller");
            });
        }
    }
}
