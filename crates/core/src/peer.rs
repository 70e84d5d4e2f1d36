//! One link to one peer, and the one supervised wait both roles block in.
//!
//! The parties talk only through gateway message queues, so "block on the
//! peers' queues, notice a dead peer" is the one operation the guest and
//! the host share. [`wait`] is that operation — the host's single link and
//! the guest's N links all block here — and
//! [`poll`] is its zero-timeout twin. Keeping a connection alive is the
//! queue's business (`vf2-channel` re-sends its ack as a keepalive), so
//! every frame a party receives is a protocol message. Both hand back
//! undecoded [`Envelope`]s: decoding and admission stay with the caller, which holds one [`Deadline`] across every frame it
//! drops, so no flood of stale or tolerated-violation frames can extend a
//! phase. No protocol decision reads a clock; every clock read of the party
//! drivers is in this file.

use std::time::{Duration, Instant};

use bytes::Bytes;
use vf2_channel::{recv_ready, Endpoint, Envelope, RecvReady};

use crate::error::{PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::messages::Msg;
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

/// Per-peer misbehavior accounting with a configurable tolerance budget.
#[derive(Debug)]
struct MisbehaviorBudget {
    budget: u32,
    violations: u64,
}

impl MisbehaviorBudget {
    /// A fresh budget tolerating `budget` violations before failing.
    fn new(budget: u32) -> MisbehaviorBudget {
        MisbehaviorBudget { budget, violations: 0 }
    }

    /// Charges one violation from `party`. Returns `Ok(())` while the
    /// count stays within the budget (caller drops the message and keeps
    /// going) and [`TrainError::PeerMisbehaving`] once it exceeds it.
    fn charge(&mut self, party: PartyId, violation: ProtocolError) -> Result<(), TrainError> {
        self.violations += 1;
        if self.violations > u64::from(self.budget) {
            return Err(TrainError::PeerMisbehaving {
                party,
                violations: self.violations,
                budget: self.budget,
                last: Box::new(violation),
            });
        }
        Ok(())
    }
}

/// One link of this party: the endpoint, who is on its far end, and the far
/// end's misbehavior budget.
pub(crate) struct Peer {
    endpoint: Endpoint,
    local: PartyId,
    remote: PartyId,
    budget: MisbehaviorBudget,
}

impl Peer {
    /// `local`'s link to `remote`, tolerating `budget` protocol violations.
    pub(crate) fn new(endpoint: Endpoint, local: PartyId, remote: PartyId, budget: u32) -> Peer {
        Peer { endpoint, local, remote, budget: MisbehaviorBudget::new(budget) }
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

    /// `remote` is lost: disconnected, silent, or out of `deadline`.
    fn lost(&self, deadline: &Deadline) -> TrainError {
        let waited = deadline.started.elapsed();
        TrainError::PeerLost { party: self.remote, phase: deadline.phase, waited }
    }
}

/// The single blocking wait of both roles: receives from, and judges, the
/// links it is given (`peers` — the ones the caller listens on). Parks on
/// their delivery queues through the channel layer's wakeup-based
/// [`recv_ready`] and wakes at the earliest of
///
/// * **a frame** — returned with the index in `peers` it came from;
/// * **the silence deadline** — a link completely silent (no data, no
///   acks — and a live link acks at least every quarter of `dead_after`,
///   whatever its party is doing) for `dead_after` is
///   [`TrainError::PeerLost`];
/// * **the caller's deadline** — which no keepalive ack and no dropped
///   frame resets: a peer whose link stays alive but makes no protocol
///   progress still trips it, and the loss is blamed on the peer whose link
///   has been silent the longest (the actually-dead one, not an arbitrary
///   index).
///
/// A torn-down link is `PeerLost` at once. The two timeouts count
/// `recv_timeouts`; `phases.idle` is billed exactly the time spent in here.
pub(crate) fn wait(
    peers: &[&Peer],
    deadline: &Deadline,
    dead_after: Duration,
    telemetry: &mut PartyTelemetry,
) -> Result<(usize, Envelope), TrainError> {
    let entered = Instant::now();
    let queues: Vec<&Endpoint> = peers.iter().map(|p| &p.endpoint).collect();
    let mut blocked = || -> Result<(usize, Envelope), TrainError> {
        loop {
            let left = deadline.limit.saturating_sub(deadline.started.elapsed());
            if left.is_zero() {
                // `max_by_key` keeps the last of equals: reversed, ties break
                // to the lowest index.
                let blame = peers.iter().rev().max_by_key(|p| p.endpoint.idle_for());
                telemetry.link.recv_timeouts += 1;
                return Err(blame.unwrap_or(&peers[0]).lost(deadline));
            }
            let silence_in = peers.iter().map(|p| dead_after.saturating_sub(p.endpoint.idle_for()));
            match recv_ready(&queues, silence_in.fold(left, Duration::min)) {
                RecvReady::Msg(i, env) => return Ok((i, env)),
                RecvReady::Disconnected(i) => return Err(peers[i].lost(deadline)),
                RecvReady::Timeout => {
                    if let Some(dead) = peers.iter().find(|p| p.endpoint.idle_for() >= dead_after) {
                        let remote = dead.remote;
                        telemetry
                            .trace
                            .note(format!("{remote} declared dead after {dead_after:?}"));
                        telemetry.link.recv_timeouts += 1;
                        return Err(dead.lost(deadline));
                    }
                }
            }
        }
    };
    let outcome = blocked();
    telemetry.phases.idle += entered.elapsed();
    outcome
}

/// Lingers until every one of `peers` acked all it was sent, or one shared
/// `timeout`: k peers that never ack cost `timeout`, not k × `timeout`.
pub(crate) fn flush_all(peers: &[&Peer], timeout: Duration) {
    let deadline = Instant::now() + timeout;
    for peer in peers {
        peer.endpoint.flush(deadline.saturating_duration_since(Instant::now()));
    }
}

/// The zero-timeout twin of [`wait`]: one frame that already arrived on one
/// of `peers`, or `None` when nothing is queued — or when a link died, which
/// the next blocking wait classifies and reports. Nothing here waits, so no
/// idle time accrues.
pub(crate) fn poll(peers: &[&Peer]) -> Option<(usize, Envelope)> {
    let queues: Vec<&Endpoint> = peers.iter().map(|p| &p.endpoint).collect();
    match recv_ready(&queues, Duration::ZERO) {
        RecvReady::Msg(i, env) => Some((i, env)),
        RecvReady::Disconnected(_) | RecvReady::Timeout => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    use vf2_channel::{duplex_faulty, FaultConfig, WanConfig};

    use crate::trace::{TraceEventKind, TraceRing};

    const MS: Duration = Duration::from_millis(1);
    /// A protocol frame kind.
    const DATA: u16 = 4;

    /// A keepalive interval longer than any test here: how a case keeps a
    /// link silent (no traffic, so no ack either) without a fault plan.
    const NEVER: Duration = Duration::from_secs(3_600);

    #[test]
    fn budget_tolerates_then_trips() {
        let mut b = MisbehaviorBudget::new(2);
        let v =
            || ProtocolError::StaleOrReplayed { from: PartyId::Host(0), kind: 4, context: "test" };
        assert!(b.charge(PartyId::Host(0), v()).is_ok());
        assert!(b.charge(PartyId::Host(0), v()).is_ok());
        let err = b.charge(PartyId::Host(0), v()).unwrap_err();
        match err {
            TrainError::PeerMisbehaving { party, violations, budget, .. } => {
                assert_eq!(party, PartyId::Host(0));
                assert_eq!(violations, 3);
                assert_eq!(budget, 2);
            }
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(b.violations, 3);
    }

    #[test]
    fn zero_budget_fails_on_first_violation() {
        let mut b = MisbehaviorBudget::new(0);
        let v = ProtocolError::OutOfPhase {
            from: PartyId::Guest,
            kind: 2,
            phase: "node-loop",
            context: "test",
        };
        assert!(matches!(
            b.charge(PartyId::Guest, v),
            Err(TrainError::PeerMisbehaving { violations: 1, budget: 0, .. })
        ));
    }

    /// The guest's link to host `h` over an instant wire that keepalives
    /// every `keepalive`, and its far end.
    fn link(h: usize, keepalive: Duration) -> (Peer, Endpoint) {
        let calm = FaultConfig::none();
        let (near, far) = duplex_faulty(WanConfig::instant(), calm, calm, keepalive);
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

    /// `wait` on every one of `peers` for at most `limit` ms, declaring a
    /// link dead after `dead_after` ms of silence.
    fn wait_on(
        peers: &[Peer],
        limit: u32,
        dead_after: u32,
        telemetry: &mut PartyTelemetry,
    ) -> Result<(usize, Envelope), TrainError> {
        let peers: Vec<&Peer> = peers.iter().collect();
        let deadline = Deadline::new(ProtocolPhase::TreeBuild, limit * MS);
        wait(&peers, &deadline, dead_after * MS, telemetry)
    }

    #[test]
    fn a_frame_returns_at_once_and_idle_is_the_time_inside_the_wait() {
        let (peer, far) = link(0, NEVER);
        let mut t = telemetry();
        far.send(DATA, Bytes::from_static(b"x"));
        let t0 = Instant::now();
        let (from, env) = wait_on(&[peer], 5_000, 5_000, &mut t).unwrap();
        let wall = t0.elapsed();
        assert_eq!((from, env.kind, &env.payload[..]), (0, DATA, &b"x"[..]));
        assert!(wall < 1_000 * MS, "took {wall:?}");
        assert!(t.phases.idle > Duration::ZERO && t.phases.idle <= wall);
        assert_eq!(t.link.recv_timeouts, 0);
    }

    #[test]
    fn a_silent_peer_is_declared_dead_at_the_silence_deadline() {
        // The silence clock starts inside `link`, so the lower bound is
        // measured from before it.
        let t0 = Instant::now();
        let (peer, _far) = link(0, NEVER);
        let mut t = telemetry();
        let lost = wait_on(&[peer], 10_000, 150, &mut t).unwrap_err();
        assert!(
            matches!(lost, TrainError::PeerLost { party: PartyId::Host(0), .. }),
            "expected PeerLost, got {lost}"
        );
        assert!(t0.elapsed() >= 150 * MS, "declared dead after only {:?}", t0.elapsed());
        assert!(t0.elapsed() < 2_000 * MS, "took {:?}", t0.elapsed());
        assert_eq!(t.link.recv_timeouts, 1);
        assert!(notes(&t).iter().any(|n| n.contains("host-0 declared dead")), "{:?}", notes(&t));
    }

    /// A party that computes — or blocks on another link — for many
    /// multiples of `dead_after` sends nothing, yet its link keeps acking:
    /// a healthy peer waiting on it must not declare it dead.
    #[test]
    fn a_busy_peer_is_not_declared_dead_by_its_silence_alone() {
        let dead_after = 60;
        let (peer, far) = link(0, dead_after * MS / 4);
        thread::scope(|scope| {
            scope.spawn(|| {
                far.send(DATA, Bytes::new());
                thread::sleep(6 * dead_after * MS);
                far.send(DATA + 1, Bytes::new());
            });
            let (mut t, peers) = (telemetry(), [peer]);
            let first = wait_on(&peers, 5_000, dead_after, &mut t).unwrap().1;
            let t0 = Instant::now();
            let second = wait_on(&peers, 5_000, dead_after, &mut t).unwrap().1;
            assert_eq!((first.kind, second.kind), (DATA, DATA + 1));
            assert!(t0.elapsed() >= 5 * dead_after * MS, "the far end was not busy");
            assert_eq!(t.link.recv_timeouts, 0);
            assert!(t.phases.idle >= 5 * dead_after * MS);
        });
    }

    #[test]
    fn a_disconnect_is_peer_lost_at_once_and_names_the_right_peer() {
        let ((a, _far_a), (b, far_b), (c, _far_c)) =
            (link(0, NEVER), link(1, NEVER), link(2, NEVER));
        drop(far_b);
        let mut t = telemetry();
        let t0 = Instant::now();
        let lost = wait_on(&[a, b, c], 10_000, 10_000, &mut t).unwrap_err();
        assert!(
            matches!(lost, TrainError::PeerLost { party: PartyId::Host(1), .. }),
            "expected host-1 lost, got {lost}"
        );
        assert!(t0.elapsed() < 2_000 * MS, "took {:?}", t0.elapsed());
        assert_eq!(t.link.recv_timeouts, 0, "a disconnect is not a timeout");
    }

    #[test]
    fn an_expired_phase_blames_the_longest_idle_peer_not_index_0() {
        // Link 1 is the oldest, so — with no keepalive ack yet — it has
        // been silent the longest when the phase deadline passes.
        let (b, _far_b) = link(1, NEVER);
        thread::sleep(40 * MS);
        let ((a, _far_a), (c, _far_c)) = (link(0, NEVER), link(2, NEVER));
        let mut t = telemetry();
        match wait_on(&[a, b, c], 150, 10_000, &mut t).unwrap_err() {
            TrainError::PeerLost { party, phase, waited } => {
                assert_eq!((party, phase), (PartyId::Host(1), ProtocolPhase::TreeBuild));
                assert!(waited >= 150 * MS, "gave up after {waited:?}");
            }
            other => panic!("expected PeerLost, got {other}"),
        }
        assert_eq!(t.link.recv_timeouts, 1);
    }

    /// Two links whose acks are blackholed: the goodbye gives up once, at
    /// the one shared deadline.
    #[test]
    fn a_goodbye_to_peers_that_never_ack_waits_one_deadline() {
        let blackholed = FaultConfig { disconnect_after_frames: Some(0), ..FaultConfig::none() };
        let link = |h| {
            let (near, far) =
                duplex_faulty(WanConfig::instant(), FaultConfig::none(), blackholed, NEVER);
            (Peer::new(near, PartyId::Guest, PartyId::Host(h), 0), far)
        };
        let ((a, _far_a), (b, _far_b)) = (link(0), link(1));
        for peer in [&a, &b] {
            peer.send_encoded(DATA, Bytes::new());
        }
        let t0 = Instant::now();
        flush_all(&[&a, &b], 300 * MS);
        let took = t0.elapsed();
        assert!(took >= 300 * MS, "an ack got through after {took:?}");
        assert!(took < 600 * MS, "lingered {took:?}");
    }

    #[test]
    fn poll_returns_none_on_an_empty_queue_and_on_a_dead_link() {
        let (peer, far) = link(0, NEVER);
        assert!(poll(&[&peer]).is_none());
        far.send(DATA, Bytes::new());
        far.flush(5_000 * MS);
        assert_eq!(poll(&[&peer]).map(|(from, env)| (from, env.kind)), Some((0, DATA)));
        drop(far);
        assert!(peer.endpoint.recv().is_err(), "the teardown reached this end");
        assert!(poll(&[&peer]).is_none());
    }

    /// A peer that keeps the link busy — with frames the caller drops every
    /// quarter of the phase deadline, or with nothing but keepalive acks —
    /// makes no protocol progress: the one deadline the caller holds still
    /// expires, long before the silence deadline could.
    #[test]
    fn neither_dropped_frames_nor_keepalive_acks_extend_the_phase() {
        for sends_frames in [true, false] {
            let (peer, far) = link(0, 10 * MS);
            let stop = AtomicBool::new(false);
            thread::scope(|scope| {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        if sends_frames {
                            far.send(DATA, Bytes::new());
                        }
                        thread::sleep(30 * MS);
                    }
                });
                let mut t = telemetry();
                let deadline = Deadline::new(ProtocolPhase::Gradients, 120 * MS);
                let (t0, mut dropped) = (Instant::now(), 0);
                let lost = loop {
                    match wait(&[&peer], &deadline, 10_000 * MS, &mut t) {
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
                assert_eq!(dropped > 0, sends_frames, "{dropped} frames reached the caller");
                assert!(peer.endpoint.idle_for() < 100 * MS, "the link was not alive");
                assert_eq!(t.link.recv_timeouts, 1);
            });
        }
    }
}
