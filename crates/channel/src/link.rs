//! Simulated cross-party WAN links with reliable, exactly-once delivery
//! over a faulty wire.
//!
//! A [`duplex`] call returns two [`Endpoint`]s wired back-to-back through
//! two one-directional simulated links. Each direction has a gateway pump
//! thread that models the wire:
//!
//! * messages serialize onto the wire FIFO at `bandwidth` bytes/sec (a
//!   sender never overtakes an earlier message),
//! * every message additionally experiences a propagation `latency`
//!   (messages pipeline: a second message does not wait for the first's
//!   latency, only for its serialization),
//! * with [`duplex_faulty`], the pump additionally injects a seeded,
//!   deterministic [`FaultConfig`] plan: drops, duplicates, bounded
//!   reordering, payload bit flips, timed stalls and scripted
//!   disconnects.
//!
//! Above the wire sits a reliable-delivery sublayer modeled on the
//! paper's Pulsar gateway queues: every data frame carries a CRC-32
//! (see [`crate::codec::Checksum`]) and a monotone sequence number; the
//! receiver acknowledges cumulatively, delivers strictly in order
//! (exactly-once), and the sender retransmits unacked frames on a
//! timeout with exponential backoff and jitter. The protocol above the
//! endpoints therefore sees clean, ordered envelopes regardless of wire
//! faults — or a [`RecvError`] if the peer is truly gone.
//!
//! The cumulative ack doubles as the link's keepalive: an endpoint that
//! has sent no ack for one keepalive interval re-sends its current one, so
//! [`Endpoint::idle_for`] stays fresh at the far end however long either
//! application thread computes or blocks elsewhere. Liveness traffic is
//! never an application message: it is not in `bytes` / `messages`.
//!
//! ## Timeouts
//!
//! [`Endpoint::recv`] blocks until a message has fully "arrived" per the
//! WAN model. [`Endpoint::recv_timeout`] is the liveness escape hatch:
//! it returns [`RecvError::Timeout`] once the deadline passes with no
//! delivery, without consuming any in-flight message — callers decide
//! whether to retry or declare the peer lost. A stalled or blackholed
//! link therefore surfaces as `Timeout` at the configured deadline
//! rather than hanging forever (the federated driver in `vf2boost-core`
//! maps this to its `PeerLost` error).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::Checksum;
use crate::fault::{FaultConfig, FaultPlan, ReliabilityConfig};

/// WAN characteristics of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanConfig {
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way propagation latency.
    pub latency: Duration,
    /// Fixed framing overhead charged per message (headers, auth token).
    pub per_message_overhead_bytes: usize,
}

impl WanConfig {
    /// The paper's environment: 300 Mbps public bandwidth between the two
    /// data centers, with a nominal 10 ms one-way latency.
    pub fn paper_public_network() -> WanConfig {
        WanConfig {
            bandwidth_bytes_per_sec: 300.0e6 / 8.0,
            latency: Duration::from_millis(10),
            per_message_overhead_bytes: 64,
        }
    }

    /// An effectively-infinite link for tests (no sleeping).
    pub fn instant() -> WanConfig {
        WanConfig {
            bandwidth_bytes_per_sec: f64::INFINITY,
            latency: Duration::ZERO,
            per_message_overhead_bytes: 0,
        }
    }

    /// Serialization time of a payload of `bytes` bytes.
    pub fn serialize_time(&self, bytes: usize) -> Duration {
        let total = (bytes + self.per_message_overhead_bytes) as f64;
        if self.bandwidth_bytes_per_sec.is_finite() && self.bandwidth_bytes_per_sec > 0.0 {
            Duration::from_secs_f64(total / self.bandwidth_bytes_per_sec)
        } else {
            Duration::ZERO
        }
    }
}

/// A routed message: a kind tag for dispatch, a sequence number for
/// exactly-once ordered delivery, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Message-kind tag (the protocol's discriminant).
    pub kind: u16,
    /// Monotone per-sender sequence number.
    pub seq: u64,
    /// Serialized message body.
    pub payload: Bytes,
}

/// Cumulative statistics of one link direction (data flowing A→B lives
/// in one `LinkStats`, acks for that data count here too even though
/// they physically travel B→A).
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Application messages sent.
    pub messages: AtomicU64,
    /// Application payload bytes sent (excluding framing overhead).
    pub bytes: AtomicU64,
    /// Duplicates suppressed at the receiver.
    pub duplicates_dropped: AtomicU64,
    /// Data frames retransmitted after an RTO expiry.
    pub retransmissions: AtomicU64,
    /// Ack frames received for this direction's data.
    pub acks_received: AtomicU64,
    /// Frames rejected at the receiver due to checksum mismatch.
    pub corrupt_rejected: AtomicU64,
    /// Frames the fault plan silently dropped (including blackholes).
    pub faults_dropped: AtomicU64,
    /// Data frames the fault plan corrupted in flight.
    pub faults_corrupted: AtomicU64,
    /// Frames the fault plan held back for reordering.
    pub faults_reordered: AtomicU64,
    /// Frames the fault plan delivered twice.
    pub faults_duplicated: AtomicU64,
}

macro_rules! stats_getters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(&self) -> u64 {
                self.$name.load(Ordering::Relaxed)
            }
        )+
    };
}

impl LinkStats {
    stats_getters! {
        /// Application messages sent so far.
        messages,
        /// Application payload bytes sent so far.
        bytes,
        /// Duplicates dropped so far.
        duplicates_dropped,
        /// Retransmissions so far.
        retransmissions,
        /// Acks received so far.
        acks_received,
        /// Corrupt frames rejected so far.
        corrupt_rejected,
        /// Frames dropped by fault injection so far.
        faults_dropped,
        /// Frames corrupted by fault injection so far.
        faults_corrupted,
        /// Frames reordered by fault injection so far.
        faults_reordered,
        /// Frames duplicated by fault injection so far.
        faults_duplicated,
    }
}

/// Receive-side failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The peer endpoint was dropped and the queue is drained.
    Disconnected,
    /// No message arrived within the timeout.
    Timeout,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Disconnected => write!(f, "peer disconnected"),
            RecvError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for RecvError {}

/// What actually travels over the simulated wire.
#[derive(Debug, Clone)]
enum Frame {
    /// An application envelope plus its CRC-32.
    Data { env: Envelope, checksum: u32 },
    /// Cumulative acknowledgement: every seq `< next` arrived intact
    /// (`next` is the sequence number the receiver expects next, so the
    /// ack is well-defined before any data arrived — the keepalive form).
    Ack { next: u64 },
}

/// CRC-32 over a frame's header and payload.
fn frame_checksum(kind: u16, seq: u64, payload: &[u8]) -> u32 {
    let mut c = Checksum::new();
    c.update(&kind.to_le_bytes());
    c.update(&seq.to_le_bytes());
    c.update(payload);
    c.finish()
}

/// An unacked frame awaiting (re)transmission.
struct Pending {
    env: Envelope,
    checksum: u32,
    next_at: Instant,
    rto: Duration,
}

type RetxBuffer = BTreeMap<u64, Pending>;

/// How often blocked link threads poll for shutdown.
const LINK_TICK: Duration = Duration::from_millis(20);

/// Keepalive interval of a plain [`duplex`] link: a quarter of the
/// federated driver's default silence deadline.
const DEFAULT_KEEPALIVE: Duration = Duration::from_secs(15);

/// One end of a duplex cross-party link.
///
/// Dropping an endpoint tears down its side of the link; the peer then
/// observes [`RecvError::Disconnected`] once its delivery queue drains.
pub struct Endpoint {
    raw_tx: Sender<Frame>,
    delivered_rx: Receiver<Envelope>,
    next_seq: AtomicU64,
    retx: Arc<Mutex<RetxBuffer>>,
    rel: ReliabilityConfig,
    send_stats: Arc<LinkStats>,
    recv_stats: Arc<LinkStats>,
    shutdown: Arc<AtomicBool>,
    last_heard: Arc<Mutex<Instant>>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("sent", &self.send_stats.messages())
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Endpoint {
    /// Sends a message. Never blocks on the WAN simulation (the sender
    /// hands the message to the gateway queue and proceeds — this is what
    /// lets the blaster scheme overlap encryption with transfer). The
    /// frame stays in the retransmit buffer until the peer acknowledges
    /// it, so wire faults cannot lose it.
    pub fn send(&self, kind: u16, payload: Bytes) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.send_stats.messages.fetch_add(1, Ordering::Relaxed);
        self.send_stats.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        let checksum = frame_checksum(kind, seq, &payload);
        let env = Envelope { kind, seq, payload };
        self.retx.lock().insert(
            seq,
            Pending {
                env: env.clone(),
                checksum,
                next_at: Instant::now() + self.rel.initial_rto,
                rto: self.rel.initial_rto,
            },
        );
        // Ignore a disconnected peer: protocol teardown races are benign.
        let _ = self.raw_tx.send(Frame::Data { env, checksum });
    }

    /// Receives the next message, blocking until it has "arrived" per the
    /// WAN model. Delivery is exactly-once and strictly in sequence
    /// order; duplicates and corrupt frames are handled below this call.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        self.delivered_rx.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Receives with a deadline. Returns [`RecvError::Timeout`] if no
    /// message has fully arrived within `timeout`; no in-flight message
    /// is consumed or lost by timing out, so callers may retry. This is
    /// the primitive the federated driver builds its per-phase peer
    /// deadlines on: a stalled link fires `Timeout` at the configured
    /// deadline instead of hanging.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.delivered_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Non-blocking receive: returns a message only if one has fully
    /// arrived.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.delivered_rx.try_recv().ok()
    }

    /// Blocks until every frame this endpoint sent has been acknowledged
    /// by the peer, or `timeout` expires. Returns `true` when the
    /// retransmit buffer drained.
    ///
    /// Call this before dropping the endpoint after a final message (an
    /// orderly `Shutdown`): dropping tears the link down, and a frame
    /// the fault plan happened to drop would otherwise die in the
    /// retransmit buffer — turning a clean goodbye into a peer-side
    /// `Disconnected`.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.retx.lock().is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Time since this endpoint last heard *anything* intact from the
    /// peer — a checksum-valid data frame (even a duplicate) or an ack.
    ///
    /// This is the liveness signal peer supervision builds on: the peer's
    /// reliability thread acks incoming data, and re-sends its ack once
    /// per keepalive interval, regardless of what its application thread
    /// is doing — so a peer that is merely busy computing keeps this
    /// fresh, while a dead process or a blackholed direction lets it grow
    /// without bound.
    pub fn idle_for(&self) -> Duration {
        self.last_heard.lock().elapsed()
    }

    /// Statistics of the direction this endpoint sends on.
    pub fn send_stats(&self) -> &Arc<LinkStats> {
        &self.send_stats
    }

    /// Statistics of the direction this endpoint receives on.
    pub fn recv_stats(&self) -> &Arc<LinkStats> {
        &self.recv_stats
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // Wake the reliability thread out of its retransmit loop so the
        // teardown cascade (rel thread → pump → peer) can proceed.
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Outcome of a [`recv_ready`] wait across several endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvReady {
    /// A message fully arrived on `endpoints[idx]`.
    Msg(usize, Envelope),
    /// `endpoints[idx]` is torn down and its delivery queue is drained.
    Disconnected(usize),
    /// Nothing arrived anywhere within the timeout.
    Timeout,
}

/// Waits on several endpoints at once, returning the first fully-arrived
/// message — or which endpoint disconnected, or a timeout.
///
/// This is the wakeup-based primitive a multi-party driver builds its
/// event queue on: the calling thread parks on every delivery queue
/// simultaneously (one shared condvar-backed waker registered on each
/// queue) instead of round-robin polling each endpoint with a short
/// `recv_timeout` — which burns a full core the moment two or more peers
/// are live.
///
/// Two properties callers rely on:
///
/// * **Deterministic harvest order.** When several endpoints have a
///   message ready, the *lowest index* wins, not `Select`'s randomized
///   pick. (Protocol determinism must never depend on this — decisions
///   key off complete per-node message sets — but a stable order keeps
///   traces and fault attribution reproducible.)
/// * **No consumption on timeout.** Like [`Endpoint::recv_timeout`], a
///   `Timeout` result consumes nothing; callers retry or escalate.
pub fn recv_ready(endpoints: &[&Endpoint], timeout: Duration) -> RecvReady {
    use crossbeam::channel::{TryRecvError, Waker};
    let deadline = Instant::now() + timeout;
    if endpoints.is_empty() {
        thread::sleep(timeout);
        return RecvReady::Timeout;
    }
    // Register the shared waker on every queue *before* the readiness
    // scan: a delivery racing the scan latches the waker, so the wakeup
    // cannot be lost between scan and park.
    let waker = Waker::new();
    for ep in endpoints {
        ep.delivered_rx.register_waker(&waker);
    }
    let outcome = loop {
        // Index-ordered harvest: scan for anything already delivered (or
        // a torn-down queue) before parking. The lowest index wins ties.
        let mut hit = None;
        for (idx, ep) in endpoints.iter().enumerate() {
            match ep.delivered_rx.try_recv() {
                Ok(env) => {
                    hit = Some(RecvReady::Msg(idx, env));
                    break;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => {
                    hit = Some(RecvReady::Disconnected(idx));
                    break;
                }
            }
        }
        if let Some(outcome) = hit {
            break outcome;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break RecvReady::Timeout;
        }
        // Park until some queue signals (delivery or disconnect); then
        // loop back and classify via the index-ordered scan. A spurious
        // or already-consumed wakeup simply re-parks for the remainder.
        waker.wait_timeout(remaining);
    };
    for ep in endpoints {
        ep.delivered_rx.clear_waker(&waker);
    }
    outcome
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        thread::sleep(deadline - now);
    }
}

/// Creates a duplex link: two endpoints, each direction simulated with
/// `cfg`, fault-free.
pub fn duplex(cfg: WanConfig) -> (Endpoint, Endpoint) {
    let calm = FaultConfig::none();
    duplex_faulty(cfg, calm, calm, ReliabilityConfig::default(), DEFAULT_KEEPALIVE)
}

/// Creates a duplex link whose directions misbehave per the given fault
/// plans (`fault_ab` applies to frames A→B, `fault_ba` to B→A). The
/// reliable-delivery sublayer masks every fault except a permanent
/// disconnect: application messages arrive exactly once, in order,
/// bit-intact. Each end re-sends its cumulative ack once per `keepalive`
/// of having sent none; a caller that declares a silent peer dead picks
/// an interval well inside that deadline.
pub fn duplex_faulty(
    cfg: WanConfig,
    fault_ab: FaultConfig,
    fault_ba: FaultConfig,
    rel: ReliabilityConfig,
    keepalive: Duration,
) -> (Endpoint, Endpoint) {
    let ab_stats = Arc::new(LinkStats::default());
    let ba_stats = Arc::new(LinkStats::default());

    let (a_tx, ab_pump_rx) = unbounded::<Frame>();
    let (ab_wire_tx, ab_wire_rx) = unbounded::<(Instant, Frame)>();
    spawn_pump(cfg, fault_ab, rel, ab_pump_rx, ab_wire_tx, ab_stats.clone());

    let (b_tx, ba_pump_rx) = unbounded::<Frame>();
    let (ba_wire_tx, ba_wire_rx) = unbounded::<(Instant, Frame)>();
    spawn_pump(cfg, fault_ba, rel, ba_pump_rx, ba_wire_tx, ba_stats.clone());

    let (ab, ba) = (ab_stats.clone(), ba_stats.clone());
    let a = spawn_endpoint(a_tx, ba_wire_rx, rel, keepalive, ab, ba, fault_ab.seed);
    let b = spawn_endpoint(b_tx, ab_wire_rx, rel, keepalive, ba_stats, ab_stats, fault_ba.seed);
    (a, b)
}

/// Builds one endpoint and spawns its reliability thread, which owns the
/// incoming wire, the ack generation, and the retransmit timer.
fn spawn_endpoint(
    raw_tx: Sender<Frame>,
    incoming: Receiver<(Instant, Frame)>,
    rel: ReliabilityConfig,
    keepalive: Duration,
    send_stats: Arc<LinkStats>,
    recv_stats: Arc<LinkStats>,
    jitter_seed: u64,
) -> Endpoint {
    let (delivered_tx, delivered_rx) = unbounded::<Envelope>();
    let retx: Arc<Mutex<RetxBuffer>> = Arc::new(Mutex::new(BTreeMap::new()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let last_heard = Arc::new(Mutex::new(Instant::now()));
    {
        let raw_tx = raw_tx.clone();
        let retx = retx.clone();
        let send_stats = send_stats.clone();
        let recv_stats = recv_stats.clone();
        let shutdown = shutdown.clone();
        let last_heard = last_heard.clone();
        // Spawning can only fail on OS thread exhaustion at link setup,
        // before any federated state exists; aborting there is the only
        // sane response and nothing needs unwinding.
        #[allow(clippy::expect_used)]
        thread::Builder::new()
            .name("vf2-link-rel".into())
            .spawn(move || {
                reliability_loop(
                    incoming,
                    raw_tx,
                    delivered_tx,
                    retx,
                    rel,
                    keepalive,
                    send_stats,
                    recv_stats,
                    shutdown,
                    last_heard,
                    jitter_seed,
                );
            })
            .expect("spawn link reliability thread");
    }
    Endpoint {
        raw_tx,
        delivered_rx,
        next_seq: AtomicU64::new(0),
        retx,
        rel,
        send_stats,
        recv_stats,
        shutdown,
        last_heard,
    }
}

/// Receiver-side reliable delivery plus sender-side retransmission.
#[allow(clippy::too_many_arguments)]
fn reliability_loop(
    incoming: Receiver<(Instant, Frame)>,
    raw_tx: Sender<Frame>,
    delivered_tx: Sender<Envelope>,
    retx: Arc<Mutex<RetxBuffer>>,
    rel: ReliabilityConfig,
    keepalive: Duration,
    send_stats: Arc<LinkStats>,
    recv_stats: Arc<LinkStats>,
    shutdown: Arc<AtomicBool>,
    last_heard: Arc<Mutex<Instant>>,
    jitter_seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(jitter_seed ^ 0x5EED_AC4E);
    // Next in-order sequence number to deliver to the application.
    let mut expected: u64 = 0;
    // Out-of-order frames parked until the gap before them is filled.
    let mut parked: BTreeMap<u64, Envelope> = BTreeMap::new();
    // When this end last sent an ack; the next keepalive is due one
    // interval later.
    let mut acked_at = Instant::now();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        let mut wait = LINK_TICK.min(keepalive.saturating_sub(now.duration_since(acked_at)));
        if let Some(due) = retx.lock().values().map(|p| p.next_at).min() {
            wait = wait.min(due.saturating_duration_since(now));
        }
        let mut data_heard = false;
        match incoming.recv_timeout(wait) {
            Ok((deliver_at, frame)) => {
                // Honor the WAN model: the frame exists only once it has
                // propagated.
                sleep_until(deliver_at);
                match frame {
                    Frame::Data { env, checksum } => {
                        if frame_checksum(env.kind, env.seq, &env.payload) != checksum {
                            // Reject silently; the missing ack makes the
                            // sender re-send an intact copy. A corrupt
                            // frame cannot be authenticated, so it does
                            // not count as hearing from the peer.
                            recv_stats.corrupt_rejected.fetch_add(1, Ordering::Relaxed);
                        } else if env.seq < expected || parked.contains_key(&env.seq) {
                            *last_heard.lock() = Instant::now();
                            recv_stats.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            *last_heard.lock() = Instant::now();
                            parked.insert(env.seq, env);
                            while let Some(next) = parked.remove(&expected) {
                                if delivered_tx.send(next).is_err() {
                                    // Application endpoint is gone.
                                    return;
                                }
                                expected += 1;
                            }
                        }
                        data_heard = true;
                    }
                    Frame::Ack { next } => {
                        *last_heard.lock() = Instant::now();
                        send_stats.acks_received.fetch_add(1, Ordering::Relaxed);
                        let mut buffer = retx.lock();
                        let keep = buffer.split_off(&next);
                        *buffer = keep;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        // The cumulative ack answers every data frame (duplicates and
        // corrupt ones too, so lost acks heal themselves) and is re-sent
        // once per keepalive interval of having sent none: that is what
        // keeps the far end's `idle_for` fresh while neither application
        // thread sends, and what heals a lost final ack without a data
        // retransmission.
        if data_heard || acked_at.elapsed() >= keepalive {
            let _ = raw_tx.send(Frame::Ack { next: expected });
            acked_at = Instant::now();
        }
        // Retransmit everything past its deadline, with exponential
        // backoff and jitter so repeated losses don't synchronize.
        let now = Instant::now();
        let mut buffer = retx.lock();
        for pending in buffer.values_mut() {
            if pending.next_at <= now {
                send_stats.retransmissions.fetch_add(1, Ordering::Relaxed);
                let _ = raw_tx
                    .send(Frame::Data { env: pending.env.clone(), checksum: pending.checksum });
                pending.rto = pending.rto.saturating_mul(rel.backoff).min(rel.max_rto);
                let jitter = 1.0 + rel.jitter_frac * rng.gen::<f64>();
                pending.next_at = now + pending.rto.mul_f64(jitter);
            }
        }
    }
}

/// Spawns one direction's gateway pump: wire pacing plus fault injection.
fn spawn_pump(
    cfg: WanConfig,
    fault: FaultConfig,
    rel: ReliabilityConfig,
    pump_rx: Receiver<Frame>,
    wire_tx: Sender<(Instant, Frame)>,
    stats: Arc<LinkStats>,
) {
    // As above: thread spawn only fails on OS resource exhaustion during
    // link construction, before the protocol starts; abort is correct.
    #[allow(clippy::expect_used)]
    thread::Builder::new()
        .name("vf2-gateway-pump".into())
        .spawn(move || {
            let mut plan = FaultPlan::new(fault);
            let born = Instant::now();
            // `wire_free_at` enforces FIFO serialization: each frame
            // occupies the wire for its serialization time.
            let mut wire_free_at = born;
            // Frames held back by the reorder fault: (frames still to
            // overtake this one, frame).
            let mut held: Vec<(usize, Frame)> = Vec::new();
            'pump: loop {
                let frame = match pump_rx.recv_timeout(LINK_TICK) {
                    Ok(f) => Some(f),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                let mut to_send: Vec<Frame> = Vec::new();
                match frame {
                    Some(mut frame) => {
                        let action = plan.next_frame();
                        if plan.blackholed() {
                            stats.faults_dropped.fetch_add(1, Ordering::Relaxed);
                            held.clear();
                            continue;
                        }
                        // Every later frame ages the reorder holds.
                        for h in &mut held {
                            h.0 = h.0.saturating_sub(1);
                        }
                        if action.drop {
                            stats.faults_dropped.fetch_add(1, Ordering::Relaxed);
                        } else {
                            if action.corrupt {
                                if let Frame::Data { env, .. } = &mut frame {
                                    corrupt_payload(env, plan.rng());
                                    stats.faults_corrupted.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            if action.hold_depth > 0 {
                                held.push((action.hold_depth, frame));
                                stats.faults_reordered.fetch_add(1, Ordering::Relaxed);
                            } else if action.duplicate {
                                stats.faults_duplicated.fetch_add(1, Ordering::Relaxed);
                                to_send.push(frame.clone());
                                to_send.push(frame);
                            } else {
                                to_send.push(frame);
                            }
                        }
                    }
                    // Idle tick: flush every hold so reordering at the
                    // tail of a burst doesn't become a permanent drop.
                    None => {
                        for h in &mut held {
                            h.0 = 0;
                        }
                    }
                }
                let mut i = 0;
                while i < held.len() {
                    if held[i].0 == 0 {
                        to_send.push(held.remove(i).1);
                    } else {
                        i += 1;
                    }
                }
                for f in to_send {
                    let now = Instant::now();
                    let mut start = wire_free_at.max(now);
                    if let Some(window) = fault.stall {
                        let stall_start = born + window.after;
                        let stall_end = stall_start + window.duration;
                        if start >= stall_start && start < stall_end {
                            start = stall_end;
                        }
                    }
                    let size = match &f {
                        Frame::Data { env, .. } => env.payload.len(),
                        Frame::Ack { .. } => rel.ack_wire_bytes,
                    };
                    wire_free_at = start + cfg.serialize_time(size);
                    // Pace the pump so the sender-side queue drains at
                    // wire speed (models gateway back-pressure without
                    // blocking the send call itself).
                    sleep_until(wire_free_at);
                    let deliver_at = wire_free_at + cfg.latency;
                    if wire_tx.send((deliver_at, f)).is_err() {
                        break 'pump;
                    }
                }
            }
        })
        .expect("spawn gateway pump thread");
}

/// Flips one random payload bit (the advertised checksum is left alone,
/// so the receiver detects the damage). Empty payloads grow a junk byte
/// instead, which equally breaks the checksum.
fn corrupt_payload(env: &mut Envelope, rng: &mut StdRng) {
    let mut bytes = env.payload.to_vec();
    if bytes.is_empty() {
        bytes.push(0xFF);
    } else {
        let byte = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0u32..8);
        bytes[byte] ^= 1 << bit;
    }
    env.payload = Bytes::from(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StallWindow;

    #[test]
    fn flush_drains_once_the_peer_acks() {
        let (a, b) = duplex(WanConfig::instant());
        a.send(1, Bytes::from_static(b"hello"));
        assert_eq!(b.recv().unwrap().kind, 1);
        // Receipt triggers the cumulative ack; the buffer must drain.
        assert!(a.flush(Duration::from_secs(5)));
        // A dropped peer can never ack: flush times out with `false`.
        drop(b);
        a.send(2, Bytes::from_static(b"void"));
        assert!(!a.flush(Duration::from_millis(50)));
    }

    #[test]
    fn messages_round_trip_in_order() {
        let (a, b) = duplex(WanConfig::instant());
        for i in 0..10u16 {
            a.send(i, Bytes::from(vec![i as u8; 4]));
        }
        for i in 0..10u16 {
            let env = b.recv().unwrap();
            assert_eq!(env.kind, i);
            assert_eq!(env.payload.as_ref(), &[i as u8; 4]);
        }
    }

    #[test]
    fn duplex_is_bidirectional() {
        let (a, b) = duplex(WanConfig::instant());
        a.send(1, Bytes::from_static(b"ping"));
        assert_eq!(b.recv().unwrap().payload.as_ref(), b"ping");
        b.send(2, Bytes::from_static(b"pong"));
        assert_eq!(a.recv().unwrap().payload.as_ref(), b"pong");
    }

    #[test]
    fn latency_delays_delivery() {
        let cfg = WanConfig {
            bandwidth_bytes_per_sec: f64::INFINITY,
            latency: Duration::from_millis(30),
            per_message_overhead_bytes: 0,
        };
        let (a, b) = duplex(cfg);
        let t0 = Instant::now();
        a.send(0, Bytes::from_static(b"x"));
        b.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn bandwidth_serializes_large_messages() {
        let cfg = WanConfig {
            bandwidth_bytes_per_sec: 1.0e6, // 1 MB/s
            latency: Duration::ZERO,
            per_message_overhead_bytes: 0,
        };
        let (a, b) = duplex(cfg);
        let t0 = Instant::now();
        a.send(0, Bytes::from(vec![0u8; 50_000])); // 50 ms on the wire
        b.recv().unwrap();
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(45), "took {dt:?}");
    }

    #[test]
    fn messages_pipeline_through_latency() {
        // Two messages with high latency but instant serialization should
        // take ~1 latency total, not ~2 (they overlap in flight).
        let cfg = WanConfig {
            bandwidth_bytes_per_sec: f64::INFINITY,
            latency: Duration::from_millis(40),
            per_message_overhead_bytes: 0,
        };
        let (a, b) = duplex(cfg);
        let t0 = Instant::now();
        a.send(0, Bytes::from_static(b"1"));
        a.send(1, Bytes::from_static(b"2"));
        b.recv().unwrap();
        b.recv().unwrap();
        let dt = t0.elapsed();
        assert!(dt < Duration::from_millis(75), "messages should pipeline, took {dt:?}");
    }

    #[test]
    fn duplicates_are_suppressed() {
        let (a, b) = duplex(WanConfig::instant());
        a.send(0, Bytes::from_static(b"first")); // seq 0
        let env = Envelope { kind: 0, seq: 0, payload: Bytes::from_static(b"first") };
        let checksum = frame_checksum(env.kind, env.seq, &env.payload);
        // The same envelope again, past sequence assignment and the
        // retransmit buffer.
        a.raw_tx.send(Frame::Data { env, checksum }).unwrap();
        a.send(1, Bytes::from_static(b"second")); // seq 1
        assert_eq!(b.recv().unwrap().payload.as_ref(), b"first");
        assert_eq!(b.recv().unwrap().payload.as_ref(), b"second");
        assert!(b.recv_stats().duplicates_dropped() >= 1);
    }

    #[test]
    fn stats_count_bytes_and_messages() {
        let (a, b) = duplex(WanConfig::instant());
        a.send(0, Bytes::from(vec![0u8; 100]));
        a.send(0, Bytes::from(vec![0u8; 28]));
        b.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(a.send_stats().messages(), 2);
        assert_eq!(a.send_stats().bytes(), 128);
        assert_eq!(b.recv_stats().bytes(), 128); // same direction object
    }

    #[test]
    fn disconnect_surfaces_as_error() {
        let (a, b) = duplex(WanConfig::instant());
        drop(a);
        // Give the teardown cascade (rel thread → pump → peer) a moment.
        assert_eq!(b.recv_timeout(Duration::from_millis(500)), Err(RecvError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_when_silent() {
        let (_a, b) = duplex(WanConfig::instant());
        let t0 = Instant::now();
        assert_eq!(b.recv_timeout(Duration::from_millis(30)), Err(RecvError::Timeout));
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        let (_a, b) = duplex(WanConfig::instant());
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn recv_ready_wakes_on_any_endpoint() {
        let (a1, b1) = duplex(WanConfig::instant());
        let (_a2, b2) = duplex(WanConfig::instant());
        a1.send(7, Bytes::from_static(b"wake"));
        match recv_ready(&[&b2, &b1], Duration::from_secs(5)) {
            RecvReady::Msg(idx, env) => {
                assert_eq!(idx, 1);
                assert_eq!(env.kind, 7);
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn recv_ready_times_out_without_spinning() {
        let (_a1, b1) = duplex(WanConfig::instant());
        let (_a2, b2) = duplex(WanConfig::instant());
        let t0 = Instant::now();
        assert_eq!(recv_ready(&[&b1, &b2], Duration::from_millis(40)), RecvReady::Timeout);
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn recv_ready_prefers_the_lowest_index() {
        let (a1, b1) = duplex(WanConfig::instant());
        let (a2, b2) = duplex(WanConfig::instant());
        a1.send(1, Bytes::from_static(b"one"));
        a2.send(2, Bytes::from_static(b"two"));
        // Let both deliveries land so the pick is a genuine tie-break.
        thread::sleep(Duration::from_millis(50));
        match recv_ready(&[&b1, &b2], Duration::from_secs(5)) {
            RecvReady::Msg(idx, env) => {
                assert_eq!(idx, 0, "index order must win the tie");
                assert_eq!(env.kind, 1);
            }
            other => panic!("expected message, got {other:?}"),
        }
    }

    #[test]
    fn recv_ready_names_the_disconnected_endpoint() {
        let (_a1, b1) = duplex(WanConfig::instant());
        let (a2, b2) = duplex(WanConfig::instant());
        drop(a2);
        // Give the teardown cascade a moment to drain the delivery queue.
        thread::sleep(Duration::from_millis(200));
        assert_eq!(recv_ready(&[&b1, &b2], Duration::from_secs(5)), RecvReady::Disconnected(1));
    }

    #[test]
    fn recv_ready_consumes_nothing_on_timeout() {
        let (a1, b1) = duplex(WanConfig::instant());
        let (_a2, b2) = duplex(WanConfig::instant());
        assert_eq!(recv_ready(&[&b1, &b2], Duration::from_millis(20)), RecvReady::Timeout);
        a1.send(9, Bytes::from_static(b"later"));
        match recv_ready(&[&b1, &b2], Duration::from_secs(5)) {
            RecvReady::Msg(0, env) => assert_eq!(env.kind, 9),
            other => panic!("expected message on 0, got {other:?}"),
        }
    }

    #[test]
    fn idle_for_resets_on_traffic_and_grows_during_silence() {
        let (a, b) = duplex(WanConfig::instant());
        thread::sleep(Duration::from_millis(40));
        assert!(b.idle_for() >= Duration::from_millis(35));
        a.send(0, Bytes::from_static(b"alive"));
        b.recv().unwrap();
        // Receipt of the intact frame resets the receiver's clock, and
        // the cumulative ack coming back resets the sender's too.
        assert!(b.idle_for() < Duration::from_millis(35));
        assert!(a.flush(Duration::from_secs(5)));
        assert!(a.idle_for() < Duration::from_millis(100));
        // Renewed silence grows both clocks again.
        thread::sleep(Duration::from_millis(40));
        assert!(b.idle_for() >= Duration::from_millis(35));
        assert!(a.idle_for() >= Duration::from_millis(35));
    }

    #[test]
    fn paper_network_serialization_math() {
        let cfg = WanConfig::paper_public_network();
        // A 512-byte cipher + 64B overhead at 37.5 MB/s ≈ 15.4 µs.
        let t = cfg.serialize_time(512);
        assert!(t > Duration::from_micros(14) && t < Duration::from_micros(17), "{t:?}");
    }

    // ---- the cumulative ack as keepalive ----

    /// Keepalive interval of the tests below.
    const KEEPALIVE: Duration = Duration::from_millis(40);

    /// A link that keepalives every [`KEEPALIVE`] and, with an RTO longer
    /// than any test, never retransmits: whatever keeps `idle_for` fresh
    /// or drains a buffer here is an ack.
    fn keepalive_link(fault_ab: FaultConfig, fault_ba: FaultConfig) -> (Endpoint, Endpoint) {
        let rel = ReliabilityConfig { initial_rto: Duration::from_secs(30), ..Default::default() };
        duplex_faulty(WanConfig::instant(), fault_ab, fault_ba, rel, KEEPALIVE)
    }

    /// The longest `idle_for` either listed endpoint shows over `window`.
    fn longest_silence(ends: &[&Endpoint], window: Duration) -> Duration {
        let t0 = Instant::now();
        let mut longest = Duration::ZERO;
        while t0.elapsed() < window {
            longest = ends.iter().map(|e| e.idle_for()).fold(longest, Duration::max);
            thread::sleep(Duration::from_millis(2));
        }
        longest
    }

    #[test]
    fn keepalive_acks_keep_an_idle_link_fresh_on_both_sides() {
        let (a, b) = keepalive_link(FaultConfig::none(), FaultConfig::none());
        // Before any data the ack says "next = 0" and acknowledges nothing.
        let silence = longest_silence(&[&a, &b], 8 * KEEPALIVE);
        assert!(silence < 2 * KEEPALIVE, "silent for {silence:?} before the first frame");
        a.send(3, Bytes::from_static(b"data"));
        assert_eq!(b.recv().unwrap().kind, 3);
        let silence = longest_silence(&[&a, &b], 8 * KEEPALIVE);
        assert!(silence < 2 * KEEPALIVE, "silent for {silence:?} after the first frame");
        // Liveness traffic is not application traffic, and nothing was
        // delivered or retransmitted for it.
        for (near, far) in [(&a, &b), (&b, &a)] {
            assert!(near.send_stats().acks_received() >= 8);
            assert_eq!(near.send_stats().retransmissions(), 0);
            assert!(far.try_recv().is_none());
        }
        assert_eq!((a.send_stats().messages(), a.send_stats().bytes()), (1, 4));
        assert_eq!((b.send_stats().messages(), b.send_stats().bytes()), (0, 0));
    }

    #[test]
    fn a_blackholed_direction_grows_stale_while_the_healthy_one_stays_fresh() {
        let dead = FaultConfig { disconnect_after_frames: Some(0), ..FaultConfig::none() };
        let (a, b) = keepalive_link(dead, FaultConfig::none());
        // B hears nothing of A, ever; A keeps hearing B's keepalives.
        let silence = longest_silence(&[&a], 8 * KEEPALIVE);
        assert!(silence < 2 * KEEPALIVE, "the healthy direction went silent for {silence:?}");
        assert!(b.idle_for() >= 8 * KEEPALIVE, "heard through a blackhole: {:?}", b.idle_for());
        assert!(a.send_stats().faults_dropped() >= 4);
    }

    #[test]
    fn a_stall_window_delays_keepalives_and_idle_for_recovers_after_it() {
        let outage = 6 * KEEPALIVE;
        let stall = Some(StallWindow { after: Duration::ZERO, duration: outage });
        let (_a, b) =
            keepalive_link(FaultConfig { stall, ..FaultConfig::none() }, FaultConfig::none());
        thread::sleep(outage - KEEPALIVE);
        assert!(b.idle_for() >= outage - 2 * KEEPALIVE, "heard through a stall");
        // The queued keepalives land when the window lifts, and the
        // cadence resumes.
        thread::sleep(2 * KEEPALIVE);
        let silence = longest_silence(&[&b], 4 * KEEPALIVE);
        assert!(silence < 2 * KEEPALIVE, "silent for {silence:?} after the stall");
    }

    #[test]
    fn the_next_keepalive_heals_a_lost_final_ack_without_a_retransmission() {
        // A seed whose plan drops the first B→A frame — the ack of A's only
        // data frame — and delivers the second, the keepalive after it.
        let lossy = |seed| FaultConfig { seed, drop_prob: 0.5, ..FaultConfig::none() };
        let seed = (0..64)
            .find(|&seed| {
                let mut plan = FaultPlan::new(lossy(seed));
                plan.next_frame().drop && !plan.next_frame().drop
            })
            .expect("some seed drops exactly the first of two frames");
        let (a, b) = keepalive_link(FaultConfig::none(), lossy(seed));
        a.send(0, Bytes::from_static(b"last"));
        assert_eq!(b.recv().unwrap().payload.as_ref(), b"last");
        assert!(a.flush(Duration::from_secs(5)), "no keepalive drained the buffer");
        assert!(b.send_stats().faults_dropped() >= 1, "the plan never dropped the ack");
        assert_eq!(a.send_stats().retransmissions(), 0);
    }

    #[test]
    fn dropping_an_endpoint_stops_its_keepalives() {
        let (a, b) = keepalive_link(FaultConfig::none(), FaultConfig::none());
        drop(a);
        assert_eq!(b.recv_timeout(Duration::from_millis(500)), Err(RecvError::Disconnected));
        thread::sleep(6 * KEEPALIVE);
        assert!(b.idle_for() >= 5 * KEEPALIVE, "a dropped endpoint kept acking");
    }

    // ---- fault injection + reliable delivery ----

    /// Sends `n` tagged messages A→B over a faulty link and checks they
    /// arrive exactly once, in order, bit-intact.
    fn assert_reliable_delivery(fault: FaultConfig, n: u64) -> (Endpoint, Endpoint) {
        let rel = ReliabilityConfig::aggressive();
        let (a, b) = duplex_faulty(WanConfig::instant(), fault, fault, rel, DEFAULT_KEEPALIVE);
        for i in 0..n {
            a.send((i % 7) as u16, Bytes::from(i.to_le_bytes().to_vec()));
        }
        for i in 0..n {
            let env = b.recv_timeout(Duration::from_secs(20)).unwrap();
            assert_eq!(env.seq, i);
            assert_eq!(env.kind, (i % 7) as u16);
            assert_eq!(env.payload.as_ref(), &i.to_le_bytes());
        }
        (a, b)
    }

    #[test]
    fn drops_are_masked_by_retransmission() {
        let fault = FaultConfig { seed: 11, drop_prob: 0.2, ..FaultConfig::none() };
        let (a, _b) = assert_reliable_delivery(fault, 100);
        assert!(a.send_stats().faults_dropped() > 0, "plan never fired");
        assert!(a.send_stats().retransmissions() > 0);
        assert!(a.send_stats().acks_received() > 0);
    }

    #[test]
    fn corruption_is_rejected_and_retransmitted() {
        let fault = FaultConfig { seed: 12, corrupt_prob: 0.2, ..FaultConfig::none() };
        let (a, _b) = assert_reliable_delivery(fault, 100);
        assert!(a.send_stats().faults_corrupted() > 0, "plan never fired");
        assert!(a.send_stats().corrupt_rejected() > 0);
        assert!(a.send_stats().retransmissions() > 0);
    }

    #[test]
    fn duplicates_and_reordering_are_masked() {
        let fault = FaultConfig {
            seed: 13,
            duplicate_prob: 0.15,
            reorder_prob: 0.15,
            reorder_depth: 4,
            ..FaultConfig::none()
        };
        let (a, _b) = assert_reliable_delivery(fault, 200);
        assert!(a.send_stats().faults_duplicated() > 0, "dup plan never fired");
        assert!(a.send_stats().faults_reordered() > 0, "reorder plan never fired");
        assert!(a.send_stats().duplicates_dropped() > 0);
    }

    #[test]
    fn combined_faults_still_deliver_everything() {
        let (a, _b) = assert_reliable_delivery(FaultConfig::lossy(99), 300);
        assert!(a.send_stats().faults_dropped() > 0);
    }

    #[test]
    fn stalled_link_fires_timeout_at_the_deadline() {
        // The link blacks out immediately for 10 s; a 50 ms recv deadline
        // must fire as a Timeout at ~50 ms, not hang until the stall ends.
        let fault = FaultConfig {
            stall: Some(StallWindow { after: Duration::ZERO, duration: Duration::from_secs(10) }),
            ..FaultConfig::none()
        };
        let (a, b) = duplex_faulty(
            WanConfig::instant(),
            fault,
            FaultConfig::none(),
            ReliabilityConfig::default(),
            DEFAULT_KEEPALIVE,
        );
        a.send(0, Bytes::from_static(b"stuck"));
        let t0 = Instant::now();
        assert_eq!(b.recv_timeout(Duration::from_millis(50)), Err(RecvError::Timeout));
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(50), "fired early: {dt:?}");
        assert!(dt < Duration::from_secs(5), "hung past the deadline: {dt:?}");
    }

    #[test]
    fn stall_window_delays_then_delivers() {
        let fault = FaultConfig {
            stall: Some(StallWindow { after: Duration::ZERO, duration: Duration::from_millis(80) }),
            ..FaultConfig::none()
        };
        let (a, b) = duplex_faulty(
            WanConfig::instant(),
            fault,
            FaultConfig::none(),
            ReliabilityConfig::default(),
            DEFAULT_KEEPALIVE,
        );
        let t0 = Instant::now();
        a.send(0, Bytes::from_static(b"delayed"));
        let env = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.payload.as_ref(), b"delayed");
        assert!(t0.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn scripted_disconnect_blackholes_forever() {
        let fault =
            FaultConfig { seed: 14, disconnect_after_frames: Some(2), ..FaultConfig::none() };
        let (a, b) = duplex_faulty(
            WanConfig::instant(),
            fault,
            FaultConfig::none(),
            ReliabilityConfig::aggressive(),
            DEFAULT_KEEPALIVE,
        );
        // The first messages get through (each costs one data frame).
        a.send(0, Bytes::from_static(b"one"));
        a.send(1, Bytes::from_static(b"two"));
        assert!(b.recv_timeout(Duration::from_secs(5)).is_ok());
        assert!(b.recv_timeout(Duration::from_secs(5)).is_ok());
        // Everything after the cutoff is blackholed despite retransmission.
        a.send(2, Bytes::from_static(b"lost"));
        assert_eq!(b.recv_timeout(Duration::from_millis(300)), Err(RecvError::Timeout));
        assert!(a.send_stats().faults_dropped() > 0);
    }
}
