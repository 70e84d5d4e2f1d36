//! Structured per-party run tracing and the failure-time flight recorder.
//!
//! The paper's systems claims are all about *where time goes* — encryption
//! vs. WAN transfer vs. homomorphic accumulation overlap, dirty-node
//! rollback cost (Figs. 4–6, Tables 1–2) — and a chaos run that fails
//! needs a timeline of what each party was doing, not just an aggregate
//! counter dump. This module provides both:
//!
//! * [`TraceRing`] — a bounded in-memory ring of cheap, timestamped
//!   [`TraceEvent`]s (span enter/exit per protocol phase with per-tree and
//!   per-node attribution, dirty-rollback and batch-commit events, and
//!   free-form notes). It replaces the string-only event log of earlier
//!   revisions; once the cap is reached the oldest event is evicted per
//!   push and counted, so a flapping link tracing for hours cannot grow
//!   memory without bound.
//! * [`write_flight_record`] — on any training failure, each party with a
//!   session dumps its last-N trace events plus its session id and config
//!   digest as JSON into the session directory for post-mortem analysis.
//!
//! Tracing is observational only: no protocol decision ever reads the
//! ring, so trained models are bitwise identical with tracing on or off
//! (the trace suite asserts this).

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::{render_array, JsonObj};
use crate::persist::atomic_write;
use crate::telemetry::PartyTelemetry;

/// Schema tag stamped into every flight-recorder dump.
pub const FLIGHT_RECORD_SCHEMA: &str = "vf2boost-flight-record/v1";

/// A protocol phase a span can attribute time to: the paper's cost-model
/// phases plus node splitting. Each names one field of
/// [`crate::telemetry::PhaseTimes`] (`PhaseTimes::slot`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Gradient-statistics encryption (guest).
    Encrypt,
    /// Encrypted histogram accumulation via homomorphic addition (host).
    Hadd,
    /// Plaintext histogram building over the guest's own features.
    PlainHist,
    /// Prefix-sum/shift/packing of encrypted histograms (host).
    Pack,
    /// Decryption + split finding over host histograms (guest).
    DecryptSplit,
    /// Node splitting: placement computation and application.
    Placement,
}

impl TracePhase {
    /// Stable lowercase name used in JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            TracePhase::Encrypt => "encrypt",
            TracePhase::Hadd => "hadd",
            TracePhase::PlainHist => "plain-hist",
            TracePhase::Pack => "pack",
            TracePhase::DecryptSplit => "decrypt-split",
            TracePhase::Placement => "placement",
        }
    }
}

/// An open timed region of one phase: what it is attributed to and the
/// instant it began, read once. [`PartyTelemetry::enter`] creates it and
/// [`PartyTelemetry::exit`] consumes it, so the duration billed to the
/// phase total and the distance between the ring's `Enter` and `Exit`
/// stamps are the same two clock reads.
#[derive(Debug)]
#[must_use = "a span times nothing until it is handed to `PartyTelemetry::exit`"]
pub struct Span {
    pub(crate) phase: TracePhase,
    pub(crate) tree: Option<u32>,
    pub(crate) node: Option<u32>,
    pub(crate) start: Instant,
}

/// What happened at one trace timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A phase span began.
    Enter(TracePhase),
    /// The matching span ended.
    Exit(TracePhase),
    /// A message was handed to the WAN gateway.
    Transfer {
        /// Total payload bytes (summed over destination links).
        bytes: u64,
    },
    /// An optimistic split lost to a host and its subtree was rolled back.
    DirtyRollback,
    /// The guest's tree loop drained a multi-answer batch from the event
    /// queue and committed it in one decrypt pass.
    SchedBatch {
        /// Histogram answers committed together.
        drained: u64,
    },
    /// A free-form robustness note (hello, checkpoint written, peer
    /// declared dead, ...).
    Note(String),
}

/// One timestamped, attributed trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Offset from the ring's creation (monotonic).
    pub at: Duration,
    /// Tree being trained, if attributable.
    pub tree: Option<u32>,
    /// Heap node id, if attributable.
    pub node: Option<u32>,
    /// The event itself.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Renders the event as a compact single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.f64("at_s", self.at.as_secs_f64());
        let kind = match &self.kind {
            TraceEventKind::Enter(_) => "enter",
            TraceEventKind::Exit(_) => "exit",
            TraceEventKind::Transfer { .. } => "transfer",
            TraceEventKind::DirtyRollback => "dirty-rollback",
            TraceEventKind::SchedBatch { .. } => "sched-batch",
            TraceEventKind::Note(_) => "note",
        };
        o.str("kind", kind);
        match &self.kind {
            TraceEventKind::Enter(p) | TraceEventKind::Exit(p) => {
                o.str("phase", p.name());
            }
            TraceEventKind::Transfer { bytes } => {
                o.u64("bytes", *bytes);
            }
            TraceEventKind::SchedBatch { drained } => {
                o.u64("drained", *drained);
            }
            TraceEventKind::Note(text) => {
                o.str("note", text);
            }
            TraceEventKind::DirtyRollback => {}
        }
        if let Some(t) = self.tree {
            o.u64("tree", u64::from(t));
        }
        if let Some(n) = self.node {
            o.u64("node", u64::from(n));
        }
        // Single line: replace the pretty renderer's newlines.
        o.render(0).replace("\n  ", " ").replace('\n', "")
    }
}

/// A bounded ring of [`TraceEvent`]s with its own monotonic origin.
///
/// Span events are gated on `spans`: disabling them keeps the ring to
/// protocol-level events and notes for long unattended runs. Every push
/// beyond `cap` evicts the oldest event and counts it in
/// [`TraceRing::dropped`].
#[derive(Debug, Clone)]
pub struct TraceRing {
    cap: usize,
    spans: bool,
    dropped: u64,
    origin: Instant,
    entries: VecDeque<TraceEvent>,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(256, true)
    }
}

impl TraceRing {
    /// An empty ring bounded to `cap` events (`cap == 0` keeps nothing and
    /// counts every push as dropped); `spans` gates span enter/exit
    /// emission.
    pub fn new(cap: usize, spans: bool) -> TraceRing {
        TraceRing { cap, spans, dropped: 0, origin: Instant::now(), entries: VecDeque::new() }
    }

    fn push(&mut self, tree: Option<u32>, node: Option<u32>, kind: TraceEventKind) {
        self.push_at(Instant::now(), tree, node, kind);
    }

    fn push_at(&mut self, at: Instant, tree: Option<u32>, node: Option<u32>, kind: TraceEventKind) {
        let at = at.duration_since(self.origin);
        self.entries.push_back(TraceEvent { at, tree, node, kind });
        while self.entries.len() > self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
    }

    /// Records `span`'s start at the instant it holds (no-op when spans
    /// are disabled).
    pub(crate) fn enter(&mut self, span: &Span) {
        if self.spans {
            self.push_at(span.start, span.tree, span.node, TraceEventKind::Enter(span.phase));
        }
    }

    /// Records `span`'s end at `at`, the instant its duration was taken
    /// (no-op when spans are disabled).
    pub(crate) fn exit(&mut self, span: &Span, at: Instant) {
        if self.spans {
            self.push_at(at, span.tree, span.node, TraceEventKind::Exit(span.phase));
        }
    }

    /// Records a gateway hand-off of `bytes` payload bytes.
    pub fn transfer(&mut self, tree: Option<u32>, bytes: u64) {
        if self.spans {
            self.push(tree, None, TraceEventKind::Transfer { bytes });
        }
    }

    /// Records a dirty-node rollback.
    pub fn dirty_rollback(&mut self, tree: u32, node: u32) {
        self.push(Some(tree), Some(node), TraceEventKind::DirtyRollback);
    }

    /// Records a tree-loop batch commit of `drained` answers.
    /// Span-gated like the phase spans it brackets: the batch boundary is
    /// timing detail, not robustness audit trail.
    pub fn sched_batch(&mut self, tree: u32, drained: u64) {
        if self.spans {
            self.push(Some(tree), None, TraceEventKind::SchedBatch { drained });
        }
    }

    /// Records a free-form robustness note (always on — notes are rare
    /// and carry the checkpoint/liveness audit trail).
    pub fn note(&mut self, text: impl Into<String>) {
        self.push(None, None, TraceEventKind::Note(text.into()));
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.entries.iter()
    }

    /// Number of events currently held (never exceeds the cap).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events evicted so far to honor the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether span events are being recorded.
    pub fn spans_enabled(&self) -> bool {
        self.spans
    }

    /// Renders every held event as a JSON array of single-line objects.
    pub fn to_json(&self, indent: usize) -> String {
        let elems: Vec<String> = self.entries.iter().map(TraceEvent::to_json).collect();
        render_array(&elems, indent)
    }
}

/// Writes one party's failure-time flight record to `path` (atomically).
///
/// The dump carries the party's identity, the session id and config
/// digest the run was bound to, the error that brought it down, the
/// party's phase totals, and the last-N trace events from its ring. It is
/// valid JSON (`vf2boost_core::json::parse` round-trips it; the trace
/// suite asserts so). Errors are returned, not panicked — recording a
/// failure must never cause another one.
pub fn write_flight_record(
    path: &Path,
    session_id: u64,
    config_digest: u64,
    error: &str,
    telemetry: &PartyTelemetry,
) -> Result<(), String> {
    let mut o = JsonObj::new();
    o.str("schema", FLIGHT_RECORD_SCHEMA)
        .str("party", &telemetry.name)
        .u64("session_id", session_id)
        .str("config_digest", &format!("{config_digest:016x}"))
        .str("error", error)
        .raw("telemetry", crate::telemetry::party_to_json(telemetry, 2))
        .u64("events_dropped", telemetry.trace.dropped())
        .raw("events", telemetry.trace.to_json(2));
    let doc = o.render(0) + "\n";
    atomic_write(path, doc.as_bytes()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn ring_holds_its_cap_under_flapping_pushes() {
        let mut ring = TraceRing::new(3, true);
        for i in 0..100u32 {
            ring.note(format!("event {i}"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 97);
        let kept: Vec<String> = ring
            .events()
            .map(|e| match &e.kind {
                TraceEventKind::Note(s) => s.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kept, ["event 97", "event 98", "event 99"]);
        assert_eq!(ring.cap(), 3);
    }

    #[test]
    fn zero_cap_ring_keeps_nothing() {
        let mut ring = TraceRing::new(0, true);
        ring.note("gone");
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn spans_gate_suppresses_only_span_events() {
        let mut t = PartyTelemetry { trace: TraceRing::new(16, false), ..Default::default() };
        let span = t.enter(TracePhase::Hadd, Some(0), Some(1));
        t.exit(span);
        let ring = &mut t.trace;
        ring.transfer(Some(0), 100);
        assert!(ring.is_empty(), "span events must be gated");
        ring.dirty_rollback(0, 3);
        ring.note("kept");
        assert_eq!(ring.len(), 2, "protocol events and notes always record");
    }

    #[test]
    fn a_span_bills_the_phase_exactly_what_the_ring_shows() {
        let mut t = PartyTelemetry { trace: TraceRing::new(8, true), ..Default::default() };
        let span = t.enter(TracePhase::Encrypt, Some(0), None);
        t.exit(span);
        let ev: Vec<&TraceEvent> = t.trace.events().collect();
        assert_eq!(ev[0].kind, TraceEventKind::Enter(TracePhase::Encrypt));
        assert_eq!(ev[1].kind, TraceEventKind::Exit(TracePhase::Encrypt));
        assert!(ev[0].at <= ev[1].at);
        assert_eq!(ev[1].at - ev[0].at, t.phases.encrypt);
    }

    #[test]
    fn event_json_round_trips() {
        let mut t = PartyTelemetry { trace: TraceRing::new(8, true), ..Default::default() };
        let _open = t.enter(TracePhase::DecryptSplit, Some(2), Some(7));
        let ring = &mut t.trace;
        ring.sched_batch(2, 3);
        ring.note("weird \"note\"\nwith newline");
        let doc = ring.to_json(0);
        let parsed = parse(&doc).expect("ring json parses");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].get("phase").and_then(Json::as_str), Some("decrypt-split"));
        assert_eq!(arr[0].get("tree").and_then(Json::as_f64), Some(2.0));
        assert_eq!(arr[0].get("node").and_then(Json::as_f64), Some(7.0));
        assert_eq!(arr[1].get("drained").and_then(Json::as_f64), Some(3.0));
        assert_eq!(arr[2].get("note").and_then(Json::as_str), Some("weird \"note\"\nwith newline"));
    }

    #[test]
    fn flight_record_writes_and_parses_back() {
        let dir = std::env::temp_dir().join(format!("vf2_flight_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("guest.flight.json");
        let mut telemetry = PartyTelemetry { name: "guest".into(), ..Default::default() };
        telemetry.trace.note("last words");
        write_flight_record(&path, 42, 0xdead_beef, "host-0 lost during tree-build", &telemetry)
            .expect("flight record written");
        let text = std::fs::read_to_string(&path).expect("readable");
        let parsed = parse(&text).expect("flight record parses");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(FLIGHT_RECORD_SCHEMA));
        assert_eq!(parsed.get("session_id").and_then(Json::as_f64), Some(42.0));
        assert_eq!(parsed.get("config_digest").and_then(Json::as_str), Some("00000000deadbeef"));
        assert_eq!(parsed.get("events").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_record_into_missing_directory_is_an_error_not_a_panic() {
        let path = Path::new("/nonexistent/vf2/guest.flight.json");
        let telemetry = PartyTelemetry::default();
        assert!(write_flight_record(path, 1, 2, "err", &telemetry).is_err());
    }
}
