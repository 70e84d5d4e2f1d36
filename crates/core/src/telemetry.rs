//! Per-party telemetry: phase wall times, operation counts, protocol
//! events.
//!
//! The paper's evaluation dissects training time into the phases of its
//! cost model — encryption, cipher communication, homomorphic accumulation
//! (BuildHistA), decryption + split finding (FindSplitA / FindSplitB), and
//! node splitting — and additionally reports dirty-node counts and split
//! ownership ratios (Tables 1–2). [`PartyTelemetry`] collects exactly
//! those quantities.
//!
//! Every phase time is a wall time read once: a timed region is a
//! [`Span`] opened by [`PartyTelemetry::enter`] and closed by
//! [`PartyTelemetry::exit`], and the one pair of `Instant`s it holds is
//! both what the phase total grows by and what the trace ring stamps on
//! the region's `Enter` / `Exit` events — the two cannot disagree.

use std::time::{Duration, Instant};

use vf2_channel::LinkStats;
use vf2_crypto::counters::OpSnapshot;

use crate::json::{render_array, JsonObj};
use crate::trace::{Span, TracePhase, TraceRing};

/// Schema tag stamped into every JSON run report.
pub const RUN_REPORT_SCHEMA: &str = "vf2boost-run-report/v1";

/// Wall time spent in each protocol phase by one party.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Gradient-statistics encryption (guest).
    pub encrypt: Duration,
    /// Encrypted histogram accumulation (host: BuildHistA).
    pub build_hist_enc: Duration,
    /// Plaintext histogram building + own split finding (guest:
    /// FindSplitB).
    pub build_hist_plain: Duration,
    /// Prefix-sum, shift, and packing of encrypted histograms (host).
    pub pack: Duration,
    /// Decryption + split finding over host histograms (guest:
    /// FindSplitA).
    pub decrypt_find: Duration,
    /// Node splitting: placement computation and application.
    pub split_nodes: Duration,
    /// Time blocked waiting for cross-party messages.
    pub idle: Duration,
}

impl PhaseTimes {
    /// Total non-idle time.
    pub fn busy(&self) -> Duration {
        self.encrypt
            + self.build_hist_enc
            + self.build_hist_plain
            + self.pack
            + self.decrypt_find
            + self.split_nodes
    }

    /// The total a span of `phase` is billed to — the only place the
    /// [`TracePhase`] ↔ field correspondence is written.
    pub fn slot(&mut self, phase: TracePhase) -> &mut Duration {
        match phase {
            TracePhase::Encrypt => &mut self.encrypt,
            TracePhase::Hadd => &mut self.build_hist_enc,
            TracePhase::PlainHist => &mut self.build_hist_plain,
            TracePhase::Pack => &mut self.pack,
            TracePhase::DecryptSplit => &mut self.decrypt_find,
            TracePhase::Placement => &mut self.split_nodes,
        }
    }
}

/// Protocol-level event counts for one party.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolEvents {
    /// Tree-node splits this party's features won.
    pub splits_won: u64,
    /// Nodes finalized as leaves (guest only).
    pub leaves: u64,
    /// Optimistic splits taken before validation (guest only).
    pub optimistic_splits: u64,
    /// Dirty nodes rolled back and re-done (guest only).
    pub dirty_nodes: u64,
    /// Host histogram messages discarded as stale after a rollback.
    pub stale_histograms: u64,
    /// Host-side node tasks superseded before execution (aborted
    /// sub-tasks).
    pub aborted_tasks: u64,
    /// Host histograms of a split's larger child the guest derived in
    /// plaintext as `parent − smaller child` instead of receiving and
    /// decrypting them (guest only; one per host and non-leaf split).
    pub hists_derived: u64,
    /// Always 0: hosts keep no histogram store to hit. Goes with
    /// `train.hist_cache_hit_rate` in the `vf2-benchmark`-side follow-up.
    pub hist_cache_hits: u64,
    /// Always 0, as [`Self::hist_cache_hits`].
    pub hist_cache_misses: u64,
    /// Durable checkpoints this party wrote at tree boundaries.
    pub checkpoints_written: u64,
    /// Sessions resumed from a checkpoint (0 on a fresh run, 1 after a
    /// successful resume handshake that skipped completed trees).
    pub resumes: u64,
    /// Provably-honest stale messages dropped after admission (optimistic
    /// rollback stragglers: superseded-epoch histograms, previous-tree
    /// responses). Not misbehavior — see `misbehavior` for that.
    pub stale_msgs_dropped: u64,
    /// Protocol violations observed from peers (out-of-phase messages,
    /// replays, inadmissible payloads). Each is charged against
    /// [`crate::config::TrainConfig::misbehavior_budget`]; once the budget
    /// is exceeded the run fails with
    /// [`crate::error::TrainError::PeerMisbehaving`].
    pub misbehavior: u64,
    /// Flight-record dumps that failed to hit disk on the error path.
    /// The dump is best-effort (it must never mask the original failure),
    /// but a silent loss would strand a post-mortem — so it is counted and
    /// traced instead.
    pub flight_record_failed: u64,
    /// Histogram-answer batches the tree loop committed, size-1 batches
    /// included (guest only).
    pub sched_batches: u64,
    /// Histogram answers committed through those batches.
    pub sched_batch_hists: u64,
}

/// Reliable-delivery and fault-injection counters for one party's links.
///
/// Each party reports the full statistics of its *send* direction(s): the
/// retransmissions and acks for its own data, the rejections its data
/// suffered at the receiver, and the faults the gateway pump injected
/// into it. Summing every party therefore covers both directions of every
/// link exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFaultEvents {
    /// Data frames retransmitted after an RTO expiry.
    pub retransmissions: u64,
    /// Ack frames received for this party's data.
    pub acks_received: u64,
    /// Frames of this party's data rejected at the receiver for checksum
    /// mismatch (and later retransmitted).
    pub corrupt_rejected: u64,
    /// Duplicate frames of this party's data suppressed at the receiver.
    pub duplicates_dropped: u64,
    /// Frames the fault plan dropped, corrupted, held back, or duplicated
    /// on this party's send direction.
    pub faults_injected: u64,
    /// Blocking receives on this party that expired their per-phase
    /// deadline (each one surfaces as a
    /// [`crate::error::TrainError::PeerLost`]).
    pub recv_timeouts: u64,
}

impl LinkFaultEvents {
    /// Folds one link direction's statistics into these counters.
    pub fn absorb(&mut self, stats: &LinkStats) {
        self.retransmissions += stats.retransmissions();
        self.acks_received += stats.acks_received();
        self.corrupt_rejected += stats.corrupt_rejected();
        self.duplicates_dropped += stats.duplicates_dropped();
        self.faults_injected += stats.faults_dropped()
            + stats.faults_corrupted()
            + stats.faults_reordered()
            + stats.faults_duplicated();
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &LinkFaultEvents) {
        self.retransmissions += other.retransmissions;
        self.acks_received += other.acks_received;
        self.corrupt_rejected += other.corrupt_rejected;
        self.duplicates_dropped += other.duplicates_dropped;
        self.faults_injected += other.faults_injected;
        self.recv_timeouts += other.recv_timeouts;
    }
}

/// Everything one party measured during a run.
#[derive(Debug, Clone, Default)]
pub struct PartyTelemetry {
    /// Human-readable party name (`guest`, `host-0`, ...).
    pub name: String,
    /// Phase wall times.
    pub phases: PhaseTimes,
    /// Cryptography operation counts.
    pub ops: OpSnapshot,
    /// Crypto-backend tag this party's suite ran on (`"fixed-<N>x64"` or
    /// `"plain"`), so the key's limb width is visible in run reports.
    pub crypto_backend: String,
    /// Protocol events.
    pub events: ProtocolEvents,
    /// Bytes this party sent across the WAN.
    pub bytes_sent: u64,
    /// Messages this party sent across the WAN.
    pub messages_sent: u64,
    /// Reliable-delivery and fault counters for this party's links,
    /// summed over peers.
    pub link: LinkFaultEvents,
    /// The same counters broken out per peer link, in peer order (one
    /// entry per host for the guest; hosts have a single link and may
    /// leave this empty). Lets a run report attribute retransmissions and
    /// RTO expiries to the specific flaky link.
    pub links: Vec<LinkFaultEvents>,
    /// Bounded structured trace ring (cap from
    /// [`crate::config::TrainConfig::trace_events_cap`], span gating from
    /// [`crate::config::TrainConfig::trace_spans`]).
    pub trace: TraceRing,
}

impl PartyTelemetry {
    /// Opens a timed region of `phase`: reads the clock once and stamps
    /// the ring's `Enter` with that instant.
    pub fn enter(&mut self, phase: TracePhase, tree: Option<u32>, node: Option<u32>) -> Span {
        let span = Span { phase, tree, node, start: Instant::now() };
        self.trace.enter(&span);
        span
    }

    /// Closes `span`: reads the clock once more, adds the difference to
    /// the phase's total and stamps the ring's `Exit` with the same
    /// instant. The total grows whether or not the ring records spans.
    pub fn exit(&mut self, span: Span) {
        let end = Instant::now();
        *self.phases.slot(span.phase) += end - span.start;
        self.trace.exit(&span, end);
    }
}

/// A whole run's report: per-party telemetry plus wall-clock totals.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Guest telemetry.
    pub guest: PartyTelemetry,
    /// Host telemetries, in party order.
    pub hosts: Vec<PartyTelemetry>,
    /// End-to-end wall time.
    pub wall_time: Duration,
    /// Per-tree completion times and training loss (Fig. 10's x-axis).
    pub tree_records: Vec<TreeRecord>,
}

/// One tree's completion record.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeRecord {
    /// Tree index.
    pub tree: usize,
    /// Wall time from training start to this tree's completion.
    pub completed_at: Duration,
    /// Mean training loss after this tree.
    pub train_loss: f64,
}

impl TrainReport {
    /// Total bytes crossing the WAN in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.guest.bytes_sent + self.hosts.iter().map(|h| h.bytes_sent).sum::<u64>()
    }

    /// Fraction of splits won by the guest (the paper's "ratio of splits
    /// in Party B", Table 2).
    pub fn guest_split_ratio(&self) -> f64 {
        let guest = self.guest.events.splits_won;
        let host: u64 = self.hosts.iter().map(|h| h.events.splits_won).sum();
        if guest + host == 0 {
            return 0.0;
        }
        guest as f64 / (guest + host) as f64
    }

    /// Fault and reliability counters summed over every party (both
    /// directions of every link).
    pub fn link_events(&self) -> LinkFaultEvents {
        let mut total = self.guest.link;
        for h in &self.hosts {
            total.merge(&h.link);
        }
        total
    }

    /// Renders the whole report as machine-readable JSON (schema
    /// [`RUN_REPORT_SCHEMA`]): run-level wall time, byte totals and merged
    /// link counters, then one object per party with its phase durations,
    /// op counts, protocol events, and trace summary.
    /// `vf2boost_core::json::parse` round-trips the output; the `jq` gate
    /// in ci.sh validates the same schema.
    pub fn to_json(&self) -> String {
        let link = self.link_events();
        let mut o = JsonObj::new();
        o.str("schema", RUN_REPORT_SCHEMA)
            .f64("wall_time_s", self.wall_time.as_secs_f64())
            .u64("total_bytes", self.total_bytes())
            .f64("guest_split_ratio", self.guest_split_ratio())
            .raw("link", link_to_json(&link, 2));
        let mut parties = vec![party_to_json(&self.guest, 4)];
        parties.extend(self.hosts.iter().map(|h| party_to_json(h, 4)));
        o.raw("parties", render_array(&parties, 2));
        let trees: Vec<String> = self
            .tree_records
            .iter()
            .map(|t| {
                let mut rec = JsonObj::new();
                rec.u64("tree", t.tree as u64)
                    .f64("completed_at_s", t.completed_at.as_secs_f64())
                    .f64("train_loss", t.train_loss);
                rec.render(4)
            })
            .collect();
        o.raw("trees", render_array(&trees, 2));
        o.render(0) + "\n"
    }
}

fn phases_to_json(p: &PhaseTimes, indent: usize) -> String {
    let mut o = JsonObj::new();
    o.f64("encrypt_s", p.encrypt.as_secs_f64())
        .f64("build_hist_enc_s", p.build_hist_enc.as_secs_f64())
        .f64("build_hist_plain_s", p.build_hist_plain.as_secs_f64())
        .f64("pack_s", p.pack.as_secs_f64())
        .f64("decrypt_find_s", p.decrypt_find.as_secs_f64())
        .f64("split_nodes_s", p.split_nodes.as_secs_f64())
        .f64("idle_s", p.idle.as_secs_f64())
        .f64("busy_s", p.busy().as_secs_f64());
    o.render(indent)
}

fn link_to_json(l: &LinkFaultEvents, indent: usize) -> String {
    let mut o = JsonObj::new();
    o.u64("retransmissions", l.retransmissions)
        .u64("acks_received", l.acks_received)
        .u64("corrupt_rejected", l.corrupt_rejected)
        .u64("duplicates_dropped", l.duplicates_dropped)
        .u64("faults_injected", l.faults_injected)
        .u64("recv_timeouts", l.recv_timeouts);
    o.render(indent)
}

/// Renders one party's telemetry as a JSON object (shared between the run
/// report and the flight recorder).
pub fn party_to_json(p: &PartyTelemetry, indent: usize) -> String {
    let mut events = JsonObj::new();
    events
        .u64("splits_won", p.events.splits_won)
        .u64("leaves", p.events.leaves)
        .u64("optimistic_splits", p.events.optimistic_splits)
        .u64("dirty_nodes", p.events.dirty_nodes)
        .u64("stale_histograms", p.events.stale_histograms)
        .u64("aborted_tasks", p.events.aborted_tasks)
        .u64("hists_derived", p.events.hists_derived)
        .u64("stale_msgs_dropped", p.events.stale_msgs_dropped)
        .u64("misbehavior", p.events.misbehavior)
        .u64("checkpoints_written", p.events.checkpoints_written)
        .u64("resumes", p.events.resumes)
        .u64("flight_record_failed", p.events.flight_record_failed)
        .u64("sched_batches", p.events.sched_batches)
        .u64("sched_batch_hists", p.events.sched_batch_hists);
    let mut ops = JsonObj::new();
    ops.u64("enc", p.ops.enc)
        .u64("dec", p.ops.dec)
        .u64("hadd", p.ops.hadd)
        .u64("smul", p.ops.smul)
        .u64("negs", p.ops.negs)
        .u64("scalings", p.ops.scalings)
        .u64("packs", p.ops.packs)
        .u64("modmul", p.ops.modmul)
        .u64("redc", p.ops.redc);
    let mut trace = JsonObj::new();
    trace
        .u64("cap", p.trace.cap() as u64)
        .u64("len", p.trace.len() as u64)
        .u64("dropped", p.trace.dropped());
    let mut o = JsonObj::new();
    o.str("name", &p.name)
        .str("crypto_backend", &p.crypto_backend)
        .raw("phases", phases_to_json(&p.phases, indent + 2))
        .raw("ops", ops.render(indent + 2))
        .raw("events", events.render(indent + 2))
        .raw("link", link_to_json(&p.link, indent + 2));
    let links: Vec<String> = p.links.iter().map(|l| link_to_json(l, indent + 4)).collect();
    o.raw("links", render_array(&links, indent + 2))
        .u64("bytes_sent", p.bytes_sent)
        .u64("messages_sent", p.messages_sent)
        .raw("trace", trace.render(indent + 2));
    o.render(indent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_sums_phases() {
        let p = PhaseTimes {
            encrypt: Duration::from_millis(10),
            decrypt_find: Duration::from_millis(5),
            idle: Duration::from_secs(100), // excluded
            ..Default::default()
        };
        assert_eq!(p.busy(), Duration::from_millis(15));
    }

    #[test]
    fn split_ratio_counts_both_sides() {
        let mut r = TrainReport::default();
        r.guest.events.splits_won = 3;
        r.hosts.push(PartyTelemetry {
            events: ProtocolEvents { splits_won: 1, ..Default::default() },
            ..Default::default()
        });
        assert!((r.guest_split_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn split_ratio_of_empty_run_is_zero() {
        assert_eq!(TrainReport::default().guest_split_ratio(), 0.0);
    }

    #[test]
    fn link_events_sum_over_parties() {
        let mut r = TrainReport::default();
        r.guest.link.retransmissions = 2;
        r.guest.link.recv_timeouts = 1;
        r.hosts.push(PartyTelemetry {
            link: LinkFaultEvents { retransmissions: 3, corrupt_rejected: 4, ..Default::default() },
            ..Default::default()
        });
        let t = r.link_events();
        assert_eq!(t.retransmissions, 5);
        assert_eq!(t.corrupt_rejected, 4);
        assert_eq!(t.recv_timeouts, 1);
    }

    #[test]
    fn report_json_parses_and_carries_the_schema() {
        use crate::json::{parse, Json};
        let mut r = TrainReport::default();
        r.guest.name = "guest".into();
        r.guest.phases.encrypt = Duration::from_millis(30);
        r.wall_time = Duration::from_millis(40);
        r.hosts.push(PartyTelemetry { name: "host-0".into(), ..Default::default() });
        r.tree_records.push(TreeRecord {
            tree: 0,
            completed_at: Duration::from_millis(35),
            train_loss: 0.5,
        });
        let parsed = parse(&r.to_json()).expect("report parses");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(RUN_REPORT_SCHEMA));
        let parties = parsed.get("parties").and_then(Json::as_arr).expect("parties");
        assert_eq!(parties.len(), 2);
        assert_eq!(parties[0].get("name").and_then(Json::as_str), Some("guest"));
        let phases = parties[0].get("phases").expect("phases");
        let encrypt = phases.get("encrypt_s").and_then(Json::as_f64).expect("encrypt_s");
        assert!((encrypt - 0.030).abs() < 1e-9);
        let busy = phases.get("busy_s").and_then(Json::as_f64).expect("busy_s");
        assert!((busy - 0.030).abs() < 1e-9);
        let trees = parsed.get("trees").and_then(Json::as_arr).expect("trees");
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].get("tree").and_then(Json::as_f64), Some(0.0));
        assert_eq!(trees[0].get("train_loss").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn report_json_carries_per_peer_links() {
        use crate::json::{parse, Json};
        let mut r = TrainReport::default();
        r.guest.name = "guest".into();
        r.guest.links = vec![
            LinkFaultEvents { retransmissions: 2, ..Default::default() },
            LinkFaultEvents { recv_timeouts: 1, ..Default::default() },
        ];
        let parsed = parse(&r.to_json()).expect("report parses");
        let parties = parsed.get("parties").and_then(Json::as_arr).expect("parties");
        let links = parties[0].get("links").and_then(Json::as_arr).expect("links");
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].get("retransmissions").and_then(Json::as_f64), Some(2.0));
        assert_eq!(links[1].get("recv_timeouts").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn report_json_carries_misbehavior_counters() {
        use crate::json::{parse, Json};
        let mut r = TrainReport::default();
        r.guest.name = "guest".into();
        r.guest.events.misbehavior = 2;
        r.guest.events.stale_msgs_dropped = 5;
        let parsed = parse(&r.to_json()).expect("report parses");
        let parties = parsed.get("parties").and_then(Json::as_arr).expect("parties");
        let events = parties[0].get("events").expect("events");
        assert_eq!(events.get("misbehavior").and_then(Json::as_f64), Some(2.0));
        assert_eq!(events.get("stale_msgs_dropped").and_then(Json::as_f64), Some(5.0));
    }

    #[test]
    fn report_json_carries_flight_record_counters() {
        use crate::json::{parse, Json};
        let mut r = TrainReport::default();
        r.guest.name = "guest".into();
        r.guest.events.flight_record_failed = 1;
        let parsed = parse(&r.to_json()).expect("report parses");
        let parties = parsed.get("parties").and_then(Json::as_arr).expect("parties");
        let events = parties[0].get("events").expect("events");
        assert_eq!(events.get("flight_record_failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn report_json_busy_equals_phase_sum_per_party() {
        use crate::json::{parse, Json};
        let mut r = TrainReport::default();
        r.guest.name = "guest".into();
        r.guest.phases = PhaseTimes {
            encrypt: Duration::from_millis(7),
            build_hist_plain: Duration::from_millis(11),
            decrypt_find: Duration::from_millis(13),
            split_nodes: Duration::from_millis(3),
            idle: Duration::from_millis(500),
            ..Default::default()
        };
        let parsed = parse(&r.to_json()).expect("report parses");
        let parties = parsed.get("parties").and_then(Json::as_arr).expect("parties");
        let phases = parties[0].get("phases").expect("phases");
        let keys = [
            "encrypt_s",
            "build_hist_enc_s",
            "build_hist_plain_s",
            "pack_s",
            "decrypt_find_s",
            "split_nodes_s",
        ];
        let sum: f64 =
            keys.iter().map(|k| phases.get(k).and_then(Json::as_f64).expect("phase key")).sum();
        let busy = phases.get("busy_s").and_then(Json::as_f64).expect("busy_s");
        assert!((busy - sum).abs() < 1e-9, "busy_s {busy} != phase sum {sum}");
    }

    #[test]
    fn exit_adds_to_the_phase_with_spans_disabled() {
        let mut t = PartyTelemetry { trace: TraceRing::new(16, false), ..Default::default() };
        let span = t.enter(TracePhase::Pack, Some(0), None);
        std::thread::sleep(Duration::from_millis(2));
        t.exit(span);
        assert!(t.trace.is_empty(), "a gated ring records no span event");
        assert!(t.phases.pack >= Duration::from_millis(2), "pack = {:?}", t.phases.pack);
        assert_eq!(t.phases.busy(), t.phases.pack, "no other phase was billed");
    }
}
