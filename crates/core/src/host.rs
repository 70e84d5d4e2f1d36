//! The host party (the paper's *Party A*): features only, no labels, no
//! private key.
//!
//! The host is fully reactive. It receives encrypted gradient statistics
//! (accumulating the root histogram incrementally as blaster batches
//! arrive, §4.1), executes node histogram tasks, and recovers/applies
//! splits it owns. Tasks are executed one node at a time between message
//! polls — the paper's "slice the histogram construction into smaller
//! tasks" (§4.2) — so a rollback arriving mid-layer aborts queued work for
//! dirty subtrees before it runs.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vf2_channel::{Endpoint, Envelope, RecvError};
use vf2_crypto::packing::GhPlan;
use vf2_crypto::suite::{Ciphertext, Suite};
use vf2_gbdt::binning::{BinnedColumn, BinnedDataset};
use vf2_gbdt::data::Dataset;
use vf2_gbdt::tree::{layer_of, layer_start, left_child, right_child, NodeSplit};

use crate::chaos::ChaosPlan;
use crate::config::TrainConfig;
use crate::error::{panic_text, HostFailure, PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::fsm::{Admit, HostFsm, MisbehaviorBudget};
use crate::hist_enc::{
    max_exponent, pack_feature_hist, pack_gh_feature_hist, EncHistBuilder, TARGET_SLOT_BITS,
};
use crate::messages::{
    FeatureMeta, GhPackedFeatureHist, HistPayload, Msg, PackedFeatureHist, RawFeatureHist,
    HEARTBEAT_KIND,
};
use crate::model::HostSplitTable;
use crate::retry::Backoff;
use crate::rows::{NodeRows, RowMajorBins};
use crate::session::{dead_after, PartySession};
use crate::telemetry::PartyTelemetry;
use crate::trace::{TracePhase, TraceRing};
use crate::validate;
use crate::wire;

/// Runs a host party to completion (until the guest sends `Shutdown`).
/// Returns the telemetry and the host's private split table.
///
/// Never panics on peer misbehaviour: a guest that disconnects without an
/// orderly `Shutdown`, or goes silent past the per-phase deadline, yields
/// [`TrainError::PeerLost`]; malformed or out-of-place messages yield
/// [`TrainError::Protocol`]. Failures carry the host's partial telemetry.
///
/// With a [`PartySession`], the host opens the link with a `SessionHello`
/// advertising its durable checkpoints, honors the guest's `Resume`
/// decision, and snapshots its split table at every configured tree
/// boundary. `chaos` is the robustness suites' failure injection
/// ([`ChaosPlan::default`] injects nothing).
pub fn run_host(
    party_index: usize,
    data: Arc<Dataset>,
    cfg: TrainConfig,
    suite: Suite,
    endpoint: Endpoint,
    session: Option<PartySession>,
    chaos: ChaosPlan,
) -> Result<(PartyTelemetry, HostSplitTable), HostFailure> {
    let mut host = match HostParty::new(party_index, data, cfg, suite, endpoint, session, chaos) {
        Ok(host) => host,
        Err(error) => {
            let telemetry =
                PartyTelemetry { name: format!("host-{party_index}"), ..Default::default() };
            return Err(HostFailure { error, telemetry: Box::new(telemetry) });
        }
    };
    match host.run() {
        Ok(()) => Ok(host.finish()),
        Err(error) => {
            let session = host.session.clone();
            let (mut telemetry, _) = host.finish();
            if let Some(sess) = session {
                sess.dump_flight_record(&error, &mut telemetry);
            }
            Err(HostFailure { error, telemetry: Box::new(telemetry) })
        }
    }
}

/// A protocol-state invariant broke: the guest's message sequence asked
/// for state this host does not hold.
fn state_invariant(context: &'static str) -> TrainError {
    ProtocolError::InvariantViolated { party: PartyId::Guest, context }.into()
}

/// Per-tree mutable state.
struct TreeState {
    tree: u32,
    /// Stored encrypted gradients, indexed by row.
    enc_g: Vec<Ciphertext>,
    /// Stored encrypted hessians, indexed by row.
    enc_h: Vec<Ciphertext>,
    /// The root histogram builders (gradients, hessians), accumulated as
    /// batches arrive; taken when the root payload ships.
    root: Option<BuilderPair>,
    rows: NodeRows,
    /// Each node's retained encrypted histogram, powering ciphertext
    /// subtraction.
    hists: NodeHists,
}

impl TreeState {
    /// Splits `node`'s rows by `placement` and forgets both children's
    /// retained histograms. This is the only way a child's row list is
    /// ever replaced (first split, or the re-split after an optimistic
    /// rollback), so a resident histogram always describes its node's
    /// current rows and needs no freshness stamp.
    fn apply_placement(&mut self, node: usize, placement: &[bool]) {
        self.rows.apply_placement(node, placement);
        self.hists.take(left_child(node));
        self.hists.take(right_child(node));
    }
}

/// Byte budget for one tree's retained node histograms, by the estimate
/// `occupied cipher slots × Suite::cipher_wire_bytes`. Two resident levels
/// peak under 2 MB on every benchmark workload, so this only bounds a
/// pathological shape (very wide host × deep tree × large key).
const NODE_HIST_BUDGET_BYTES: u64 = 256 << 20;

/// One (gradient, hessian) builder pair — a node's whole encrypted
/// histogram (on the paired path the `h` half stays empty).
type BuilderPair = (EncHistBuilder, EncHistBuilder);

/// The encrypted histograms a tree retains for ciphertext subtraction: one
/// slot per heap-indexed node, beside the node's row list in
/// [`TreeState`].
///
/// A slot is written when its node's histogram is produced (root payload,
/// smaller sibling, answered task) and emptied by
/// [`TreeState::apply_placement`] when the node's rows are replaced.
/// Retention is **level-scoped**: every level-`L` node's parent sits at
/// `L−1`, so by the time the host stores at level `L` nothing at levels
/// `< L−1` can serve another subtraction, and a store drops those slots
/// first. A histogram that would push the resident estimate past the
/// budget is simply not kept (its children are then built from rows).
/// Both rules are functions of the node id and the stored sizes only: host
/// behavior stays a pure function of the received message sequence (the
/// chaos suite asserts bit-identical models under WAN faults).
struct NodeHists {
    slots: Vec<Option<BuilderPair>>,
    /// Estimated bytes per occupied cipher slot.
    cipher_bytes: u64,
    resident_bytes: u64,
    budget_bytes: u64,
}

impl NodeHists {
    fn new(num_nodes: usize, cipher_bytes: usize, budget_bytes: u64) -> NodeHists {
        NodeHists {
            slots: vec![None; num_nodes],
            cipher_bytes: cipher_bytes as u64,
            resident_bytes: 0,
            budget_bytes,
        }
    }

    fn bytes_of(&self, (g, h): &BuilderPair) -> u64 {
        (g.cipher_count() + h.cipher_count()) as u64 * self.cipher_bytes
    }

    /// The node's resident histogram, if any.
    fn get(&self, node: usize) -> Option<&BuilderPair> {
        self.slots.get(node)?.as_ref()
    }

    /// Empties the node's slot, returning what it held.
    fn take(&mut self, node: usize) -> Option<BuilderPair> {
        let pair = self.slots.get_mut(node)?.take()?;
        self.resident_bytes -= self.bytes_of(&pair);
        Some(pair)
    }

    /// Keeps `pair` as `node`'s histogram if the budget allows, after
    /// dropping every slot more than one level above it. Returns the
    /// `(node, bytes)` of each histogram dropped (replacing the node's own
    /// prior one does not count) so the host can trace and count them.
    fn store(&mut self, node: usize, pair: BuilderPair) -> Vec<(u32, u64)> {
        self.take(node);
        let mut dropped = Vec::new();
        // Levels 0..=L−2 are the heap slots before level L−1's first.
        for n in 0..layer_start(layer_of(node).saturating_sub(1)) {
            let before = self.resident_bytes;
            if self.take(n).is_some() {
                dropped.push((n as u32, before - self.resident_bytes));
            }
        }
        let bytes = self.bytes_of(&pair);
        if let Some(slot) = self.slots.get_mut(node) {
            if self.resident_bytes + bytes <= self.budget_bytes {
                self.resident_bytes += bytes;
                *slot = Some(pair);
            }
        }
        dropped
    }
}

struct HostParty {
    cfg: TrainConfig,
    /// Injected failures; inert outside the robustness suites.
    chaos: ChaosPlan,
    suite: Suite,
    /// The pair plan when this run's forward path is paired
    /// ([`TrainConfig::gh_plan`]): the whole histogram then lives in the
    /// `g` builders and the `h` stream stays empty. `None` on the
    /// two-stream path. The guest derives the same value from the same
    /// shared config, so no negotiation message exists to spoof.
    gh: Option<GhPlan>,
    endpoint: Endpoint,
    binned: BinnedDataset,
    csr: RowMajorBins,
    pool: rayon::ThreadPool,
    state: Option<TreeState>,
    /// Pending node tasks in arrival order; the map holds the latest epoch.
    task_queue: VecDeque<u32>,
    task_epoch: HashMap<u32, u32>,
    splits: HostSplitTable,
    telemetry: PartyTelemetry,
    shutdown: bool,
    /// What the host is currently waiting for (PeerLost attribution).
    phase: ProtocolPhase,
    party_index: usize,
    session: Option<PartySession>,
    /// When this host last beaconed a heartbeat at the guest.
    hb_last: Instant,
    /// Monotone heartbeat counter.
    hb_seq: u64,
    /// Validating state machine over the guest's message stream.
    fsm: HostFsm,
    /// Protocol-violation tolerance accounting for the guest.
    budget: MisbehaviorBudget,
}

impl HostParty {
    fn new(
        party_index: usize,
        data: Arc<Dataset>,
        cfg: TrainConfig,
        suite: Suite,
        endpoint: Endpoint,
        session: Option<PartySession>,
        chaos: ChaosPlan,
    ) -> Result<HostParty, TrainError> {
        let binned = BinnedDataset::bin(&data, &cfg.gbdt.binning);
        let csr = RowMajorBins::from_binned(&binned);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.workers.max(1))
            .thread_name(move |i| format!("host{party_index}-worker{i}"))
            .build()
            .map_err(|e| TrainError::Setup {
                party: PartyId::Host(party_index),
                detail: e.to_string(),
            })?;
        let telemetry = PartyTelemetry {
            name: format!("host-{party_index}"),
            trace: TraceRing::new(cfg.trace_events_cap, cfg.trace_spans),
            ..Default::default()
        };
        let fsm = HostFsm::new(cfg.gbdt.num_trees as u32, csr.num_rows() as u32);
        let budget = MisbehaviorBudget::new(cfg.misbehavior_budget);
        let gh = cfg
            .gh_plan(&suite, csr.num_rows())
            .map_err(TrainError::crypto("gh plan derivation"))?;
        Ok(HostParty {
            gh,
            cfg,
            chaos,
            suite,
            endpoint,
            binned,
            csr,
            pool,
            state: None,
            task_queue: VecDeque::new(),
            task_epoch: HashMap::new(),
            splits: HostSplitTable::default(),
            telemetry,
            shutdown: false,
            phase: ProtocolPhase::Gradients,
            party_index,
            session,
            hb_last: Instant::now(),
            hb_seq: 0,
            fsm,
            budget,
        })
    }

    fn run(&mut self) -> Result<(), TrainError> {
        // Announce the session view first — the very first frame of every
        // (re)connect: the guest needs the durable checkpoint list before
        // it can pick a resume point.
        let (sid, epoch, durable) = match &self.session {
            Some(s) => (s.session_id(), s.bump_epoch(), s.durable()),
            None => (0, 0, Vec::new()),
        };
        self.telemetry.trace.note(format!("hello: session {sid} epoch {epoch}"));
        self.send(&Msg::SessionHello { session_id: sid, epoch, durable })?;
        // Then announce histogram structure (bin counts + zero bins only).
        let metas: Vec<FeatureMeta> = self
            .binned
            .columns()
            .iter()
            .map(|c| FeatureMeta { num_bins: c.num_bins() as u16, zero_bin: c.zero_bin })
            .collect();
        self.send(&Msg::FeatureMeta(metas))?;

        while !self.shutdown {
            let msg = if self.task_queue.is_empty() {
                // Nothing to do: block with the per-phase deadline. A
                // guest that vanishes without an orderly Shutdown —
                // disconnect or silence — is an error.
                Some(self.next_envelope()?)
            } else {
                self.endpoint.try_recv()
            };
            match msg {
                Some(env) => {
                    let m = wire::decode(env.kind, env.payload).map_err(|error| {
                        ProtocolError::Malformed { from: PartyId::Guest, error }
                    })?;
                    if self.admit(&m)? {
                        self.handle(m)?;
                    }
                }
                None => self.run_one_task()?,
            }
        }
        // Linger until the guest acks our final frames (and keep our
        // reliability thread alive to re-ack any retransmitted Shutdown),
        // so a fault-dropped frame at the very end doesn't turn the
        // orderly goodbye into a peer-side disconnect.
        self.endpoint.flush(self.cfg.peer_timeout);
        Ok(())
    }

    fn finish(mut self) -> (PartyTelemetry, HostSplitTable) {
        self.telemetry.ops = self.suite.counters().snapshot();
        self.telemetry.crypto_backend = self.suite.backend_label();
        self.telemetry.bytes_sent = self.endpoint.send_stats().bytes();
        self.telemetry.messages_sent = self.endpoint.send_stats().messages();
        let mut link = self.telemetry.link;
        link.absorb(self.endpoint.send_stats());
        self.telemetry.link = link;
        (self.telemetry, self.splits)
    }

    /// A message of our own failed to encode (a count overflowed the
    /// wire's `u32` fields) — surfaced as a malformed-message error
    /// attributed to this host, never sent.
    fn encode_failed(&self, error: wire::WireError) -> TrainError {
        ProtocolError::Malformed { from: PartyId::Host(self.party_index), error }.into()
    }

    fn send(&self, msg: &Msg) -> Result<(), TrainError> {
        let payload = wire::encode(msg).map_err(|e| self.encode_failed(e))?;
        self.endpoint.send(msg.kind(), payload);
        Ok(())
    }

    /// Sends a bulk protocol message, recording a transfer trace event
    /// with its encoded payload size.
    fn send_traced(&mut self, msg: &Msg, tree: u32) -> Result<(), TrainError> {
        let payload = wire::encode(msg).map_err(|e| self.encode_failed(e))?;
        self.telemetry.trace.transfer(Some(tree), payload.len() as u64);
        self.endpoint.send(msg.kind(), payload);
        Ok(())
    }

    /// Declares the guest lost after a failed wait that began at `t0`.
    /// `busy` is the wait's own working time (heartbeat beacons and
    /// bookkeeping ran inside the loop): only the remainder was idle.
    /// The reported `waited` stays the full wall time — the peer was
    /// silent for all of it.
    fn guest_lost(&mut self, t0: Instant, busy: Duration, reason: RecvError) -> TrainError {
        self.telemetry.phases.idle += t0.elapsed().saturating_sub(busy);
        if reason == RecvError::Timeout {
            self.telemetry.link.recv_timeouts += 1;
        }
        TrainError::PeerLost { party: PartyId::Guest, phase: self.phase, waited: t0.elapsed() }
    }

    /// Heartbeat supervision for a blocked wait (mirror of the guest's).
    /// Beacons a heartbeat when one is due — its transport ack is what
    /// proves a busy-but-alive guest — and declares the guest dead once
    /// the link has been *completely* silent (no data, no acks) for the
    /// effective liveness deadline. The overall wait clock `t0` is never
    /// reset by heartbeats: a guest that beacons but makes no protocol
    /// progress still trips the per-phase `peer_timeout`.
    fn supervise(&mut self, t0: Instant, busy: Duration) -> Result<(), TrainError> {
        let now = Instant::now();
        if now.duration_since(self.hb_last) >= self.cfg.heartbeat_interval {
            self.hb_last = now;
            let seq = self.hb_seq;
            self.hb_seq += 1;
            self.send(&Msg::Heartbeat { seq })?;
            self.telemetry.events.heartbeats_sent += 1;
            if self.endpoint.idle_for() >= self.cfg.heartbeat_interval {
                self.telemetry.events.heartbeats_missed += 1;
                self.telemetry.trace.note(format!(
                    "guest silent for {:?} at heartbeat {seq}",
                    self.endpoint.idle_for()
                ));
            }
        }
        let deadline = dead_after(&self.cfg);
        if self.endpoint.idle_for() >= deadline {
            self.telemetry.trace.note(format!("guest declared dead after {deadline:?}"));
            return Err(self.guest_lost(t0, busy, RecvError::Timeout));
        }
        Ok(())
    }

    /// Blocks for the next protocol envelope, transparently consuming
    /// heartbeats and running liveness supervision, bounded by the
    /// per-phase deadline. Idle time is accounted.
    ///
    /// The wait is paced by a deterministic [`Backoff`]: retry chunks grow
    /// from a fraction of the heartbeat interval up to exactly the
    /// heartbeat interval, so a timeout on a *slow* transfer re-polls
    /// quickly without ever loosening the liveness cadence. Each expired
    /// chunk counts as one transfer retry; the overall `peer_timeout` and
    /// silence-clock deadlines are untouched.
    fn next_envelope(&mut self) -> Result<Envelope, TrainError> {
        let t0 = Instant::now();
        // Working time accrued inside the wait (heartbeat consumption,
        // supervision beacons): subtracted from the idle charge so
        // `phases.idle` measures genuine waiting only.
        let mut busy = Duration::ZERO;
        let mut backoff = Backoff::new(
            self.cfg.heartbeat_interval / 8,
            self.cfg.heartbeat_interval,
            self.cfg.seed.wrapping_add(self.party_index as u64),
        );
        loop {
            let elapsed = t0.elapsed();
            if elapsed >= self.cfg.peer_timeout {
                return Err(self.guest_lost(t0, busy, RecvError::Timeout));
            }
            let chunk = backoff.next_delay().min(self.cfg.peer_timeout - elapsed);
            match self.endpoint.recv_timeout(chunk) {
                Ok(env) if env.kind == HEARTBEAT_KIND => continue,
                Ok(env) => {
                    // Only a wait that saturated the backoff schedule —
                    // several heartbeat intervals of riding out — is worth
                    // a note; routine one-chunk stalls would flood the
                    // ring.
                    if backoff.attempts() >= 8 {
                        self.telemetry.trace.note(format!(
                            "rode out a slow transfer from the guest after {} retries",
                            backoff.attempts()
                        ));
                    }
                    self.telemetry.phases.idle += t0.elapsed().saturating_sub(busy);
                    return Ok(env);
                }
                Err(RecvError::Disconnected) => {
                    return Err(self.guest_lost(t0, busy, RecvError::Disconnected))
                }
                Err(RecvError::Timeout) => {
                    self.telemetry.events.transfer_retries += 1;
                    let w0 = Instant::now();
                    self.supervise(t0, busy)?;
                    busy += w0.elapsed();
                }
            }
        }
    }

    /// Handles the guest's `Resume` decision: validates the session id
    /// and, for a non-zero resume point, restores the split table from
    /// the named checkpoint.
    fn on_resume(&mut self, session_id: u64, tree_count: u32) -> Result<(), TrainError> {
        let my_sid = self.session.as_ref().map_or(0, |s| s.session_id());
        let mismatch =
            |detail: String| TrainError::ResumeMismatch { party: PartyId::Guest, detail };
        if session_id != my_sid {
            return Err(mismatch(format!(
                "guest announced session {session_id}, host runs session {my_sid}"
            )));
        }
        if tree_count == 0 {
            return Ok(());
        }
        let Some(sess) = self.session.clone() else {
            return Err(mismatch(format!(
                "guest asked to resume at {tree_count} trees, host has no session"
            )));
        };
        let ck = sess.load_host(tree_count, self.party_index as u32)?;
        if ck.party != self.party_index as u32 {
            return Err(mismatch(format!(
                "checkpoint belongs to host {}, this is host {}",
                ck.party, self.party_index
            )));
        }
        self.splits = ck.table;
        self.telemetry.events.resumes += 1;
        self.telemetry.trace.note(format!("resumed from checkpoint at {tree_count} trees"));
        Ok(())
    }

    fn ensure_tree(&mut self, tree: u32) {
        let stale = self.state.as_ref().is_none_or(|s| s.tree != tree);
        if stale {
            let n = self.csr.num_rows();
            self.state = Some(TreeState {
                tree,
                enc_g: Vec::with_capacity(n),
                enc_h: Vec::with_capacity(n),
                root: Some(self.new_builders()),
                rows: NodeRows::new_tree(n, self.cfg.gbdt.max_layers),
                hists: NodeHists::new(
                    (1 << self.cfg.gbdt.max_layers) - 1,
                    self.suite.cipher_wire_bytes(),
                    NODE_HIST_BUDGET_BYTES,
                ),
            });
            self.task_queue.clear();
            self.task_epoch.clear();
        }
    }

    /// True if `node` can be split: its row list exists and both children
    /// fit inside the tree's heap (a last-layer or unknown node cannot).
    fn splittable(&self, node: u32) -> bool {
        let heap = (1usize << self.cfg.gbdt.max_layers) - 1;
        let node = node as usize;
        self.state.as_ref().is_some_and(|s| s.rows.has(node) && right_child(node) < heap)
    }

    /// Records a protocol violation against the guest's misbehavior
    /// budget: counted, traced, tolerated while within budget, fatal
    /// ([`TrainError::PeerMisbehaving`]) once past it.
    fn misbehaving(&mut self, violation: ProtocolError) -> Result<(), TrainError> {
        self.telemetry.events.misbehavior += 1;
        self.telemetry.trace.note(format!("protocol violation by guest: {violation}"));
        self.budget.charge(PartyId::Guest, violation)
    }

    /// Runs the admission gates on a decoded message: semantic payload
    /// validation first (stateless), then the protocol state machine
    /// (advances on admission). Returns `Ok(true)` to dispatch,
    /// `Ok(false)` when the message was dropped as a tolerated violation,
    /// and an error once the misbehavior budget is exhausted.
    fn admit(&mut self, msg: &Msg) -> Result<bool, TrainError> {
        let verdict = validate::check_host_inbound(
            msg,
            self.csr.num_rows() as u32,
            self.binned.num_features(),
            self.cfg.gbdt.max_layers as u32,
            &self.suite,
            self.gh.as_ref(),
        )
        .and_then(|()| self.fsm.admit(msg));
        match verdict {
            Ok(Admit::Deliver) => Ok(true),
            Ok(Admit::Stale(reason)) => {
                self.telemetry.events.stale_msgs_dropped += 1;
                self.telemetry
                    .trace
                    .note(format!("dropped stale message kind {}: {reason}", msg.kind()));
                Ok(false)
            }
            Err(violation) => {
                self.misbehaving(violation)?;
                Ok(false)
            }
        }
    }

    fn handle(&mut self, msg: Msg) -> Result<(), TrainError> {
        match msg {
            Msg::GradBatch { tree, start_row, g, h, last } => {
                self.on_grad_batch(tree, start_row, g, Some(h), last)?;
            }
            // One cipher per instance carries both statistics: it is
            // stored in the `enc_g` stream and `enc_h` stays empty for the
            // whole tree.
            Msg::PackedGradBatch { tree, start_row, gh, last } => {
                self.on_grad_batch(tree, start_row, gh, None, last)?;
            }
            Msg::NodeTask { tree, node, epoch } => {
                self.phase = ProtocolPhase::TreeBuild;
                self.ensure_tree(tree);
                // Deterministic crash injection for the chaos suite: die
                // *inside* the node loop, after this task was accepted but
                // before its histogram answer — the worst spot for the
                // guest, which now holds a half-built tree. Party 0 only,
                // so multi-host runs keep live survivors.
                if self.party_index == 0 && self.chaos.crash_host_on_node_task == Some((tree, node))
                {
                    panic!(
                        "injected crash: host {} dying on node task ({tree}, {node})",
                        self.party_index
                    );
                }
                match self.task_epoch.get(&node) {
                    Some(&old) if old >= epoch => {
                        // The guest bumps the epoch before every task it
                        // issues, and the link is FIFO: a duplicate or
                        // regressed epoch cannot be an honest straggler.
                        self.misbehaving(ProtocolError::StaleOrReplayed {
                            from: PartyId::Guest,
                            kind: 3,
                            context: "node task replayed or epoch-regressed",
                        })?;
                    }
                    Some(_) => {
                        // Superseded before execution: the paper's aborted
                        // sub-task.
                        self.telemetry.events.aborted_tasks += 1;
                        self.task_epoch.insert(node, epoch);
                        if !self.task_queue.contains(&node) {
                            self.task_queue.push_back(node);
                        }
                    }
                    None => {
                        self.task_epoch.insert(node, epoch);
                        self.task_queue.push_back(node);
                    }
                }
            }
            Msg::ApplyPlacement { tree, node, placement } => {
                let span = self.telemetry.enter(TracePhase::Placement, Some(tree), Some(node));
                self.ensure_tree(tree);
                if !self.splittable(node) {
                    return Err(ProtocolError::UnexpectedMessage {
                        from: PartyId::Guest,
                        kind: 5,
                        context: "placement for a node without rows (or past the last layer)",
                    }
                    .into());
                }
                let Some(state) = self.state.as_mut() else {
                    return Err(state_invariant("placement arrived with no tree state"));
                };
                if state.rows.rows(node as usize).len() != placement.len() {
                    return Err(ProtocolError::UnexpectedMessage {
                        from: PartyId::Guest,
                        kind: 5,
                        context: "placement length differs from the node's row count",
                    }
                    .into());
                }
                state.apply_placement(node as usize, &placement);
                self.telemetry.exit(span);
            }
            Msg::HostSplitChosen { tree, node, feature, bin } => {
                let span = self.telemetry.enter(TracePhase::Placement, Some(tree), Some(node));
                self.ensure_tree(tree);
                if feature as usize >= self.binned.num_features() || !self.splittable(node) {
                    return Err(ProtocolError::UnexpectedMessage {
                        from: PartyId::Guest,
                        kind: 6,
                        context: "split-chosen for an unknown feature or unsplittable node",
                    }
                    .into());
                }
                let col: &BinnedColumn = self.binned.column(feature as usize);
                if bin as usize >= col.num_bins() {
                    return Err(ProtocolError::UnexpectedMessage {
                        from: PartyId::Guest,
                        kind: 6,
                        context: "split-chosen bin out of range",
                    }
                    .into());
                }
                let threshold = col.threshold(bin);
                self.splits
                    .splits
                    .insert((tree, node), NodeSplit { feature: feature as usize, bin, threshold });
                let Some(state) = self.state.as_mut() else {
                    return Err(state_invariant("split-chosen arrived with no tree state"));
                };
                let placement: Vec<bool> = state
                    .rows
                    .rows(node as usize)
                    .iter()
                    .map(|&r| col.bin_of_row(r as usize) <= bin)
                    .collect();
                state.apply_placement(node as usize, &placement);
                self.telemetry.events.splits_won += 1;
                self.telemetry.exit(span);
                self.send_traced(&Msg::Placement { tree, node, placement }, tree)?;
            }
            Msg::NodeLeaf { .. } => {}
            Msg::TreeDone { tree } => {
                self.state = None;
                self.task_queue.clear();
                self.task_epoch.clear();
                self.phase = ProtocolPhase::Gradients;
                let completed = tree.saturating_add(1);
                if let Some(sess) = self.session.clone() {
                    if sess.should_checkpoint(completed) {
                        sess.save_host(completed, self.party_index as u32, self.splits.clone())?;
                        self.telemetry.events.checkpoints_written += 1;
                        self.telemetry
                            .trace
                            .note(format!("checkpoint written at {completed} trees"));
                    }
                }
            }
            Msg::Resume { session_id, tree_count } => {
                self.on_resume(session_id, tree_count)?;
            }
            Msg::Rewind { session_id, tree_count } => {
                // A peer failure elsewhere forced the run back to
                // `tree_count` completed trees. This host survived, so its
                // in-memory split table is a superset of any checkpoint:
                // truncating it *is* the rewind — no disk load needed. All
                // in-flight tree state is void; the gradient stream of
                // tree `tree_count` arrives next (the FSM already reset
                // its row cursor on admission).
                let my_sid = self.session.as_ref().map_or(0, |s| s.session_id());
                if session_id != my_sid {
                    return Err(TrainError::ResumeMismatch {
                        party: PartyId::Guest,
                        detail: format!(
                            "guest rewound session {session_id}, host runs session {my_sid}"
                        ),
                    });
                }
                self.splits.splits.retain(|&(t, _), _| t < tree_count);
                self.state = None;
                self.task_queue.clear();
                self.task_epoch.clear();
                self.phase = ProtocolPhase::Gradients;
                // The ack is a FIFO barrier: every answer this host sent
                // for the aborted attempt precedes it on the wire, so the
                // guest can drain stragglers deterministically.
                self.send(&Msg::RewindAck { session_id, tree_count })?;
                self.telemetry.trace.note(format!("rewound to {tree_count} trees mid-run"));
            }
            // Liveness beacon: the transport-level ack already answered it.
            Msg::Heartbeat { .. } => {}
            Msg::Shutdown => self.shutdown = true,
            other => {
                return Err(ProtocolError::UnexpectedMessage {
                    from: PartyId::Guest,
                    kind: other.kind(),
                    context: "host message loop",
                }
                .into())
            }
        }
        Ok(())
    }

    /// Runs `f` with the tree state moved out of `self`, so `f` can hand
    /// the state's ciphers and row lists to the `&self` builders below
    /// while it writes the state's histogram slots.
    fn with_state<T>(
        &mut self,
        context: &'static str,
        f: impl FnOnce(&mut HostParty, &mut TreeState) -> Result<T, TrainError>,
    ) -> Result<T, TrainError> {
        let Some(mut state) = self.state.take() else { return Err(state_invariant(context)) };
        let done = f(self, &mut state);
        self.state = Some(state);
        done
    }

    /// Stores one gradient batch — two streams, or on the paired path one
    /// (`h` is `None`) — and folds its rows into the root histogram.
    fn on_grad_batch(
        &mut self,
        tree: u32,
        start_row: u32,
        g: Vec<Ciphertext>,
        h: Option<Vec<Ciphertext>>,
        last: bool,
    ) -> Result<(), TrainError> {
        self.ensure_tree(tree);
        self.with_state("gradient batch arrived with no tree state", |host, state| {
            host.fold_grad_batch(state, start_row, g, h, last)
        })
    }

    /// [`HostParty::on_grad_batch`] on the tree state it moved out; the
    /// last batch ships the root payload and retains the root histogram.
    fn fold_grad_batch(
        &mut self,
        state: &mut TreeState,
        start_row: u32,
        g: Vec<Ciphertext>,
        h: Option<Vec<Ciphertext>>,
        last: bool,
    ) -> Result<(), TrainError> {
        let tree = state.tree;
        let num_rows = self.csr.num_rows();
        let span = self.telemetry.enter(TracePhase::Hadd, Some(tree), Some(0));
        if state.enc_g.len() != start_row as usize {
            return Err(ProtocolError::OutOfOrderGradients {
                expected: state.enc_g.len() as u32,
                got: start_row,
            }
            .into());
        }
        if h.as_ref().is_some_and(|h| h.len() != g.len()) || state.enc_g.len() + g.len() > num_rows
        {
            return Err(ProtocolError::UnexpectedMessage {
                from: PartyId::Guest,
                kind: if h.is_some() { 2 } else { 14 },
                context: "gradient batch with mismatched or overflowing row count",
            }
            .into());
        }
        state.enc_g.extend(g);
        state.enc_h.extend(h.into_iter().flatten());
        let batch_end = state.enc_g.len();
        // Accumulate the freshly arrived rows into the root histogram
        // immediately — this is what overlaps BuildHistA with the guest's
        // ongoing encryption (§4.1).
        let Some((mut root_g, mut root_h)) = state.root.take() else {
            return Err(state_invariant("root accumulation with no root builders"));
        };
        let rows: Vec<u32> = (start_row..batch_end as u32).collect();
        self.accumulate(state, &mut root_g, &mut root_h, &rows)?;
        self.telemetry.exit(span);

        if !last {
            state.root = Some((root_g, root_h));
            return Ok(());
        }
        if batch_end != num_rows {
            return Err(
                ProtocolError::IncompleteGradients { expected: num_rows, got: batch_end }.into()
            );
        }
        let payload = self.make_payload(tree, &root_g, &root_h, num_rows)?;
        // Keep the root histogram (the blaster path is the only producer of
        // node 0): level-1 children derive from it.
        self.keep(state, 0, (root_g, root_h));
        self.send_traced(&Msg::NodeHistograms { tree, node: 0, epoch: 1, payload }, tree)?;
        self.phase = ProtocolPhase::TreeBuild;
        Ok(())
    }

    /// An empty (gradient, hessian) builder pair shaped by this host's
    /// columns.
    fn new_builders(&self) -> BuilderPair {
        let mk = || {
            EncHistBuilder::new(
                &self.csr.col_meta,
                &self.cfg.encoding,
                self.cfg.protocol.reordered_accumulation,
            )
        };
        (mk(), mk())
    }

    /// Accumulates the stored ciphers of `rows` into one builder pair, the
    /// columns sharded across the pool ([`EncHistBuilder::add_rows`]). A
    /// panic on any worker — a bug, or the chaos knob below — is re-raised
    /// on this thread by the pool and caught here, so it becomes a typed
    /// `PartyPanicked` like any other party-level failure.
    fn accumulate(
        &self,
        state: &TreeState,
        g: &mut EncHistBuilder,
        h: &mut EncHistBuilder,
        rows: &[u32],
    ) -> Result<(), TrainError> {
        let tree = state.tree;
        let crash = self.chaos.crash_hist_worker_on_tree == Some(tree);
        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.pool.install(|| {
                if crash {
                    panic!("injected crash: histogram worker shard 0 dying in tree {tree}");
                }
                let enc_h = self.gh.is_none().then_some(&state.enc_h[..]);
                EncHistBuilder::add_rows(
                    &self.suite,
                    &self.csr,
                    rows,
                    (g, &state.enc_g),
                    (h, enc_h),
                )
            })
        }));
        match work {
            Ok(done) => done.map_err(TrainError::crypto("encrypted histogram accumulation")),
            Err(payload) => Err(TrainError::PartyPanicked {
                party: PartyId::Host(self.party_index),
                detail: format!("encrypted histogram build: {}", panic_text(payload.as_ref())),
            }),
        }
    }

    /// Executes the oldest queued node task.
    fn run_one_task(&mut self) -> Result<(), TrainError> {
        let Some(node) = self.task_queue.pop_front() else { return Ok(()) };
        let Some(&epoch) = self.task_epoch.get(&node) else { return Ok(()) };
        // The root histogram is always produced by the blaster path
        // (incremental accumulation while batches arrive); its task is only
        // a uniformity artifact of the guest's materialize step. A task for
        // rows this host never received means the placement that would
        // create them was lost with the peer, or the guest is confused.
        // Either way, skipping is safe — the guest's epoch bookkeeping
        // discards whatever we would have sent.
        if node == 0 || !self.state.as_ref().is_some_and(|s| s.rows.has(node as usize)) {
            return Ok(());
        }
        self.with_state("node task with no tree state", |host, state| {
            let (tree, node) = (state.tree, node as usize);
            let span = host.telemetry.enter(TracePhase::Hadd, Some(tree), Some(node as u32));
            let (g, h) = host.node_builders(state, node)?;
            host.telemetry.exit(span);
            let payload = host.make_payload(tree, &g, &h, state.rows.rows(node).len())?;
            // Keep it so the node's children can derive from it at the next
            // level.
            host.keep(state, node, (g, h));
            host.send_traced(&Msg::NodeHistograms { tree, node: node as u32, epoch, payload }, tree)
        })
    }

    /// Produces one node's builders, preferring the subtraction path: reuse
    /// the node's own retained builders if resident; otherwise, if this
    /// node is the *larger* child of its parent's split and the parent's
    /// histogram is resident, build (or fetch) the smaller sibling and
    /// derive this node as `parent ⊖ sibling`. Any miss — a parent dropped
    /// by a deeper store before a rolled-back task was re-issued, a
    /// histogram past the budget — falls back to the direct per-row build.
    /// The decision is a pure function of the row lists, so every protocol
    /// mode (and every fault schedule) takes identical branches.
    fn node_builders(
        &mut self,
        state: &mut TreeState,
        node: usize,
    ) -> Result<BuilderPair, TrainError> {
        if let Some(hit) = state.hists.take(node) {
            self.telemetry.events.hist_cache_hits += 1;
            return Ok(hit);
        }
        let sibling = if node % 2 == 1 { node + 1 } else { node - 1 };
        let parent = (node - 1) / 2;
        // Build the smaller child (ties break to the left child, which has
        // the odd heap id) directly; derive only the larger one.
        let larger = state.rows.has(sibling) && {
            let (len, sibling_len) = (state.rows.rows(node).len(), state.rows.rows(sibling).len());
            len > sibling_len || (len == sibling_len && node.is_multiple_of(2))
        };
        if !larger {
            return self.build_node(state, node);
        }
        if state.hists.get(parent).is_none() {
            self.telemetry.events.hist_cache_misses += 1;
            return self.build_node(state, node);
        }
        if state.hists.get(sibling).is_none() {
            let built = self.build_node(state, sibling)?;
            self.keep(state, sibling, built);
        }
        let (Some((pg, ph)), Some((sg, sh))) = (state.hists.get(parent), state.hists.get(sibling))
        else {
            // The sibling did not fit the budget.
            self.telemetry.events.hist_cache_misses += 1;
            return self.build_node(state, node);
        };
        let crypto = TrainError::crypto("ciphertext histogram subtraction");
        let before = self.suite.counters().snapshot();
        let g = pg.subtract(&self.suite, sg).map_err(&crypto)?;
        let h = ph.subtract(&self.suite, sh).map_err(&crypto)?;
        let spent = self.suite.counters().snapshot().since(&before);
        // A direct build folds one cipher per stored entry and stream into
        // its bins; the first one into an empty slot is a move, not an HAdd.
        let streams = if self.gh.is_some() { 1 } else { 2 };
        let rows = state.rows.rows(node);
        let entries: u64 = rows.iter().map(|&r| self.csr.row(r as usize).len() as u64).sum();
        let direct_cost =
            (streams * entries).saturating_sub((g.cipher_count() + h.cipher_count()) as u64);
        self.telemetry.events.hist_cache_hits += 1;
        self.telemetry.events.hist_subtractions += 1;
        self.telemetry.events.hadds_saved +=
            direct_cost.saturating_sub(spent.hadd + spent.negs + spent.scalings);
        Ok((g, h))
    }

    /// Retains a node's histogram in its slot, counting and tracing what
    /// the store dropped to make room.
    fn keep(&mut self, state: &mut TreeState, node: usize, pair: BuilderPair) {
        for (dropped, bytes) in state.hists.store(node, pair) {
            self.telemetry.events.hist_cache_evictions += 1;
            self.telemetry.trace.cache_evict(state.tree, dropped, bytes);
        }
    }

    /// Direct histogram build from one node's rows.
    fn build_node(&self, state: &TreeState, node: usize) -> Result<BuilderPair, TrainError> {
        let (mut g, mut h) = self.new_builders();
        self.accumulate(state, &mut g, &mut h, state.rows.rows(node))?;
        Ok((g, h))
    }

    /// Runs `one(f)` for every feature of `g` across the pool, in feature
    /// order; the first failing feature's error wins.
    fn per_feature<T: Send>(
        &self,
        g: &EncHistBuilder,
        one: impl Fn(usize) -> Result<T, TrainError> + Send + Sync,
    ) -> Result<Vec<T>, TrainError> {
        use rayon::prelude::*;
        self.pool.install(|| (0..g.num_features()).into_par_iter().map(one).collect())
    }

    /// Finalizes builders into the configured wire format.
    fn make_payload(
        &mut self,
        tree: u32,
        g: &EncHistBuilder,
        h: &EncHistBuilder,
        count: usize,
    ) -> Result<HistPayload, TrainError> {
        let span = self.telemetry.enter(TracePhase::Pack, Some(tree), None);
        let suite = &self.suite;
        let crypto = TrainError::crypto("histogram finalize/pack");
        let payload = if let Some(plan) = &self.gh {
            // Paired path: the whole histogram lives in the `g` builders;
            // every bin is topped up to the plan's constant offset, then
            // bins pack at exactly the pair width.
            let pack_one = |f: usize| -> Result<GhPackedFeatureHist, TrainError> {
                let bins = g.finalize_gh_feature(suite, f, plan).map_err(&crypto)?;
                pack_gh_feature_hist(suite, &bins, plan).map_err(&crypto)
            };
            HistPayload::GhPacked(self.per_feature(g, pack_one)?)
        } else if self.cfg.protocol.pack_histograms {
            let target = max_exponent(&self.cfg.encoding);
            let grad_bound = self.cfg.gbdt.loss.grad_bound();
            let hess_bound = self.cfg.gbdt.loss.hess_bound();
            let pack_one = |f: usize| -> Result<PackedFeatureHist, TrainError> {
                let bins_g = g.finalize_feature(suite, f, Some(target)).map_err(&crypto)?;
                let bins_h = h.finalize_feature(suite, f, Some(target)).map_err(&crypto)?;
                pack_feature_hist(
                    suite,
                    &bins_g,
                    &bins_h,
                    count,
                    grad_bound,
                    hess_bound,
                    TARGET_SLOT_BITS,
                    &self.cfg.encoding,
                )
                .map_err(&crypto)
            };
            HistPayload::Packed(self.per_feature(g, pack_one)?)
        } else {
            let raw_one = |f: usize| -> Result<RawFeatureHist, TrainError> {
                Ok(RawFeatureHist {
                    g: g.finalize_feature(suite, f, None).map_err(&crypto)?,
                    h: h.finalize_feature(suite, f, None).map_err(&crypto)?,
                })
            };
            HistPayload::Raw(self.per_feature(g, raw_one)?)
        };
        self.telemetry.exit(span);
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_channel::{duplex, WanConfig};
    use vf2_crypto::suite::PlainNumber;
    use vf2_gbdt::data::FeatureColumn;

    use crate::rows::ColMeta;

    /// A builder pair holding `ciphers` occupied slots (all in the `g`
    /// half).
    fn pair_of(ciphers: usize) -> BuilderPair {
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        let meta = [ColMeta { num_bins: 8, zero_bin: 0, dense: true }];
        let mut g = EncHistBuilder::new(&meta, &cfg.encoding, true);
        let one = Ciphertext::Plain(PlainNumber { value: 1.0, exponent: cfg.encoding.base_exp });
        for bin in 0..ciphers {
            g.add(&suite, 0, bin, &one).unwrap();
        }
        (g, EncHistBuilder::new(&meta, &cfg.encoding, true))
    }

    fn resident(hists: &NodeHists) -> Vec<usize> {
        (0..hists.slots.len()).filter(|&n| hists.get(n).is_some()).collect()
    }

    #[test]
    fn storing_at_a_level_drops_the_levels_that_can_no_longer_parent() {
        let mut hists = NodeHists::new(15, 10, NODE_HIST_BUDGET_BYTES);
        // Levels 0 and 1 never drop anything; a level-2 store drops level 0.
        for node in [0, 1, 2] {
            assert!(hists.store(node, pair_of(2)).is_empty());
        }
        assert_eq!(hists.store(3, pair_of(2)), vec![(0, 20)]);
        assert!(hists.store(4, pair_of(3)).is_empty());
        assert!(hists.store(0, pair_of(1)).is_empty());
        assert_eq!(resident(&hists), vec![0, 1, 2, 3, 4]);
        // Level 3 empties levels 0-1, in node order, and nothing else.
        assert_eq!(hists.store(7, pair_of(1)), vec![(0, 10), (1, 20), (2, 20)]);
        assert_eq!(resident(&hists), vec![3, 4, 7]);
        assert_eq!(hists.resident_bytes, 20 + 30 + 10);
        // Replacing a node's own histogram is not a drop.
        assert!(hists.store(7, pair_of(4)).is_empty());
        assert_eq!(hists.take(7).map(|(g, _)| g.cipher_count()), Some(4));
        assert_eq!(hists.resident_bytes, 20 + 30);
    }

    #[test]
    fn a_placement_forgets_both_childrens_histograms() {
        let mut state = TreeState {
            tree: 0,
            enc_g: Vec::new(),
            enc_h: Vec::new(),
            root: None,
            rows: NodeRows::new_tree(4, 3),
            hists: NodeHists::new(7, 10, NODE_HIST_BUDGET_BYTES),
        };
        state.apply_placement(0, &[true, true, false, false]);
        for node in [0, 1, 2] {
            state.hists.store(node, pair_of(2));
        }
        // The re-split: new row lists, so neither child's histogram stays.
        state.apply_placement(0, &[true, false, true, false]);
        assert_eq!(state.rows.rows(1), &[0, 2]);
        assert_eq!(resident(&state.hists), vec![0]);
        assert_eq!(state.hists.resident_bytes, 20);
    }

    /// Drives a 6-row, one-feature mock host through the root stream, one
    /// placement (2 rows left, 4 right) and both child tasks, with its
    /// histogram store capped at `budget_bytes`. Returns the host and the
    /// three histogram answers it sent.
    fn two_child_tasks(budget_bytes: u64) -> (HostParty, Vec<Msg>) {
        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let column = FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let data = Arc::new(Dataset::new(6, vec![column], None));
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        let mut host =
            HostParty::new(0, data, cfg, suite, host_ep, None, ChaosPlan::default()).unwrap();
        host.ensure_tree(0);
        let state = host.state.as_mut().unwrap();
        state.hists = NodeHists::new(15, host.suite.cipher_wire_bytes(), budget_bytes);
        let stream = |scale: f64| -> Vec<Ciphertext> {
            (0..6)
                .map(|i| {
                    let value = scale * (i + 1) as f64;
                    Ciphertext::Plain(PlainNumber { value, exponent: cfg.encoding.base_exp })
                })
                .collect()
        };
        let (g, h) = (stream(0.25), stream(0.5));
        host.handle(Msg::GradBatch { tree: 0, start_row: 0, g, h, last: true }).unwrap();
        let placement = vec![true, true, false, false, false, false];
        host.handle(Msg::ApplyPlacement { tree: 0, node: 0, placement }).unwrap();
        for node in [1, 2] {
            host.handle(Msg::NodeTask { tree: 0, node, epoch: 1 }).unwrap();
            host.run_one_task().unwrap();
        }
        // `new` + `handle` never greet: the answers are all that was sent.
        let answers = (0..3)
            .map(|_| guest_ep.recv_timeout(Duration::from_secs(10)).expect("a histogram answer"))
            .map(|env| wire::decode(env.kind, env.payload).unwrap())
            .collect();
        (host, answers)
    }

    #[test]
    fn a_histogram_past_the_budget_is_not_kept_and_its_child_is_built_from_rows() {
        let (roomy, derived) = two_child_tasks(NODE_HIST_BUDGET_BYTES);
        assert_eq!(roomy.telemetry.events.hist_subtractions, 1);
        assert_eq!(roomy.telemetry.events.hist_cache_misses, 0);
        assert!(roomy.suite.counters().snapshot().negs > 0);

        // One byte holds no histogram: the root is refused, so the larger
        // child's lookup is a counted miss and it is built from its rows —
        // to the very answer the derivation produced.
        let (starved, direct) = two_child_tasks(1);
        let state = starved.state.as_ref().unwrap();
        assert_eq!(resident(&state.hists), Vec::<usize>::new());
        assert_eq!(starved.telemetry.events.hist_cache_misses, 1);
        assert_eq!(starved.telemetry.events.hist_subtractions, 0);
        assert_eq!(starved.telemetry.events.hist_cache_evictions, 0);
        assert_eq!(starved.suite.counters().snapshot().negs, 0);
        assert_eq!(direct.len(), 3);
        assert_eq!(direct, derived);
    }

    // run_host is exercised end-to-end by the guest/train tests and the
    // integration suite; here we only cover the party-index plumbing.
    #[test]
    fn telemetry_carries_party_name() {
        use vf2_crypto::encoding::EncodingConfig;

        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let data =
            Arc::new(Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None));
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(EncodingConfig::default());
        let handle = std::thread::spawn(move || {
            run_host(3, data, cfg, suite, host_ep, None, ChaosPlan::default())
        });
        // Read the SessionHello and FeatureMeta greetings, then shut the
        // host down. A session-less host announces session 0, epoch 0.
        let env = guest_ep.recv().unwrap();
        let msg = wire::decode(env.kind, env.payload).unwrap();
        assert!(
            matches!(msg, Msg::SessionHello { session_id: 0, epoch: 0, ref durable } if durable.is_empty())
        );
        let env = guest_ep.recv().unwrap();
        let msg = wire::decode(env.kind, env.payload).unwrap();
        assert!(matches!(msg, Msg::FeatureMeta(ref m) if m.len() == 1));
        // The host's admission machine expects the resume decision before
        // anything else, exactly as the real guest behaves.
        let resume = Msg::Resume { session_id: 0, tree_count: 0 };
        guest_ep.send(resume.kind(), wire::encode(&resume).unwrap());
        guest_ep.send(Msg::Shutdown.kind(), wire::encode(&Msg::Shutdown).unwrap());
        let (telemetry, splits) = handle.join().unwrap().expect("host run succeeds");
        assert_eq!(telemetry.name, "host-3");
        assert!(splits.splits.is_empty());
    }
}
