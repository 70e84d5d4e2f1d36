//! The guest party (the paper's *Party B*): label owner, private-key
//! holder, and protocol driver.
//!
//! One event loop (`GuestParty::run_tree`) drives every tree; the paper's
//! two schedules are two timings of it (§4.2, Figs. 5–6), selected by
//! `ProtocolConfig::optimistic`:
//!
//! * **Sequential** (the VF-GBDT baseline): strict per-layer phases — ship
//!   all gradients, hold *every* host histogram of the layer, then
//!   decrypt, decide, and split. Each party idles while the other works,
//!   which is exactly the mutual waiting of §2.4's Bottleneck 1.
//! * **Optimistic** (§4.2): the guest splits each node with its own best
//!   split as soon as it finds one and charges ahead; when a host's
//!   histograms later reveal a better host split, the node is *dirty* —
//!   its subtree is rolled back (epochs are bumped so in-flight histograms
//!   are discarded) and re-done from the host's placement.
//!
//! Gradient shipping uses blaster batches (§4.1) when configured: each
//! batch is encrypted, handed to the (non-blocking) gateway link, and the
//! next batch's encryption proceeds while earlier ciphers are still on the
//! wire and hosts are already accumulating.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use vf2_channel::{Endpoint, Envelope};
use vf2_crypto::packing::GhPlan;
use vf2_crypto::split_seed;
use vf2_crypto::suite::Suite;
use vf2_gbdt::binning::BinnedDataset;
use vf2_gbdt::data::Dataset;
use vf2_gbdt::histogram::GradPair;
use vf2_gbdt::split::{best_of, find_best_split, SplitCandidate};
use vf2_gbdt::tree::{layer_of, left_child, parent, right_child, NodeId, NodeSplit};

use crate::config::TrainConfig;
use crate::error::{GuestFailure, PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::fsm::{Admit, GuestFsm};
use crate::hist_enc::{
    decrypt_feature_hist, unpack_feature_hist, unpack_gh_feature_hist, DecodedBins,
};
use crate::messages::{FeatureMeta, HistPayload, Msg};
use crate::model::{FedNode, FedTree};
use crate::peer::{self, Deadline, Peer};
use crate::rows::{check_width, NodeRows, RowMajorBins};
use crate::session::PartySession;
use crate::telemetry::{PartyTelemetry, TreeRecord};
use crate::trace::{TracePhase, TraceRing};
use crate::validate;
use crate::wire;

/// What the guest hands back after training.
pub struct GuestOutput {
    /// The guest-view trees.
    pub trees: Vec<FedTree>,
    /// Telemetry.
    pub telemetry: PartyTelemetry,
    /// Per-tree completion records.
    pub tree_records: Vec<TreeRecord>,
    /// Final training-set margins.
    pub train_margins: Vec<f64>,
}

/// Which party won a node, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Winner {
    None,
    Guest(SplitCandidate),
    Host(usize, SplitCandidate),
}

/// One host's histogram of one node as it decrypted, feature by feature.
type HostHist = Vec<DecodedBins>;

/// One host's answer slot for one node.
#[derive(Debug, Clone, PartialEq)]
enum HostAnswer {
    /// Owed — by the host, or by the derivation from its sibling's — and
    /// not in yet.
    Waiting,
    /// In: the host's best split for the node, and its histogram, kept as
    /// it decrypted for as long as the node stands — a (re-)split's
    /// derivation reads it.
    Answered { best: Option<SplitCandidate>, hist: HostHist },
}

/// Per-node in-flight state.
struct NodeState {
    total: GradPair,
    /// The node whose `NodeTask` answers for this one: itself, or — for
    /// the larger child of a split — its smaller sibling.
    asked: NodeId,
    guest_best: Option<SplitCandidate>,
    /// One slot per host, index-aligned with the roster.
    answers: Vec<HostAnswer>,
    /// The guest split was already applied optimistically.
    already_split: bool,
    /// Waiting for a host's placement after choosing its split.
    awaiting_placement: Option<usize>,
    resolved: bool,
}

impl NodeState {
    /// `host`'s histogram of this node, once it is in.
    fn hist(&self, host: usize) -> Option<&HostHist> {
        match &self.answers[host] {
            HostAnswer::Answered { hist, .. } => Some(hist),
            _ => None,
        }
    }

    /// True once no host's answer is still owed.
    fn all_in(&self) -> bool {
        !self.answers.contains(&HostAnswer::Waiting)
    }
}

/// Per-tree mutable state.
struct TreeCtx {
    tree: u32,
    grads: Vec<GradPair>,
    rows: NodeRows,
    epoch: Vec<u32>,
    states: HashMap<NodeId, NodeState>,
    /// The tree being built: a node is written when it resolves and is
    /// `Absent` again when a rollback takes it.
    fed: FedTree,
    pending: usize,
}

/// A histogram answer the tree loop has admitted but not yet decrypted.
/// Batching these lets one party's FindSplitA overlap another party's
/// transfer (and the guest's own plaintext build): the decrypt work is
/// deferred until the batch closes (see [`GuestParty::run_tree`]), then
/// committed in `(node, host)` order.
struct PendingHist {
    host: usize,
    node: NodeId,
    epoch: u32,
    payload: HistPayload,
}

/// A guest-side protocol-state invariant broke: the driver's node
/// bookkeeping desynchronized from the observed message sequence. These
/// sites used to be `expect(...)` panics.
fn guest_invariant(context: &'static str) -> TrainError {
    ProtocolError::InvariantViolated { party: PartyId::Guest, context }.into()
}

/// The per-batch base seed for gradient encryption randomness of the
/// batch starting at row `start` of tree `tree`. Stream seeds are derived
/// from it via [`split_seed`], never by ad-hoc xor-masking (two masked
/// streams can collide after the per-element `wrapping_add(i)` walk); no
/// two rows of a run share an element seed (pinned by a test below).
fn batch_seed(seed: u64, tree: u32, start: usize) -> u64 {
    seed.wrapping_mul(0x517c_c1b7_2722_0a95)
        .wrapping_add((tree as u64) << 32)
        .wrapping_add(start as u64)
}

/// Runs the guest to completion and shuts the hosts down.
///
/// Never panics on peer misbehaviour: a silent or disconnected host
/// yields [`TrainError::PeerLost`], a malformed or out-of-place message
/// yields [`TrainError::Protocol`], and the failure carries the guest's
/// partial telemetry. A lost host ends the run: with a session attached,
/// every party's checkpoints stay durable, and the caller restarts the
/// run with [`crate::session::SessionConfig::resuming`].
pub fn run_guest(
    data: Arc<Dataset>,
    cfg: TrainConfig,
    suite: Suite,
    endpoints: Vec<Endpoint>,
    session: Option<PartySession>,
) -> Result<GuestOutput, GuestFailure> {
    match GuestParty::new(data, cfg, suite, endpoints, session) {
        Ok(party) => party.run(),
        Err(error) => Err(GuestFailure {
            error,
            telemetry: Box::new(PartyTelemetry { name: "guest".into(), ..Default::default() }),
            tree_records: Vec::new(),
        }),
    }
}

/// Everything the guest holds about one host, in one record.
struct HostLink {
    /// The link and the host's misbehavior budget.
    peer: Peer,
    /// Validating state machine over this host's inbound stream.
    fsm: GuestFsm,
    /// The histogram structure its `FeatureMeta` announced.
    metas: Vec<FeatureMeta>,
    /// The durable checkpoints its `SessionHello` announced.
    durable: Vec<u32>,
}

struct GuestParty {
    cfg: TrainConfig,
    suite: Suite,
    /// The pair plan when this run's forward path is paired
    /// ([`TrainConfig::gh_plan`]); `None` on the two-stream path.
    gh: Option<GhPlan>,
    /// The roster, indexed by host.
    hosts: Vec<HostLink>,
    data: Arc<Dataset>,
    /// The label vector, captured once at construction (presence is a
    /// constructor invariant — storing it removes every later
    /// `labels().expect(...)`).
    labels: Vec<f32>,
    binned: BinnedDataset,
    csr: RowMajorBins,
    pool: rayon::ThreadPool,
    preds: Vec<f64>,
    telemetry: PartyTelemetry,
    tree_records: Vec<TreeRecord>,
    started: Instant,
    session: Option<PartySession>,
}

impl GuestParty {
    fn new(
        data: Arc<Dataset>,
        cfg: TrainConfig,
        suite: Suite,
        endpoints: Vec<Endpoint>,
        session: Option<PartySession>,
    ) -> Result<GuestParty, TrainError> {
        let Some(labels) = data.labels() else {
            return Err(TrainError::InvalidInput("the guest must own the labels".into()));
        };
        // A node resolves once every host has answered, so the tree loop
        // needs someone to wait on.
        if endpoints.is_empty() {
            return Err(TrainError::InvalidInput("at least one host party is required".into()));
        }
        check_width(PartyId::Guest, data.num_features())?;
        let labels = labels.to_vec();
        let binned = BinnedDataset::bin(&data, &cfg.gbdt.binning);
        let csr = RowMajorBins::from_binned(&binned);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.workers.max(1))
            .thread_name(|i| format!("guest-worker{i}"))
            .build()
            .map_err(|e| TrainError::Setup { party: PartyId::Guest, detail: e.to_string() })?;
        let n = data.num_rows();
        let gh = cfg.gh_plan(&suite, n).map_err(TrainError::crypto("gh plan derivation"))?;
        let link = |(h, endpoint)| HostLink {
            peer: Peer::new(endpoint, PartyId::Guest, PartyId::Host(h), cfg.misbehavior_budget),
            fsm: GuestFsm::new(h),
            metas: Vec::new(),
            durable: Vec::new(),
        };
        Ok(GuestParty {
            gh,
            hosts: endpoints.into_iter().enumerate().map(link).collect(),
            preds: vec![cfg.gbdt.loss.base_score(); n],
            telemetry: PartyTelemetry {
                name: "guest".into(),
                trace: TraceRing::new(cfg.trace_events_cap, cfg.trace_spans),
                ..Default::default()
            },
            tree_records: Vec::new(),
            started: Instant::now(),
            session,
            cfg,
            suite,
            data,
            labels,
            binned,
            csr,
            pool,
        })
    }

    fn run(mut self) -> Result<GuestOutput, GuestFailure> {
        let outcome = self.run_inner();
        // Whatever was measured is handed back, failure or not.
        self.collect_transfer_stats();
        match outcome {
            Ok(trees) => Ok(GuestOutput {
                trees,
                telemetry: self.telemetry,
                tree_records: self.tree_records,
                train_margins: self.preds,
            }),
            Err(error) => {
                // Dump the flight record first.
                if let Some(sess) = &self.session {
                    sess.dump_flight_record(&error, &mut self.telemetry);
                }
                Err(GuestFailure {
                    error,
                    telemetry: Box::new(self.telemetry),
                    tree_records: self.tree_records,
                })
            }
        }
    }

    fn run_inner(&mut self) -> Result<Vec<FedTree>, TrainError> {
        let session = self.session.clone();
        let my_sid = session.as_ref().map_or(0, |s| s.session_id());

        // Session handshake + feature metadata, host by host.
        for h in 0..self.hosts.len() {
            loop {
                let msg = self.recv_from(h, ProtocolPhase::Hello)?;
                if self.on_handshake(h, msg)? {
                    break;
                }
            }
        }

        // Pick the resume point: the largest tree count durable at the
        // guest AND every host. Anything less than full agreement resumes
        // from the latest point everyone can actually restore.
        let resuming = session.as_ref().filter(|s| s.resume());
        let mut resume_from: u32 = 0;
        if let Some(sess) = resuming {
            let mut common = sess.durable();
            for host in &self.hosts {
                common.retain(|k| host.durable.contains(k));
            }
            resume_from = common.last().copied().unwrap_or(0);
        }
        self.broadcast(&Msg::Resume { session_id: my_sid, tree_count: resume_from })?;

        let mut trees = Vec::with_capacity(self.cfg.gbdt.num_trees);
        if let Some(sess) = resuming.filter(|_| resume_from > 0) {
            trees.extend(self.load_resume_point(sess, resume_from)?);
            self.telemetry.events.resumes += 1;
            self.telemetry.trace.note(format!("resumed from checkpoint at {resume_from} trees"));
        }

        self.started = Instant::now();
        for t in resume_from as usize..self.cfg.gbdt.num_trees {
            trees.push(self.train_tree(t as u32)?);
            self.tree_records.push(TreeRecord {
                tree: t,
                completed_at: self.started.elapsed(),
                train_loss: self.cfg.gbdt.loss.mean_loss(&self.labels, &self.preds),
            });
            if let Some(sess) = &session {
                let completed = t as u32 + 1;
                sess.save_guest(completed, trees.clone(), self.preds.clone())?;
                self.telemetry.events.checkpoints_written += 1;
                self.telemetry.trace.note(format!("checkpoint written at {completed} trees"));
            }
        }
        self.broadcast(&Msg::Shutdown)?;
        // Linger until the hosts ack the goodbye (bounded by the peer
        // deadline): returning now would drop the endpoints, and a
        // Shutdown frame the fault plan dropped would die unacked — the
        // host would see a disconnect instead of an orderly finish.
        for host in &self.hosts {
            host.peer.flush(self.cfg.peer_timeout);
        }
        Ok(trees)
    }

    /// The one handler for the `SessionHello` + `FeatureMeta` pair every
    /// host opens its link with. The hello announces the host's session
    /// view (a foreign session id is a typed [`TrainError::ResumeMismatch`],
    /// caught before any gradient leaves the party) and its durable
    /// checkpoint list; the metadata announces its histogram structure and
    /// completes the pair (`Ok(true)`). FIFO delivery and the admission FSM
    /// guarantee the order (no metadata is admitted before its hello);
    /// anything else here is a typed protocol error.
    fn on_handshake(&mut self, host: usize, msg: Msg) -> Result<bool, TrainError> {
        let unexpected = |kind: u16, context: &'static str| -> TrainError {
            ProtocolError::UnexpectedMessage { from: PartyId::Host(host), kind, context }.into()
        };
        match msg {
            Msg::SessionHello { session_id, durable: at_host } => {
                let my_sid = self.session.as_ref().map_or(0, |s| s.session_id());
                if session_id != my_sid {
                    return Err(TrainError::ResumeMismatch {
                        party: PartyId::Host(host),
                        detail: format!(
                            "host announced session {session_id}, guest runs session {my_sid}"
                        ),
                    });
                }
                self.telemetry.trace.note(format!("host-{host} hello: session {session_id}"));
                self.hosts[host].durable = at_host;
                Ok(false)
            }
            Msg::FeatureMeta(m) => {
                // The zero-bin index is used to address histogram bins
                // later; reject inconsistent metadata up front.
                if m.iter().any(|meta| meta.zero_bin >= meta.num_bins) {
                    return Err(unexpected(1, "FeatureMeta zero_bin out of range"));
                }
                self.hosts[host].metas = m;
                Ok(true)
            }
            other => Err(unexpected(other.kind(), "session handshake")),
        }
    }

    /// Loads the guest's model state at the agreed resume point `target`
    /// (> 0 completed trees) from its checkpoint: the margins replace the
    /// base-score start, and the checkpointed trees are returned.
    fn load_resume_point(
        &mut self,
        sess: &PartySession,
        target: u32,
    ) -> Result<Vec<FedTree>, TrainError> {
        let ck = sess.load_guest(target)?;
        if ck.preds.len() != self.preds.len() {
            return Err(TrainError::ResumeMismatch {
                party: PartyId::Guest,
                detail: format!(
                    "checkpoint holds {} prediction rows, dataset has {}",
                    ck.preds.len(),
                    self.preds.len()
                ),
            });
        }
        self.preds = ck.preds;
        Ok(ck.trees)
    }

    fn collect_transfer_stats(&mut self) {
        self.telemetry.ops = self.suite.counters().snapshot();
        self.telemetry.crypto_backend = self.suite.backend_label();
        let links = self.hosts.iter().map(|h| h.peer.fold_stats(&mut self.telemetry)).collect();
        self.telemetry.links = links;
    }

    /// Counts one provably-honest stale drop (optimistic-protocol
    /// straggler) with a trace note saying why.
    fn drop_stale(&mut self, host: usize, kind: u16, reason: &str) {
        self.telemetry.events.stale_msgs_dropped += 1;
        self.telemetry.trace.note(format!("dropped stale kind {kind} from host-{host}: {reason}"));
    }

    /// Decodes a frame from `host` and runs the admission gates on it:
    /// semantic payload validation first (stateless), then that host's
    /// protocol state machine (advances on admission). `Ok(Some(msg))`
    /// delivers to the protocol driver; `Ok(None)` means the message was
    /// dropped — an honest straggler or a tolerated violation; an error
    /// means a frame that does not decode, or a host that exhausted its
    /// misbehavior budget.
    fn admit_from(&mut self, host: usize, env: Envelope) -> Result<Option<Msg>, TrainError> {
        let msg = wire::decode(env.kind, env.payload)
            .map_err(|error| ProtocolError::Malformed { from: PartyId::Host(host), error })?;
        let link = &mut self.hosts[host];
        let metas = Some(link.metas.as_slice()).filter(|m| !m.is_empty());
        let verdict = validate::check_guest_inbound(
            host,
            &msg,
            metas,
            self.cfg.gbdt.max_layers as u32,
            &self.suite,
            self.gh.as_ref(),
        )
        .and_then(|()| link.fsm.admit(&msg));
        match verdict {
            Ok(Admit::Deliver) => Ok(Some(msg)),
            Ok(Admit::Stale(reason)) => {
                self.drop_stale(host, msg.kind(), reason);
                Ok(None)
            }
            Err(violation) => {
                self.hosts[host].peer.charge(violation, &mut self.telemetry)?;
                Ok(None)
            }
        }
    }

    /// Sends `msg` to every host. Returns the payload bytes handed to the
    /// links.
    fn broadcast(&self, msg: &Msg) -> Result<u64, TrainError> {
        let payload = peer::encode(PartyId::Guest, msg)?;
        for host in &self.hosts {
            host.peer.send_encoded(msg.kind(), payload.clone());
        }
        Ok((payload.len() * self.hosts.len()) as u64)
    }

    /// Broadcasts a bulk protocol message, recording one transfer trace
    /// event with the payload bytes summed over all destination links.
    fn broadcast_traced(&mut self, msg: &Msg, tree: u32) -> Result<(), TrainError> {
        let bytes = self.broadcast(msg)?;
        self.telemetry.trace.transfer(Some(tree), bytes);
        Ok(())
    }

    /// Blocks in the one supervised wait ([`peer::wait`]) until a message
    /// from one of the `listen`ed hosts is admitted. The frames admission
    /// drops — honest stragglers, tolerated violations — do not restart
    /// `deadline`.
    fn wait_admitted(
        &mut self,
        listen: &[usize],
        deadline: &Deadline,
    ) -> Result<(usize, Msg), TrainError> {
        let dead_after = self.cfg.dead_after();
        loop {
            let peers: Vec<&Peer> = listen.iter().map(|&h| &self.hosts[h].peer).collect();
            let (i, env) = peer::wait(&peers, deadline, dead_after, &mut self.telemetry)?;
            if let Some(msg) = self.admit_from(listen[i], env)? {
                return Ok((listen[i], msg));
            }
        }
    }

    /// Blocks until a protocol message arrives from `host`, bounded by the
    /// per-phase deadline.
    fn recv_from(&mut self, host: usize, phase: ProtocolPhase) -> Result<Msg, TrainError> {
        let deadline = Deadline::new(phase, self.cfg.peer_timeout);
        Ok(self.wait_admitted(&[host], &deadline)?.1)
    }

    /// Blocks until any host's message arrives, bounded by the per-phase
    /// peer deadline. One wakeup-based wait covers every link.
    fn recv_any(&mut self) -> Result<(usize, Msg), TrainError> {
        let every: Vec<usize> = (0..self.hosts.len()).collect();
        let deadline = Deadline::new(ProtocolPhase::TreeBuild, self.cfg.peer_timeout);
        self.wait_admitted(&every, &deadline)
    }

    /// Non-blocking companion to [`Self::recv_any`] for the tree loop's
    /// drain: harvests one already-arrived protocol message from any host
    /// ([`peer::poll`]) without waiting. Returns `Ok(None)` when nothing is
    /// pending — or when a link died, which the next *blocking* wait will
    /// classify and report properly.
    fn try_recv_admitted(&mut self) -> Result<Option<(usize, Msg)>, TrainError> {
        loop {
            let peers: Vec<&Peer> = self.hosts.iter().map(|h| &h.peer).collect();
            let Some((host, env)) = peer::poll(&peers) else { return Ok(None) };
            if let Some(msg) = self.admit_from(host, env)? {
                return Ok(Some((host, msg)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-tree driver
    // ------------------------------------------------------------------

    fn train_tree(&mut self, tree: u32) -> Result<FedTree, TrainError> {
        // Previous-tree request bookkeeping is void from here on: any
        // host leftovers classify as stale by their tree index alone.
        for host in &mut self.hosts {
            host.fsm.begin_tree(tree);
        }
        let grads = self.cfg.gbdt.loss.grad_hess_all(&self.labels, &self.preds);
        let n = self.data.num_rows();
        let mut ctx = TreeCtx {
            tree,
            grads,
            rows: NodeRows::new_tree(n, self.cfg.gbdt.max_layers),
            epoch: vec![0; (1 << self.cfg.gbdt.max_layers) - 1],
            states: HashMap::new(),
            fed: FedTree::new(self.cfg.gbdt.max_layers),
            pending: 0,
        };

        self.send_gradients(&ctx)?;
        self.run_tree(&mut ctx)?;
        self.broadcast(&Msg::TreeDone { tree })?;
        if let Err(why) = ctx.fed.validate() {
            self.telemetry.trace.note(format!("tree {tree} is malformed: {why}"));
            return Err(guest_invariant("the finished tree failed its structural check"));
        }

        // Fold leaf weights into the training predictions (each row sits
        // in exactly one leaf, so the walk order does not matter).
        let lr = self.cfg.gbdt.learning_rate;
        for (node, decision) in ctx.fed.nodes.iter().enumerate() {
            if let FedNode::Leaf(w) = decision {
                for &r in ctx.rows.rows(node) {
                    self.preds[r as usize] += lr * w;
                }
            }
        }
        Ok(ctx.fed)
    }

    /// Encrypts and ships the gradient statistics — in one bulk message or
    /// in pipelined blaster batches (§4.1). On the paired path (§3.11) each
    /// instance's (g, h) pair rides in one ciphertext, halving the
    /// encryptions and the bytes on the wire; the plan is derived from
    /// shared knowledge, so hosts reconstruct it without any negotiation
    /// message.
    fn send_gradients(&mut self, ctx: &TreeCtx) -> Result<(), TrainError> {
        let n = ctx.grads.len();
        let batch = self.cfg.protocol.blaster_batch.unwrap_or(n).max(1);
        let g_vals: Vec<f64> = ctx.grads.iter().map(|p| p.g).collect();
        let h_vals: Vec<f64> = ctx.grads.iter().map(|p| p.h).collect();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch).min(n);
            let (g, h) = (&g_vals[start..end], &h_vals[start..end]);
            let seed = batch_seed(self.cfg.seed, ctx.tree, start);
            let (tree, start_row, last) = (ctx.tree, start as u32, end == n);
            let span = self.telemetry.enter(TracePhase::Encrypt, Some(ctx.tree), None);
            // Streams 0/1 (g, h) and 2 (pairs) are disjoint, so the two
            // paths never reuse each other's jitter or noise draws.
            let msg = self.pool.install(|| match &self.gh {
                Some(plan) => self
                    .suite
                    .encrypt_gh_batch(g, h, plan, split_seed(seed, 2))
                    .map(|gh| Msg::PackedGradBatch { tree, start_row, gh, last }),
                None => self.suite.encrypt_batch(g, split_seed(seed, 0)).and_then(|g| {
                    let h = self.suite.encrypt_batch(h, split_seed(seed, 1))?;
                    Ok(Msg::GradBatch { tree, start_row, g, h, last })
                }),
            });
            let msg = msg.map_err(TrainError::crypto("gradient encryption"))?;
            self.telemetry.exit(span);
            // Hand to the gateway immediately; encryption of the next batch
            // overlaps with the wire and with host-side accumulation.
            self.broadcast_traced(&msg, ctx.tree)?;
            start = end;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Node machinery
    // ------------------------------------------------------------------

    /// Materializes a node whose row list just became available, tasking
    /// the hosts with it when it is the one `asked`. Returns true if the
    /// node awaits validation (i.e. was not finalized a leaf).
    fn materialize(
        &mut self,
        ctx: &mut TreeCtx,
        node: NodeId,
        asked: NodeId,
    ) -> Result<bool, TrainError> {
        ctx.epoch[node] += 1;
        let last_layer = layer_of(node) + 1 == self.cfg.gbdt.max_layers;
        let rows: Vec<u32> = ctx.rows.rows(node).to_vec();
        let total = RowMajorBins::rows_total(&rows, &ctx.grads);

        if last_layer {
            self.finalize_leaf(ctx, node, total)?;
            return Ok(false);
        }

        // FindSplitB: plaintext histograms over the guest's own features.
        let span = self.telemetry.enter(TracePhase::PlainHist, Some(ctx.tree), Some(node as u32));
        let hists = self.csr.node_histograms(&rows, &ctx.grads);
        let guest_best = best_of(
            hists
                .iter()
                .enumerate()
                .filter_map(|(f, h)| find_best_split(f, h, total, &self.cfg.gbdt.split)),
        );
        self.telemetry.exit(span);

        if asked == node {
            self.broadcast(&Msg::NodeTask {
                tree: ctx.tree,
                node: node as u32,
                epoch: ctx.epoch[node],
            })?;
            // Every host now legitimately owes one histogram for this exact
            // (node, epoch); the admission layer holds them to it.
            for host in &mut self.hosts {
                host.fsm.task_sent(node as u32, ctx.epoch[node]);
            }
        }
        // Optimistic node-splitting: act on our own best split before the
        // hosts weigh in (§4.2). Speculation is bounded to ONE layer
        // beyond the validated frontier, as in the paper ("only after
        // FindSplitB of layer l+1 is done will Party B pause"): splitting
        // deeper would let a dirty node near the root waste a whole
        // subtree of host work. The flag is decided before the insert so
        // the state never needs to be re-fetched (and can never be
        // missing) afterwards.
        let speculate = self.cfg.protocol.optimistic
            && guest_best.is_some()
            && self.parent_validated(ctx, node);
        ctx.states.insert(
            node,
            NodeState {
                total,
                asked,
                guest_best,
                answers: vec![HostAnswer::Waiting; self.hosts.len()],
                already_split: speculate,
                awaiting_placement: None,
                resolved: false,
            },
        );
        ctx.pending += 1;

        if speculate {
            if let Some(best) = guest_best {
                self.apply_guest_split(ctx, node, best)?;
                self.telemetry.events.optimistic_splits += 1;
                self.materialize_children(ctx, node)?;
            }
        }
        Ok(true)
    }

    /// True when the node's parent decision has been validated (the root
    /// has no parent and counts as validated).
    fn parent_validated(&self, ctx: &TreeCtx, node: NodeId) -> bool {
        match parent(node) {
            None => true,
            Some(p) => ctx.fed.nodes[p] != FedNode::Absent,
        }
    }

    /// Once `node` is validated, children whose optimistic split was
    /// deferred by the one-layer speculation bound get split now.
    fn speculate_children(&mut self, ctx: &mut TreeCtx, node: NodeId) -> Result<(), TrainError> {
        if !self.cfg.protocol.optimistic {
            return Ok(());
        }
        for child in [left_child(node), right_child(node)] {
            // Flip the flag through get_mut so no second (fallible) lookup
            // is needed after apply_guest_split borrows `ctx` mutably.
            let best = match ctx.states.get_mut(&child) {
                Some(st)
                    if !st.resolved && !st.already_split && st.awaiting_placement.is_none() =>
                {
                    let Some(best) = st.guest_best else { continue };
                    st.already_split = true;
                    best
                }
                _ => continue,
            };
            self.apply_guest_split(ctx, child, best)?;
            self.telemetry.events.optimistic_splits += 1;
            self.materialize_children(ctx, child)?;
        }
        Ok(())
    }

    /// Computes and applies a guest-owned split's placement, informing all
    /// hosts.
    fn apply_guest_split(
        &mut self,
        ctx: &mut TreeCtx,
        node: NodeId,
        best: SplitCandidate,
    ) -> Result<(), TrainError> {
        let span = self.telemetry.enter(TracePhase::Placement, Some(ctx.tree), Some(node as u32));
        let col = self.binned.column(best.feature);
        let placement: Vec<bool> =
            ctx.rows.rows(node).iter().map(|&r| col.bin_of_row(r as usize) <= best.bin).collect();
        ctx.rows.apply_placement(node, &placement);
        self.telemetry.exit(span);
        self.broadcast(&Msg::ApplyPlacement { tree: ctx.tree, node: node as u32, placement })?;
        Ok(())
    }

    /// Materializes both children of a freshly (re-)split node, tasking
    /// the hosts with the *smaller* one only — row counts from the shared
    /// placement, ties to the left; [`Self::derive_larger`] answers for the
    /// other. A host builds, packs and ships one child per split.
    fn materialize_children(&mut self, ctx: &mut TreeCtx, node: NodeId) -> Result<(), TrainError> {
        let (left, right) = (left_child(node), right_child(node));
        let asked =
            if ctx.rows.rows(left).len() <= ctx.rows.rows(right).len() { left } else { right };
        self.materialize(ctx, left, asked)?;
        self.materialize(ctx, right, asked)?;
        Ok(())
    }

    fn finalize_leaf(
        &mut self,
        ctx: &mut TreeCtx,
        node: NodeId,
        total: GradPair,
    ) -> Result<(), TrainError> {
        let w = self.cfg.gbdt.split.leaf_weight(total);
        ctx.fed.nodes[node] = FedNode::Leaf(w);
        self.telemetry.events.leaves += 1;
        self.broadcast(&Msg::NodeLeaf { tree: ctx.tree, node: node as u32 })?;
        Ok(())
    }

    /// Decodes one host's histogram payload into that host's best split
    /// for the node — the decrypt-and-search kernel of FindSplitA — and
    /// the decrypted histogram itself, which the node retains. Borrows
    /// `self` immutably so a batch of histograms from different parties
    /// can be searched concurrently on the rayon pool. Under the caller's
    /// `install` it fans out per feature; called from a pool chunk (one of
    /// several payloads being searched at once) it runs inline. Timing is
    /// charged by the caller, which knows the batch boundaries.
    fn host_best_split(
        &self,
        host: usize,
        payload: &HistPayload,
        total: GradPair,
        count: usize,
    ) -> Result<(Option<SplitCandidate>, HostHist), TrainError> {
        // The payload shape must match the host's announced metadata; a
        // mismatch is a protocol violation, not a crash.
        let mismatch = |context: &'static str| -> TrainError {
            ProtocolError::UnexpectedMessage { from: PartyId::Host(host), kind: 4, context }.into()
        };
        let metas = &self.hosts[host].metas;
        let features_sent = match payload {
            HistPayload::Raw(features) => features.len(),
            HistPayload::Packed(features) => features.len(),
            HistPayload::GhPacked(features) => features.len(),
        };
        if features_sent != metas.len() {
            return Err(mismatch("histogram payload feature count differs from FeatureMeta"));
        }
        let suite = &self.suite;
        // One closure per feature. FindSplitA amortizes over workers (the
        // paper's Table 5 notes the decryption cost "is also able to be
        // amortized among workers"). The wire formats differ only in how a
        // feature's bins are decrypted; the tail is shared.
        let per_feature = |(f, &meta): (usize, &FeatureMeta)| {
            let bins = match payload {
                HistPayload::Raw(features) => decrypt_feature_hist(suite, &features[f])
                    .map_err(TrainError::crypto("histogram decryption"))?,
                HistPayload::Packed(features) => {
                    let loss = &self.cfg.gbdt.loss;
                    let (gb, hb) = (loss.grad_bound(), loss.hess_bound());
                    unpack_feature_hist(suite, &features[f], count, gb, hb)
                        .map(DecodedBins::Float)
                        .map_err(TrainError::crypto("histogram unpacking"))?
                }
                HistPayload::GhPacked(features) => {
                    // Admission refuses a paired payload on a two-stream run.
                    let plan = self
                        .gh
                        .as_ref()
                        .ok_or_else(|| guest_invariant("gh payload without a gh plan"))?;
                    unpack_gh_feature_hist(suite, &features[f], plan)
                        .map_err(TrainError::crypto("gh histogram unpacking"))?
                }
            };
            if bins.num_bins() != meta.num_bins as usize {
                return Err(mismatch("histogram bin count differs from FeatureMeta"));
            }
            let best = self.feature_best(f, meta, &bins, total);
            Ok((best, bins))
        };
        use rayon::prelude::*;
        let searched: Result<Vec<(Option<SplitCandidate>, DecodedBins)>, TrainError> =
            metas.par_iter().enumerate().map(per_feature).collect();
        let (candidates, hist): (Vec<_>, HostHist) = searched?.into_iter().unzip();
        Ok((best_of(candidates.into_iter().flatten()), hist))
    }

    /// The tail of every host histogram, received or derived: float
    /// decode, zero mass against the node's own `total`, split search.
    fn feature_best(
        &self,
        feature: usize,
        meta: FeatureMeta,
        bins: &DecodedBins,
        total: GradPair,
    ) -> Option<SplitCandidate> {
        // The handshake admitted `zero_bin < num_bins` and the decode
        // checked the bin count, so the histogram exists.
        let hist = bins.to_histogram(self.suite.encoding(), meta.zero_bin, total)?;
        find_best_split(feature, &hist, total, &self.cfg.gbdt.split)
    }

    /// Derives host `host`'s histogram of `parent`'s larger child as
    /// `parent − smaller child` on the decrypted integers, once that host's
    /// histograms of both are in, and returns the child it answered for.
    /// Children not (or no longer) standing, a histogram still missing, the
    /// derivation already made: `None`. Paillier sums are integer-exact, so
    /// the difference is the number the host's own `parent ⊖ smaller` would
    /// have decrypted to. A smaller child no split of the parent produces
    /// is that host's violation: charged, the derivation withheld.
    fn derive_larger(
        &mut self,
        ctx: &mut TreeCtx,
        host: usize,
        parent: NodeId,
    ) -> Result<Option<NodeId>, TrainError> {
        let (left, right) = (left_child(parent), right_child(parent));
        let Some(smaller) = ctx.states.get(&left).map(|s| s.asked) else { return Ok(None) };
        let larger = if smaller == left { right } else { left };
        let hist_of = |node: NodeId| ctx.states.get(&node).and_then(|s| s.hist(host));
        let (Some(whole), Some(part), Some(state)) =
            (hist_of(parent), hist_of(smaller), ctx.states.get(&larger))
        else {
            return Ok(None);
        };
        if state.answers[host] != HostAnswer::Waiting {
            return Ok(None);
        }
        let total = state.total;
        let span =
            self.telemetry.enter(TracePhase::DecryptSplit, Some(ctx.tree), Some(larger as u32));
        // The largest honest `(|Σg|, Σh)` of a bin: the pair plan's bounds at
        // the child's row count, or the raw wire's safe range (floats: none).
        let (g_limit, h_limit) = match (&self.gh, self.suite.public_key()) {
            (Some(plan), _) => plan.field_limits(ctx.rows.rows(larger).len() as u64),
            (None, Some(pk)) => (pk.max_int().clone(), pk.max_int().clone()),
            (None, None) => Default::default(),
        };
        let derived: Option<HostHist> = whole
            .iter()
            .zip(part)
            .map(|(w, p)| w.checked_sub(p, self.suite.encoding(), (&g_limit, &h_limit)))
            .collect();
        let Some(hist) = derived else {
            self.telemetry.exit(span);
            let context = "a child histogram that no split of its parent's produces";
            let lie = ProtocolError::Inadmissible { from: PartyId::Host(host), kind: 4, context };
            self.hosts[host].peer.charge(lie, &mut self.telemetry)?;
            return Ok(None);
        };
        let metas = self.hosts[host].metas.iter().zip(&hist).enumerate();
        let best =
            best_of(metas.filter_map(|(f, (&meta, bins))| self.feature_best(f, meta, bins, total)));
        self.telemetry.exit(span);
        let Some(state) = ctx.states.get_mut(&larger) else {
            return Err(guest_invariant("node state vanished while deriving its histogram"));
        };
        state.answers[host] = HostAnswer::Answered { best, hist };
        self.telemetry.events.hists_derived += 1;
        Ok(Some(larger))
    }

    /// Picks the winner among the guest's and all hosts' candidates.
    fn winner(state: &NodeState) -> Winner {
        let mut win = match state.guest_best {
            Some(c) => Winner::Guest(c),
            None => Winner::None,
        };
        for (h, answer) in state.answers.iter().enumerate() {
            if let HostAnswer::Answered { best: Some(c), .. } = answer {
                let beats = match win {
                    Winner::None => true,
                    Winner::Guest(g) => c.gain > g.gain,
                    Winner::Host(_, g) => c.gain > g.gain,
                };
                if beats {
                    win = Winner::Host(h, *c);
                }
            }
        }
        win
    }

    /// Resolves a node once every host's histograms have been seen.
    fn resolve(&mut self, ctx: &mut TreeCtx, node: NodeId) -> Result<(), TrainError> {
        let Some(state) = ctx.states.get(&node) else {
            return Err(guest_invariant("resolving a node with no state"));
        };
        if !state.all_in() {
            return Err(guest_invariant("resolving a node before every host answered"));
        }
        match Self::winner(state) {
            Winner::None => {
                // No split anywhere: the tentative leaf becomes real.
                let total = state.total;
                if state.already_split {
                    return Err(guest_invariant("a node without a guest candidate was split"));
                }
                self.finalize_leaf(ctx, node, total)?;
                let Some(state) = ctx.states.get_mut(&node) else {
                    return Err(guest_invariant("node state vanished while finalizing a leaf"));
                };
                state.resolved = true;
                ctx.pending -= 1;
            }
            Winner::Guest(best) => {
                let was_split = state.already_split;
                let col = self.binned.column(best.feature);
                ctx.fed.nodes[node] = FedNode::GuestSplit(NodeSplit {
                    feature: best.feature,
                    bin: best.bin,
                    threshold: col.threshold(best.bin),
                });
                self.telemetry.events.splits_won += 1;
                let Some(state) = ctx.states.get_mut(&node) else {
                    return Err(guest_invariant("node state vanished while recording a split"));
                };
                state.resolved = true;
                ctx.pending -= 1;
                if !was_split {
                    // Sequential mode, or an optimistic node whose own
                    // speculation was deferred by the one-layer bound.
                    self.apply_guest_split(ctx, node, best)?;
                    self.materialize_children(ctx, node)?;
                } else {
                    // Optimistic + already split: validation succeeded; the
                    // children whose speculation waited on this validation
                    // may now charge ahead one more layer.
                    self.speculate_children(ctx, node)?;
                }
            }
            Winner::Host(h, best) => {
                if state.already_split {
                    // Dirty node: our optimistic guest split loses to host
                    // `h`. Roll the subtree back (§4.2, Fig. 6).
                    self.telemetry.events.dirty_nodes += 1;
                    self.telemetry.trace.dirty_rollback(ctx.tree, node as u32);
                    self.rollback_descendants(ctx, node);
                    ctx.fed.nodes[node] = FedNode::Absent;
                }
                self.hosts[h].peer.send(&Msg::HostSplitChosen {
                    tree: ctx.tree,
                    node: node as u32,
                    feature: best.feature as u32,
                    bin: best.bin,
                })?;
                // Host `h` now owes exactly one placement for this node.
                self.hosts[h].fsm.expect_placement(node as u32);
                let Some(state) = ctx.states.get_mut(&node) else {
                    return Err(guest_invariant("node state vanished while awaiting placement"));
                };
                state.already_split = false;
                state.awaiting_placement = Some(h);
            }
        }
        Ok(())
    }

    /// Discards every strict descendant's state, decision, and rows;
    /// bumps their epochs so in-flight histograms get dropped.
    fn rollback_descendants(&mut self, ctx: &mut TreeCtx, node: NodeId) {
        let mut stack = vec![left_child(node), right_child(node)];
        while let Some(d) = stack.pop() {
            if d >= ctx.epoch.len() {
                continue;
            }
            ctx.epoch[d] += 1;
            if let Some(s) = ctx.states.remove(&d) {
                if !s.resolved {
                    ctx.pending -= 1;
                }
            }
            ctx.fed.nodes[d] = FedNode::Absent;
            stack.push(left_child(d));
            stack.push(right_child(d));
        }
        ctx.rows.clear_descendants(node);
    }

    fn on_placement(
        &mut self,
        ctx: &mut TreeCtx,
        host: usize,
        node: NodeId,
        placement: Vec<bool>,
    ) -> Result<(), TrainError> {
        if ctx.states.get(&node).is_none_or(|s| s.awaiting_placement != Some(host)) {
            // The node was rolled back (or re-awarded) while the host's
            // answer was in flight: an honest straggler, not misbehavior.
            self.drop_stale(host, 7, "placement for a node rolled back meanwhile");
            return Ok(());
        }
        let Some(state) = ctx.states.get_mut(&node) else {
            return Err(guest_invariant("placement state vanished after the staleness check"));
        };
        if placement.len() != ctx.rows.rows(node).len() {
            return Err(ProtocolError::UnexpectedMessage {
                from: PartyId::Host(host),
                kind: 7,
                context: "placement length differs from the node's row count",
            }
            .into());
        }
        state.awaiting_placement = None;
        state.resolved = true;
        ctx.pending -= 1;
        ctx.fed.nodes[node] = FedNode::HostSplit { party: host as u16 };

        let span = self.telemetry.enter(TracePhase::Placement, Some(ctx.tree), Some(node as u32));
        ctx.rows.apply_placement(node, &placement);
        self.telemetry.exit(span);
        // Relay to the other hosts so their row lists stay aligned.
        let relay = Msg::ApplyPlacement { tree: ctx.tree, node: node as u32, placement };
        for other in (0..self.hosts.len()).filter(|&other| other != host) {
            self.hosts[other].peer.send(&relay)?;
        }
        self.materialize_children(ctx, node)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // The tree loop
    // ------------------------------------------------------------------

    /// True while `(node, epoch)` still names a live, unanswered slot for
    /// `host`. Checked when a histogram is enqueued, again when its batch
    /// commits, and once more before its result is recorded — a rollback
    /// or placement admitted between any two of those points retires the
    /// answer as stale instead of letting it corrupt the frontier.
    fn hist_is_fresh(ctx: &TreeCtx, host: usize, node: NodeId, epoch: u32) -> bool {
        ctx.epoch.get(node).copied() == Some(epoch)
            && ctx
                .states
                .get(&node)
                .is_some_and(|s| s.answers[host] == HostAnswer::Waiting && !s.resolved)
    }

    /// The one tree driver, an event loop over the guest's unified inbound
    /// queue: one blocking wait per round, then a sleep-free drain of
    /// everything already queued. Placements apply on arrival; admitted
    /// histograms join a batch whose decrypt is deferred so party A's
    /// FindSplitA overlaps party B's transfer and HAdd. Two rules decide
    /// when the batch closes, both derived from state the loop already
    /// holds:
    ///
    /// * **Optimistic** (§4.2): the drain stops at one answer per host. A
    ///   node resolves only once every host has answered, so that is one
    ///   node's worth of answers — a larger batch could not
    ///   resolve anything sooner and only delays the first resolve (with a
    ///   single host the loop handles one event at a time).
    /// * **Sequential** (the VF-GBDT baseline, "BuildHistA fully precedes
    ///   FindSplitA"): answers accumulate across rounds and commit only
    ///   once [`Self::layer_is_buffered`] — one batch per layer.
    ///
    /// Determinism: the model depends only on per-node `(guest_best,
    /// answers[*].best)` sets and `winner`'s index-ordered comparison, never
    /// on arrival order, so neither batching nor any interleaving the WAN
    /// produces can move a split.
    fn run_tree(&mut self, ctx: &mut TreeCtx) -> Result<(), TrainError> {
        let optimistic = self.cfg.protocol.optimistic;
        let cap = if optimistic { self.hosts.len() } else { usize::MAX };
        let mut batch: Vec<PendingHist> = Vec::new();
        self.materialize(ctx, 0, 0)?;
        while ctx.pending > 0 {
            // Block for the first event of the round; every further event
            // is taken only if it is already queued (zero-timeout poll of
            // the same unified queue), so the drain never sleeps while
            // decryptable work is waiting.
            let mut next = Some(self.recv_any()?);
            while let Some((host, msg)) = next.take() {
                match msg {
                    Msg::NodeHistograms { tree, node, epoch, payload } if tree == ctx.tree => {
                        let node = node as usize;
                        if Self::hist_is_fresh(ctx, host, node, epoch) {
                            batch.push(PendingHist { host, node, epoch, payload });
                        } else {
                            self.telemetry.events.stale_histograms += 1;
                        }
                    }
                    Msg::Placement { tree, node, placement } if tree == ctx.tree => {
                        self.on_placement(ctx, host, node as usize, placement)?;
                    }
                    // A different tree index on an otherwise-valid reply is
                    // a straggler from a finished tree: stale, not fatal.
                    // (The admission layer already filters these; this arm
                    // is the dispatch-level backstop.)
                    ref other @ (Msg::NodeHistograms { .. } | Msg::Placement { .. }) => {
                        let kind = other.kind();
                        self.drop_stale(host, kind, "cross-tree straggler in the tree loop");
                    }
                    other => {
                        return Err(ProtocolError::UnexpectedMessage {
                            from: PartyId::Host(host),
                            kind: other.kind(),
                            context: "tree loop",
                        }
                        .into())
                    }
                }
                if batch.len() >= cap {
                    break;
                }
                next = self.try_recv_admitted()?;
            }
            if optimistic || Self::layer_is_buffered(ctx, &batch) {
                self.commit_hist_batch(ctx, std::mem::take(&mut batch))?;
            }
        }
        Ok(())
    }

    /// The sequential schedule's hold predicate: true once the whole
    /// frontier can be decided at once — no host-won node still awaits its
    /// placement (so every node of the layer exists) and every unresolved
    /// node has each host's answer recorded or waiting in `batch`
    /// (for a split's larger child, that is its smaller sibling's answer).
    fn layer_is_buffered(ctx: &TreeCtx, batch: &[PendingHist]) -> bool {
        ctx.states.values().filter(|s| !s.resolved).all(|s| {
            s.awaiting_placement.is_none()
                && s.answers.iter().enumerate().all(|(host, answer)| {
                    *answer != HostAnswer::Waiting
                        || batch.iter().any(|p| p.host == host && p.node == s.asked)
                })
        })
    }

    /// Decrypts and commits one drained batch of histogram answers.
    /// Commit order is `(node, host)` — ascending node ids put ancestors
    /// before descendants, so a rollback caused by committing a parent
    /// retires the children still in this batch via the freshness
    /// re-check; host index breaks ties exactly like [`Self::winner`].
    /// The decrypt itself fans out across the rayon pool: across payloads
    /// when the batch has several, across features inside the single
    /// payload otherwise (a one-item parallel call runs inline, leaving
    /// the pool to the nested per-feature call).
    fn commit_hist_batch(
        &mut self,
        ctx: &mut TreeCtx,
        mut batch: Vec<PendingHist>,
    ) -> Result<(), TrainError> {
        if batch.is_empty() {
            return Ok(());
        }
        batch.sort_by_key(|p| (p.node, p.host));
        // Placements admitted later in the same drain may have rolled
        // nodes back after these answers were enqueued.
        let before = batch.len();
        batch.retain(|p| Self::hist_is_fresh(ctx, p.host, p.node, p.epoch));
        self.telemetry.events.stale_histograms += (before - batch.len()) as u64;
        if batch.is_empty() {
            return Ok(());
        }
        if batch.len() > 1 {
            self.telemetry.trace.sched_batch(ctx.tree, batch.len() as u64);
        }
        self.telemetry.events.sched_batches += 1;
        self.telemetry.events.sched_batch_hists += batch.len() as u64;
        let jobs: Vec<(&PendingHist, GradPair, usize)> = batch
            .iter()
            .map(|p| {
                let total = ctx.states[&p.node].total;
                (p, total, ctx.rows.rows(p.node).len())
            })
            .collect();
        // One span per batch: its answers are decrypted in one pool pass, so
        // they share the interval (the `SchedBatch` event above says how
        // many a multi-answer span covers).
        let only = (batch.len() == 1).then(|| batch[0].node as u32);
        let span = self.telemetry.enter(TracePhase::DecryptSplit, Some(ctx.tree), only);
        type Decoded = Result<(Option<SplitCandidate>, HostHist), TrainError>;
        let results: Vec<Decoded> = {
            use rayon::prelude::*;
            self.pool.install(|| {
                jobs.par_iter()
                    .map(|&(p, total, count)| {
                        self.host_best_split(p.host, &p.payload, total, count)
                    })
                    .collect()
            })
        };
        self.telemetry.exit(span);
        drop(jobs);
        for (p, decoded) in batch.iter().zip(results) {
            let (best, hist) = decoded?;
            if !Self::hist_is_fresh(ctx, p.host, p.node, p.epoch) {
                self.telemetry.events.stale_histograms += 1;
                continue;
            }
            let Some(state) = ctx.states.get_mut(&p.node) else {
                return Err(guest_invariant("node state vanished while committing a batch"));
            };
            state.answers[p.host] = HostAnswer::Answered { best, hist };
            // A histogram that just came in — received, or derived in turn —
            // can complete a derivation as the smaller child of its parent
            // and as the parent of a child this host answered first (a
            // re-issued task keeps its place in the host's queue).
            let mut answered = vec![p.node];
            let mut splits: Vec<NodeId> = parent(p.node).into_iter().chain([p.node]).collect();
            while let Some(split) = splits.pop() {
                if let Some(derived) = self.derive_larger(ctx, p.host, split)? {
                    answered.push(derived);
                    splits.push(derived);
                }
            }
            // Parent before child: a node resolved dirty takes its children
            // with it, and they are skipped here.
            for node in answered {
                if ctx.states.get(&node).is_some_and(NodeState::all_in) {
                    self.resolve(ctx, node)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_channel::{duplex, WanConfig};
    use vf2_crypto::suite::{Ciphertext, PlainNumber};
    use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};

    use crate::config::CryptoConfig;
    use crate::messages::RawFeatureHist;
    use crate::protocol::ProtocolConfig;

    /// A mock-suite guest over 64 labelled rows facing one host that owns a
    /// single 4-bin feature, on the raw wire, with the host end of the link
    /// (kept open; the tasks the guest issued can be read off it).
    fn guest_with_one_host() -> (GuestParty, Endpoint) {
        let data = Arc::new(generate_classification(&SyntheticConfig {
            rows: 64,
            features: 3,
            density: 1.0,
            informative_frac: 1.0,
            label_noise: 0.1,
            seed: 5,
        }));
        let cfg = TrainConfig {
            crypto: CryptoConfig::Mock,
            protocol: ProtocolConfig { pack_histograms: false, ..ProtocolConfig::vf2boost() },
            ..TrainConfig::for_tests()
        };
        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let suite = Suite::plain(cfg.encoding);
        let mut guest = GuestParty::new(data, cfg, suite, vec![guest_ep], None).unwrap();
        guest.hosts[0].metas = vec![FeatureMeta { num_bins: 4, zero_bin: 0 }];
        (guest, host_ep)
    }

    /// With no host, no node could ever resolve: the guest refuses to
    /// start instead of waiting on an empty roster.
    #[test]
    fn a_guest_without_hosts_is_invalid_input() {
        let (guest, _) = guest_with_one_host();
        let suite = Suite::plain(guest.cfg.encoding);
        let failure = run_guest(guest.data.clone(), guest.cfg, suite, Vec::new(), None);
        assert!(matches!(failure.err().map(|f| f.error), Some(TrainError::InvalidInput(_))));
    }

    /// Commits the host's answer for `node` at its current epoch, holding
    /// `bins`, as a batch of one.
    fn commit(guest: &mut GuestParty, ctx: &mut TreeCtx, node: NodeId, bins: [GradPair; 4]) {
        let exponent = guest.cfg.encoding.base_exp;
        let cipher = |value| Ciphertext::Plain(PlainNumber { value, exponent });
        let feature = RawFeatureHist {
            g: bins.iter().map(|b| cipher(b.g)).collect(),
            h: bins.iter().map(|b| cipher(b.h)).collect(),
        };
        let payload = HistPayload::Raw(vec![feature]);
        let answer = PendingHist { host: 0, node, epoch: ctx.epoch[node], payload };
        guest.commit_hist_batch(ctx, vec![answer]).unwrap();
    }

    /// Every stored row in the last bin: whatever the split, one side is
    /// empty, so the host offers no candidate and the guest's own stands.
    fn uninformative(total: GradPair) -> [GradPair; 4] {
        [GradPair::ZERO, GradPair::ZERO, GradPair::ZERO, total]
    }

    /// The tasks the guest has issued so far: the link is FIFO, so all of
    /// them precede the marker sent here.
    fn node_tasks(guest: &GuestParty, host_ep: &Endpoint) -> Vec<u32> {
        guest.broadcast(&Msg::Shutdown).unwrap();
        let mut tasked = Vec::new();
        loop {
            let env = host_ep.recv().expect("the guest end stays open");
            match wire::decode(env.kind, env.payload) {
                Ok(Msg::Shutdown) => return tasked,
                Ok(Msg::NodeTask { node, .. }) => tasked.push(node),
                _ => {}
            }
        }
    }

    /// The guest-side twin of a host replacing a node's rows: a rollback
    /// takes every histogram retained below the re-split node with it, and
    /// the new children are answered from the new smaller child's answer
    /// alone. Driven on the hardest interleaving — the host answers a child
    /// before its parent (a re-issued task keeps its place in the host's
    /// queue), so a whole subtree is derived and resolved under a root that
    /// then turns out dirty.
    #[test]
    fn a_resplit_forgets_the_retained_histograms_below_it_and_derives_them_anew() {
        let (mut guest, host_ep) = guest_with_one_host();
        let mut ctx = TreeCtx {
            tree: 0,
            grads: guest.cfg.gbdt.loss.grad_hess_all(&guest.labels, &guest.preds),
            rows: NodeRows::new_tree(64, guest.cfg.gbdt.max_layers),
            epoch: vec![0; (1 << guest.cfg.gbdt.max_layers) - 1],
            states: HashMap::new(),
            fed: FedTree::new(guest.cfg.gbdt.max_layers),
            pending: 0,
        };
        guest.materialize(&mut ctx, 0, 0).unwrap();
        let total_of = |ctx: &TreeCtx, node: NodeId| ctx.states[&node].total;
        let derived_of = |ctx: &TreeCtx, node: NodeId| ctx.states[&node].hist(0).cloned();

        // The root speculated on the guest's own split: both children
        // stand, one of them asked for.
        let child = ctx.states[&1].asked;
        let other = if child == 1 { 2 } else { 1 };
        assert_eq!(ctx.states[&other].asked, child);
        assert!(ctx.rows.rows(child).len() <= ctx.rows.rows(other).len());

        // The child's answer first. It resolves on the guest's split and
        // its own children stand; its sibling waits for the root's answer.
        let bins = uninformative(total_of(&ctx, child));
        commit(&mut guest, &mut ctx, child, bins);
        assert!(ctx.states[&child].resolved);
        assert_eq!(ctx.states[&other].answers[0], HostAnswer::Waiting);
        let grandchild = ctx.states[&left_child(child)].asked;
        let derived = left_child(child) + right_child(child) - grandchild;

        // The grandchild's answer: its sibling is derived — and, with one
        // host, resolved — as `child − grandchild`, bin for bin.
        let part = uninformative(total_of(&ctx, grandchild));
        commit(&mut guest, &mut ctx, grandchild, part);
        assert_eq!(guest.telemetry.events.hists_derived, 1);
        assert!(ctx.states[&derived].resolved && ctx.states[&derived].all_in());
        let want = [GradPair::ZERO, GradPair::ZERO, GradPair::ZERO, bins[3] - part[3]];
        assert_eq!(derived_of(&ctx, derived), Some(vec![DecodedBins::Float(want.to_vec())]));

        // The root's answer last, with a split the guest's cannot beat. The
        // waiting sibling is derived at last, and then the root is dirty:
        // everything below it goes, retained histograms included.
        let total = total_of(&ctx, 0);
        let whole = [
            GradPair { g: -1000.0, h: 0.5 * total.h },
            GradPair { g: total.g + 1000.0, h: 0.5 * total.h },
            GradPair::ZERO,
            GradPair::ZERO,
        ];
        commit(&mut guest, &mut ctx, 0, whole);
        assert_eq!(guest.telemetry.events.hists_derived, 2);
        assert_eq!(guest.telemetry.events.dirty_nodes, 1);
        assert_eq!(ctx.states.keys().collect::<Vec<_>>(), [&0]);
        assert_eq!(ctx.states[&0].awaiting_placement, Some(0));
        assert_eq!(derived_of(&ctx, 0), Some(vec![DecodedBins::Float(whole.to_vec())]));

        // The host's placement re-splits the root 20 / 44: fresh children,
        // nothing retained, nothing answered, the smaller one asked for.
        let placement = (0..64).map(|row| row < 20).collect();
        guest.on_placement(&mut ctx, 0, 0, placement).unwrap();
        for node in [1, 2] {
            let state = &ctx.states[&node];
            assert_eq!((state.asked, &state.answers[0]), (1, &HostAnswer::Waiting));
        }
        // One task per split all along — the root's validated split lets
        // both new children speculate, one task each again.
        let asked: Vec<u32> = [0, child, grandchild, 1, ctx.states[&3].asked, ctx.states[&5].asked]
            .iter()
            .map(|&node| node as u32)
            .collect();
        assert_eq!(node_tasks(&guest, &host_ep), asked);

        // The new smaller child's answer rebuilds the larger one from the
        // root's histogram, which outlived the rollback.
        let part = uninformative(total_of(&ctx, 1));
        commit(&mut guest, &mut ctx, 1, part);
        assert_eq!(guest.telemetry.events.hists_derived, 3);
        assert!(ctx.states[&2].all_in());
        let want = [whole[0], whole[1], GradPair::ZERO, GradPair::ZERO - part[3]];
        assert_eq!(derived_of(&ctx, 2), Some(vec![DecodedBins::Float(want.to_vec())]));
    }

    /// No two rows of a run share an obfuscator stream. Were a per-row seed
    /// reused, two rows would be encrypted under the same `r` and a host
    /// could read `v₁ − v₂` off `c₁·c₂⁻¹ mod n²`. Every element seed the
    /// guest derives (`batch_seed` → `split_seed(.., stream)` → `+ i`) for
    /// three 1 250-row trees at the default batch, over the g, h and pair
    /// streams, is distinct.
    #[test]
    fn no_two_rows_of_a_run_share_an_element_seed() {
        let batch = ProtocolConfig::vf2boost().blaster_batch.expect("vf2boost batches");
        let rows = 1250usize;
        for seed in [0, 7, 42, u64::MAX] {
            let mut seen = std::collections::HashSet::new();
            for tree in 0..3u32 {
                for start in (0..rows).step_by(batch) {
                    let len = batch.min(rows - start);
                    for stream in 0..3 {
                        let base = split_seed(batch_seed(seed, tree, start), stream);
                        for i in 0..len as u64 {
                            assert!(
                                seen.insert(base.wrapping_add(i)),
                                "seed {seed}: tree {tree} row {} stream {stream} reuses a seed",
                                start as u64 + i
                            );
                        }
                    }
                }
            }
            assert_eq!(seen.len(), 3 * 3 * rows);
        }
    }
}
