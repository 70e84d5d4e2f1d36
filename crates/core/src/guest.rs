//! The guest party (the paper's *Party B*): label owner, private-key
//! holder, and protocol driver.
//!
//! This module is the shell around the tree's growth: the pure per-tree
//! core (`grow.rs`) decides which node the hosts are asked for, and which
//! is speculated, resolved, rolled back or placed, and what each host owes;
//! the shell admits, decrypts, searches, sends and times.
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

use std::sync::Arc;
use std::time::Instant;

use vf2_channel::{Endpoint, Envelope};
use vf2_crypto::split_seed;
use vf2_crypto::suite::Suite;
use vf2_gbdt::data::Dataset;
use vf2_gbdt::histogram::GradPair;
use vf2_gbdt::split::{best_of, find_best_split, SplitCandidate};
use vf2_gbdt::tree::NodeId;

use crate::config::TrainConfig;
use crate::error::{GuestFailure, PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::fsm::{Admit, GuestFsm};
use crate::grow::{Action, HostHist, Rules, TreeCore};
use crate::hist_enc::{
    decrypt_feature_hist, unpack_feature_hist, unpack_gh_feature_hist, DecodedBins,
};
use crate::messages::{FeatureMeta, HistPayload, Msg};
use crate::model::{FedNode, FedTree};
use crate::peer::{self, Deadline, Peer};
use crate::rows::{check_width, RowMajorBins};
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
    data: &Dataset,
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
    /// This host's handshake machine; its answers are the tree core's to
    /// admit.
    fsm: GuestFsm,
    /// The histogram structure its `FeatureMeta` announced.
    metas: Vec<FeatureMeta>,
    /// The durable checkpoints its `SessionHello` announced.
    durable: Vec<u32>,
}

struct GuestParty {
    cfg: TrainConfig,
    suite: Suite,
    /// The roster, indexed by host.
    hosts: Vec<HostLink>,
    /// The label vector, captured once at construction (presence is a
    /// constructor invariant — storing it removes every later
    /// `labels().expect(...)`).
    labels: Vec<f32>,
    /// What every tree's core shares; it holds the guest's binned features.
    rules: Arc<Rules>,
    pool: rayon::ThreadPool,
    preds: Vec<f64>,
    telemetry: PartyTelemetry,
    tree_records: Vec<TreeRecord>,
    started: Instant,
    session: Option<PartySession>,
}

impl GuestParty {
    fn new(
        data: &Dataset,
        cfg: TrainConfig,
        suite: Suite,
        endpoints: Vec<Endpoint>,
        session: Option<PartySession>,
    ) -> Result<GuestParty, TrainError> {
        cfg.validate().map_err(TrainError::InvalidConfig)?;
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
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.workers.max(1))
            .thread_name(|i| format!("guest-worker{i}"))
            .build()
            .map_err(|e| TrainError::Setup { party: PartyId::Guest, detail: e.to_string() })?;
        let n = data.num_rows();
        let rules = Arc::new(Rules {
            split: cfg.gbdt.split,
            max_layers: cfg.gbdt.max_layers,
            optimistic: cfg.protocol.optimistic,
            encoding: *suite.encoding(),
            gh: cfg.gh_plan(&suite, n).map_err(TrainError::crypto("gh plan derivation"))?,
            max_int: suite.public_key().map(|pk| pk.max_int().clone()).unwrap_or_default(),
            bins: RowMajorBins::bin(data, &cfg.gbdt.binning),
        });
        let link = |(h, endpoint)| HostLink {
            peer: Peer::new(endpoint, PartyId::Guest, PartyId::Host(h), cfg.misbehavior_budget),
            fsm: GuestFsm::new(h),
            metas: Vec::new(),
            durable: Vec::new(),
        };
        Ok(GuestParty {
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
            labels,
            rules,
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

        // Session handshake + feature metadata, host by host, each bounded
        // by the per-phase deadline.
        for h in 0..self.hosts.len() {
            loop {
                let deadline = Deadline::new(ProtocolPhase::Hello, self.cfg.peer_timeout);
                let (_, msg) = self.wait_admitted(&[h], &deadline, None)?;
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
    /// handshake machine, then — for a histogram or a placement — the
    /// tree's core, which knows what the host owes (`core` is `None` only
    /// during the handshake). `Ok(Some(msg))` delivers to the protocol
    /// driver; `Ok(None)` means the message was dropped — an honest
    /// straggler or a tolerated violation; an error means a frame that
    /// does not decode, or a host that exhausted its misbehavior budget.
    fn admit_from(
        &mut self,
        host: usize,
        env: Envelope,
        core: Option<&mut TreeCore>,
    ) -> Result<Option<Msg>, TrainError> {
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
            self.rules.gh.as_ref(),
        )
        .and_then(|()| link.fsm.admit(&msg))
        .and_then(|admit| match core {
            Some(core) if admit == Admit::Deliver => core.admit(host, &msg),
            _ => Ok(admit),
        });
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

    /// Blocks in the one supervised wait ([`peer::wait`]) until a message
    /// from one of the `listen`ed hosts is admitted. The frames admission
    /// drops — honest stragglers, tolerated violations — do not restart
    /// `deadline`.
    fn wait_admitted(
        &mut self,
        listen: &[usize],
        deadline: &Deadline,
        mut core: Option<&mut TreeCore>,
    ) -> Result<(usize, Msg), TrainError> {
        let dead_after = self.cfg.dead_after();
        loop {
            let peers: Vec<&Peer> = listen.iter().map(|&h| &self.hosts[h].peer).collect();
            let (i, env) = peer::wait(&peers, deadline, dead_after, &mut self.telemetry)?;
            if let Some(msg) = self.admit_from(listen[i], env, core.as_deref_mut())? {
                return Ok((listen[i], msg));
            }
        }
    }

    /// Non-blocking companion to [`Self::wait_admitted`] for the tree loop's
    /// drain: harvests one already-arrived protocol message from any host
    /// ([`peer::poll`]) without waiting. Returns `Ok(None)` when nothing is
    /// pending — or when a link died, which the next *blocking* wait will
    /// classify and report properly.
    fn try_recv_admitted(
        &mut self,
        core: &mut TreeCore,
    ) -> Result<Option<(usize, Msg)>, TrainError> {
        loop {
            let peers: Vec<&Peer> = self.hosts.iter().map(|h| &h.peer).collect();
            let Some((host, env)) = peer::poll(&peers) else { return Ok(None) };
            if let Some(msg) = self.admit_from(host, env, Some(core))? {
                return Ok(Some((host, msg)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-tree driver
    // ------------------------------------------------------------------

    fn train_tree(&mut self, tree: u32) -> Result<FedTree, TrainError> {
        let grads = self.cfg.gbdt.loss.grad_hess_all(&self.labels, &self.preds);
        let metas = self.hosts.iter().map(|h| h.metas.clone()).collect();
        let mut core = TreeCore::new(self.rules.clone(), metas, tree, grads);
        self.send_gradients(&core)?;
        self.run_tree(&mut core)?;
        self.broadcast(&Msg::TreeDone { tree })?;
        let (fed, rows) = core.finish();
        if let Err(why) = fed.validate() {
            self.telemetry.trace.note(format!("tree {tree} is malformed: {why}"));
            return Err(guest_invariant("the finished tree failed its structural check"));
        }

        // Fold leaf weights into the training predictions (each row sits
        // in exactly one leaf, so the walk order does not matter).
        let lr = self.cfg.gbdt.learning_rate;
        for (node, decision) in fed.nodes.iter().enumerate() {
            if let FedNode::Leaf(w) = decision {
                for &r in rows.rows(node) {
                    self.preds[r as usize] += lr * w;
                }
            }
        }
        Ok(fed)
    }

    /// Encrypts and ships the gradient statistics — in one bulk message or
    /// in pipelined blaster batches (§4.1). On the paired path (§3.11) each
    /// instance's (g, h) pair rides in one ciphertext, halving the
    /// encryptions and the bytes on the wire; the plan is derived from
    /// shared knowledge, so hosts reconstruct it without any negotiation
    /// message.
    fn send_gradients(&mut self, core: &TreeCore) -> Result<(), TrainError> {
        let (n, tree) = (core.grads().len(), core.tree());
        let batch = self.cfg.protocol.blaster_batch.unwrap_or(n).max(1);
        let mut start = 0usize;
        while start < n {
            let end = (start + batch).min(n);
            // One batch's statistics at a time, never the whole tree's.
            let pairs = &core.grads()[start..end];
            let g: Vec<f64> = pairs.iter().map(|p| p.g).collect();
            let h: Vec<f64> = pairs.iter().map(|p| p.h).collect();
            let seed = batch_seed(self.cfg.seed, tree, start);
            let (start_row, last) = (start as u32, end == n);
            let span = self.telemetry.enter(TracePhase::Encrypt, Some(tree), None);
            // Streams 0/1 (g, h) and 2 (pairs) are disjoint, so the two
            // paths never reuse each other's jitter or noise draws.
            let msg = self.pool.install(|| match &self.rules.gh {
                Some(plan) => self
                    .suite
                    .encrypt_gh_batch(&g, &h, plan, split_seed(seed, 2))
                    .map(|gh| Msg::PackedGradBatch { tree, start_row, gh, last }),
                None => self.suite.encrypt_batch(&g, split_seed(seed, 0)).and_then(|g| {
                    let h = self.suite.encrypt_batch(&h, split_seed(seed, 1))?;
                    Ok(Msg::GradBatch { tree, start_row, g, h, last })
                }),
            });
            let msg = msg.map_err(TrainError::crypto("gradient encryption"))?;
            self.telemetry.exit(span);
            // Hand to the gateway immediately; encryption of the next batch
            // overlaps with the wire and with host-side accumulation. One
            // transfer trace event carries the bytes summed over the links.
            let bytes = self.broadcast(&msg)?;
            self.telemetry.trace.transfer(Some(tree), bytes);
            start = end;
        }
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
                        .rules
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
            let best = self.rules.feature_best(f, meta, &bins, total);
            Ok((best, bins))
        };
        use rayon::prelude::*;
        let searched: Result<Vec<(Option<SplitCandidate>, DecodedBins)>, TrainError> =
            metas.par_iter().enumerate().map(per_feature).collect();
        let (candidates, hist): (Vec<_>, HostHist) = searched?.into_iter().unzip();
        Ok((best_of(candidates.into_iter().flatten()), hist))
    }

    // ------------------------------------------------------------------
    // The tree loop: the shell around the core
    // ------------------------------------------------------------------

    /// The one tree driver, an event loop over the guest's unified inbound
    /// queue: one blocking wait per round, then a sleep-free drain of
    /// everything already queued. Placements go to the core on arrival;
    /// admitted histograms join a batch whose decrypt is deferred so party
    /// A's FindSplitA overlaps party B's transfer and HAdd. Two rules
    /// decide when the batch closes, both derived from state the loop
    /// already holds:
    ///
    /// * **Optimistic** (§4.2): the drain stops at one answer per host. A
    ///   node resolves only once every host has answered, so that is one
    ///   node's worth of answers — a larger batch could not
    ///   resolve anything sooner and only delays the first resolve (with a
    ///   single host the loop handles one event at a time).
    /// * **Sequential** (the VF-GBDT baseline, "BuildHistA fully precedes
    ///   FindSplitA"): answers accumulate across rounds and commit only
    ///   once [`TreeCore::layer_is_buffered`] — one batch per layer.
    ///
    /// Determinism: the model depends only on each node's guest candidate
    /// and hosts' best splits and the core's index-ordered comparison,
    /// never on arrival order, so neither batching nor any interleaving the
    /// WAN produces can move a split.
    fn run_tree(&mut self, core: &mut TreeCore) -> Result<(), TrainError> {
        let (optimistic, tree) = (self.cfg.protocol.optimistic, core.tree());
        let cap = if optimistic { self.hosts.len() } else { usize::MAX };
        let every: Vec<usize> = (0..self.hosts.len()).collect();
        let mut batch: Vec<PendingHist> = Vec::new();
        self.drain(core)?;
        while !core.is_complete() {
            // Block for the first event of the round; every further event
            // is taken only if it is already queued (zero-timeout poll of
            // the same unified queue), so the drain never sleeps while
            // decryptable work is waiting. One wakeup-based wait covers
            // every link, bounded by the per-phase peer deadline. Admission
            // delivers only this tree's histograms and placements.
            let deadline = Deadline::new(ProtocolPhase::TreeBuild, self.cfg.peer_timeout);
            let mut next = Some(self.wait_admitted(&every, &deadline, Some(core))?);
            while let Some((host, msg)) = next.take() {
                match msg {
                    Msg::NodeHistograms { node, epoch, payload, .. } => {
                        let node = node as NodeId;
                        if core.awaits(host, node, epoch).is_some() {
                            batch.push(PendingHist { host, node, epoch, payload });
                        } else {
                            self.telemetry.events.stale_histograms += 1;
                        }
                    }
                    Msg::Placement { node, placement, .. } => {
                        let span =
                            self.telemetry.enter(TracePhase::Placement, Some(tree), Some(node));
                        let placed = core.on_placement(host, node as NodeId, placement);
                        self.telemetry.exit(span);
                        placed?;
                        self.drain(core)?;
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
                next = self.try_recv_admitted(core)?;
            }
            let queued = |host, node| batch.iter().any(|p| p.host == host && p.node == node);
            if optimistic || core.layer_is_buffered(queued) {
                self.commit_hist_batch(core, std::mem::take(&mut batch))?;
            }
        }
        Ok(())
    }

    /// Decrypts one drained batch of histogram answers and hands them to
    /// the core. Commit order is `(node, host)` — ascending node ids put
    /// ancestors before descendants, so a rollback caused by committing a
    /// parent retires the children still in this batch (the core finds
    /// them stale); host index breaks ties like the core's winner. The
    /// decrypt itself fans out across the rayon pool: across payloads when
    /// the batch has several, across features inside the single payload
    /// otherwise (a one-item parallel call runs inline, leaving the pool to
    /// the nested per-feature call).
    fn commit_hist_batch(
        &mut self,
        core: &mut TreeCore,
        mut batch: Vec<PendingHist>,
    ) -> Result<(), TrainError> {
        batch.sort_by_key(|p| (p.node, p.host));
        // Placements admitted later in the same drain may have rolled
        // nodes back after these answers were enqueued.
        let before = batch.len();
        let jobs: Vec<(GradPair, PendingHist)> = batch
            .into_iter()
            .filter_map(|p| core.awaits(p.host, p.node, p.epoch).map(|total| (total, p)))
            .collect();
        self.telemetry.events.stale_histograms += (before - jobs.len()) as u64;
        if jobs.is_empty() {
            return Ok(());
        }
        let tree = core.tree();
        if jobs.len() > 1 {
            self.telemetry.trace.sched_batch(tree, jobs.len() as u64);
        }
        self.telemetry.events.sched_batches += 1;
        self.telemetry.events.sched_batch_hists += jobs.len() as u64;
        // One span per batch: its answers are decrypted in one pool pass, so
        // they share the interval (the `SchedBatch` event above says how
        // many a multi-answer span covers).
        let only = (jobs.len() == 1).then(|| jobs[0].1.node as u32);
        let span = self.telemetry.enter(TracePhase::DecryptSplit, Some(tree), only);
        type Decoded = Result<(Option<SplitCandidate>, HostHist), TrainError>;
        let results: Vec<Decoded> = {
            use rayon::prelude::*;
            let rows = |node| core.rows(node).len();
            self.pool.install(|| {
                jobs.par_iter()
                    .map(|(total, p)| {
                        self.host_best_split(p.host, &p.payload, *total, rows(p.node))
                    })
                    .collect()
            })
        };
        self.telemetry.exit(span);
        for ((_, p), decoded) in jobs.into_iter().zip(results) {
            let (best, hist) = decoded?;
            let span =
                self.telemetry.enter(TracePhase::DecryptSplit, Some(tree), Some(p.node as u32));
            core.on_answer(p.host, p.node, p.epoch, best, hist);
            self.telemetry.exit(span);
            self.drain(core)?;
        }
        Ok(())
    }

    /// Carries out the core's actions until it has none left: each becomes
    /// its sends and counters, and the FindSplitB or split the core asks for
    /// runs — and is timed — here, and is handed back before the next.
    fn drain(&mut self, core: &mut TreeCore) -> Result<(), TrainError> {
        let tree = core.tree();
        while let Some(action) = core.next() {
            let events = &mut self.telemetry.events;
            match action {
                Action::Search(search) => {
                    // FindSplitB: plaintext histograms over the guest's own
                    // features.
                    let node = Some(search.node as u32);
                    let span = self.telemetry.enter(TracePhase::PlainHist, Some(tree), node);
                    let rows = core.rows(search.node);
                    let hists = self.rules.bins.node_histograms(rows, core.grads());
                    let split = |(f, h)| find_best_split(f, h, search.total, &self.cfg.gbdt.split);
                    let best = best_of(hists.iter().enumerate().filter_map(split));
                    self.telemetry.exit(span);
                    core.on_guest_best(search, best);
                }
                Action::Task { node, epoch } => {
                    self.broadcast(&Msg::NodeTask { tree, node: node as u32, epoch })?;
                }
                Action::Leaf => events.leaves += 1,
                Action::Split { node, split, speculative } => {
                    events.optimistic_splits += u64::from(speculative);
                    let span =
                        self.telemetry.enter(TracePhase::Placement, Some(tree), Some(node as u32));
                    let placement = core.split(node, split);
                    self.telemetry.exit(span);
                    self.broadcast(&Msg::ApplyPlacement { tree, node: node as u32, placement })?;
                }
                Action::GuestWon => events.splits_won += 1,
                Action::HostChosen { host, node, split } => {
                    let (feature, bin) = (split.feature as u32, split.bin);
                    let chosen = Msg::HostSplitChosen { tree, node: node as u32, feature, bin };
                    self.hosts[host].peer.send(&chosen)?;
                }
                Action::Relay { host, node, placement } => {
                    let relay = Msg::ApplyPlacement { tree, node: node as u32, placement };
                    for (_, other) in self.hosts.iter().enumerate().filter(|&(h, _)| h != host) {
                        other.peer.send(&relay)?;
                    }
                }
                Action::Rollback { node } => {
                    events.dirty_nodes += 1;
                    self.telemetry.trace.dirty_rollback(tree, node as u32);
                }
                Action::Derived => events.hists_derived += 1,
                Action::Violation { host, error } => {
                    self.hosts[host].peer.charge(error, &mut self.telemetry)?;
                }
                Action::StaleHist => events.stale_histograms += 1,
                Action::StalePlacement { host } => {
                    self.drop_stale(host, 7, "placement for a node rolled back meanwhile");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};

    use crate::config::CryptoConfig;
    use crate::protocol::ProtocolConfig;

    fn labelled_rows() -> Dataset {
        generate_classification(&SyntheticConfig {
            rows: 64,
            features: 3,
            density: 1.0,
            informative_frac: 1.0,
            label_noise: 0.1,
            seed: 5,
        })
    }

    /// With no host, no node could ever resolve: the guest refuses to
    /// start instead of waiting on an empty roster.
    #[test]
    fn a_guest_without_hosts_is_invalid_input() {
        let cfg = TrainConfig { crypto: CryptoConfig::Mock, ..TrainConfig::for_tests() };
        let suite = Suite::plain(cfg.encoding);
        let failure = run_guest(&labelled_rows(), cfg, suite, Vec::new(), None);
        assert!(matches!(failure.err().map(|f| f.error), Some(TrainError::InvalidInput(_))));
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
