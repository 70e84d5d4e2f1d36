//! The guest party (the paper's *Party B*): label owner, private-key
//! holder, and protocol driver.
//!
//! This module is the shell around the tree's growth: the pure core
//! (`grow.rs`) admits what a host sends, and decides which node the hosts
//! are asked for, and which is speculated, resolved, rolled back or placed,
//! and what each host owes; the shell decodes, decrypts, searches, sends
//! and times.
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
use vf2_crypto::suite::Suite;
use vf2_gbdt::data::Dataset;
use vf2_gbdt::histogram::GradPair;
use vf2_gbdt::split::{best_of, find_best_split, SplitCandidate};
use vf2_gbdt::tree::NodeId;

use crate::config::TrainConfig;
use crate::error::{GuestFailure, PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::grad_path::GradPath;
use crate::grow::{self, Action, Answer, Handshake, HostHist, Inbound, Rules, TreeCore};
use crate::hist_enc::DecodedBins;
use crate::messages::{FeatureMeta, HistPayload, Msg};
use crate::model::{FedNode, FedTree};
use crate::peer::{self, Deadline, Peer};
use crate::pool::Pool;
use crate::rows::{check_width, RowMajorBins};
use crate::session::PartySession;
use crate::stock::{Production, Stock};
use crate::telemetry::{PartyTelemetry, TreeRecord};
use crate::trace::{TracePhase, TraceRing};
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

/// The per-batch base seed for gradient encryption randomness of the
/// batch starting at row `start` of tree `tree`. Stream seeds are derived
/// from it via [`vf2_crypto::split_seed`], never by ad-hoc xor-masking (two
/// masked streams can collide after the per-element `wrapping_add(i)`
/// walk); no two rows of a run share an element seed (pinned by a test
/// below).
pub(crate) fn batch_seed(seed: u64, tree: u32, start: usize) -> u64 {
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
    /// What its handshake announced.
    handshake: Handshake,
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
    pool: Pool,
    /// The next tree's draws, made while this tree's waits last.
    stock: Option<Stock>,
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
        let n = data.num_rows();
        let rules = Arc::new(Rules {
            split: cfg.gbdt.split,
            max_layers: cfg.gbdt.max_layers,
            optimistic: cfg.protocol.optimistic,
            encoding: *suite.encoding(),
            path: GradPath::of(&cfg, &suite, n)?,
            bins: RowMajorBins::bin(data, &cfg.gbdt.binning),
        });
        let link = |(h, endpoint)| HostLink {
            peer: Peer::new(endpoint, PartyId::Guest, PartyId::Host(h), cfg.misbehavior_budget),
            handshake: Handshake::default(),
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
            pool: Pool::new(cfg.workers, "guest"),
            stock: None,
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

        // Session handshake + feature metadata, host by host, each host's
        // pair bounded by one per-phase deadline.
        for h in 0..self.hosts.len() {
            let deadline = Deadline::new(ProtocolPhase::Hello, self.cfg.peer_timeout);
            while self.hosts[h].handshake.metas.is_none() {
                self.wait_answer(&[h], &deadline, None)?;
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
                common.retain(|k| host.handshake.durable.as_ref().is_some_and(|d| d.contains(k)));
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
        let peers: Vec<&Peer> = self.hosts.iter().map(|h| &h.peer).collect();
        peer::flush_all(&peers, self.cfg.peer_timeout);
        Ok(trees)
    }

    /// A host's hello names its session view: a foreign session id is a
    /// typed [`TrainError::ResumeMismatch`], caught before any gradient
    /// leaves the party.
    fn on_hello(&mut self, host: usize, session_id: u64) -> Result<(), TrainError> {
        let my_sid = self.session.as_ref().map_or(0, |s| s.session_id());
        if session_id != my_sid {
            return Err(TrainError::ResumeMismatch {
                party: PartyId::Host(host),
                detail: format!("host announced session {session_id}, guest runs session {my_sid}"),
            });
        }
        self.telemetry.trace.note(format!("host-{host} hello: session {session_id}"));
        Ok(())
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

    /// Decodes a frame from `host` and hands it to the one admission
    /// (`grow::admit`; `core` is `None` only during the handshake). Returns
    /// the host's answer to the tree; a hello or metadata is taken in, an
    /// honest straggler dropped and counted, a violation charged. An error is a frame that does not
    /// decode, a foreign session, or a host past its misbehavior budget.
    fn admit_from(
        &mut self,
        host: usize,
        env: Envelope,
        core: Option<&mut TreeCore>,
    ) -> Result<Option<Answer>, TrainError> {
        let msg = wire::decode(env.kind, env.payload)
            .map_err(|error| ProtocolError::Malformed { from: PartyId::Host(host), error })?;
        let kind = msg.kind();
        let handshake = &mut self.hosts[host].handshake;
        match grow::admit(&self.rules, host, handshake, msg, core) {
            Ok(Inbound::Answer(answer)) => return Ok(Some(answer)),
            Ok(Inbound::Hello { session_id }) => self.on_hello(host, session_id)?,
            Ok(Inbound::Meta) => {}
            Ok(Inbound::Stale(reason)) => self.drop_stale(host, kind, reason),
            Err(violation) => self.hosts[host].peer.charge(violation, &mut self.telemetry)?,
        }
        Ok(None)
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

    /// Blocks in the one supervised wait ([`peer::wait`]) for one frame
    /// from the `listen`ed hosts and admits it; returns the answer, if it
    /// was one. The caller holds `deadline` across the frames admission
    /// takes in or drops, so none of them restarts it.
    fn wait_answer(
        &mut self,
        listen: &[usize],
        deadline: &Deadline,
        core: Option<&mut TreeCore>,
    ) -> Result<Option<(usize, Answer)>, TrainError> {
        let peers: Vec<&Peer> = listen.iter().map(|&h| &self.hosts[h].peer).collect();
        let dead_after = self.cfg.dead_after();
        let mut production = self.stock.as_mut().map(|stock| Production {
            stock,
            path: &self.rules.path,
            suite: &self.suite,
            pool: &self.pool,
        });
        let work = production.as_mut().map(|p| p as &mut dyn peer::Background);
        let (i, env) = peer::wait(&peers, deadline, dead_after, &mut self.telemetry, work)?;
        Ok(self.admit_from(listen[i], env, core)?.map(|answer| (listen[i], answer)))
    }

    /// Non-blocking companion to [`Self::wait_answer`] for the tree loop's
    /// drain: harvests one already-arrived answer from any host
    /// ([`peer::poll`]) without waiting. Returns `Ok(None)` when nothing is
    /// pending — or when a link died, which the next *blocking* wait will
    /// classify and report properly.
    fn try_recv_answer(
        &mut self,
        core: &mut TreeCore,
    ) -> Result<Option<(usize, Answer)>, TrainError> {
        loop {
            let peers: Vec<&Peer> = self.hosts.iter().map(|h| &h.peer).collect();
            let Some((host, env)) = peer::poll(&peers) else { return Ok(None) };
            if let Some(answer) = self.admit_from(host, env, Some(core))? {
                return Ok(Some((host, answer)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-tree driver
    // ------------------------------------------------------------------

    fn train_tree(&mut self, tree: u32) -> Result<FedTree, TrainError> {
        let grads = self.cfg.gbdt.loss.grad_hess_all(&self.labels, &self.preds);
        let mut core = TreeCore::new(self.rules.clone(), self.hosts.len(), tree, grads);
        self.send_gradients(&core)?;
        self.run_tree(&mut core)?;
        self.broadcast(&Msg::TreeDone { tree })?;
        let (fed, rows) = core.finish();
        if let Err(why) = fed.validate() {
            self.telemetry.trace.note(format!("tree {tree} is malformed: {why}"));
            let context = "the finished tree failed its structural check";
            return Err(ProtocolError::InvariantViolated { party: PartyId::Guest, context }.into());
        }

        // Fold leaf weights into the training predictions (each row sits
        // in exactly one leaf, so the walk order does not matter).
        let lr = self.cfg.gbdt.learning_rate;
        for (node, decision) in fed.nodes.iter().enumerate() {
            if let FedNode::Leaf(w) = decision {
                for &r in rows.rows(node).iter() {
                    self.preds[r as usize] += lr * w;
                }
            }
        }
        Ok(fed)
    }

    /// Encrypts and ships the gradient statistics — in one bulk message or
    /// in pipelined blaster batches (§4.1) — in the run's forward form. On
    /// the paired path (§3.11) each instance's (g, h) pair rides in one
    /// ciphertext, halving the encryptions and the bytes on the wire. Each
    /// batch seals the draws the previous tree's waits stocked for it; then
    /// the next tree's stock opens, if there is a next tree.
    fn send_gradients(&mut self, core: &TreeCore) -> Result<(), TrainError> {
        let tree = core.tree();
        for (k, (start, end)) in self.batches(core.grads().len()).enumerate() {
            // One batch's statistics at a time, never the whole tree's.
            let pairs = &core.grads()[start..end];
            let seed = batch_seed(self.cfg.seed, tree, start);
            let at = (tree, start as u32, end == core.grads().len());
            let stocked = self.stock.as_mut().map(|s| s.take(tree, k)).unwrap_or_default();
            self.telemetry.events.draws_stocked += stocked.iter().flatten().count() as u64;
            let span = self.telemetry.enter(TracePhase::Encrypt, Some(tree), None);
            let msg = self.rules.path.encrypt(&self.suite, &self.pool, pairs, seed, at, stocked);
            let msg = msg.map_err(TrainError::crypto("gradient encryption"))?;
            self.telemetry.exit(span);
            // Hand to the gateway immediately; encryption of the next batch
            // overlaps with the wire and with host-side accumulation. One
            // transfer trace event carries the bytes summed over the links.
            let bytes = self.broadcast(&msg)?;
            self.telemetry.trace.transfer(Some(tree), bytes);
        }
        let next = tree + 1;
        self.stock = None;
        if (next as usize) < self.cfg.gbdt.num_trees {
            let batches = self.batches(core.grads().len());
            let batches =
                batches.map(|(start, end)| (batch_seed(self.cfg.seed, next, start), end - start));
            self.stock = Stock::open(&self.rules.path, &self.suite, next, batches);
        }
        Ok(())
    }

    /// The `[start, end)` row ranges of a tree's forward batches, in send
    /// order.
    fn batches(&self, n: usize) -> impl Iterator<Item = (usize, usize)> {
        let batch = self.cfg.protocol.blaster_batch.unwrap_or(n).max(1);
        (0..n).step_by(batch).map(move |start| (start, (start + batch).min(n)))
    }

    /// Decodes one host's histogram payload into that host's best split
    /// for the node — the decrypt-and-search kernel of FindSplitA — and
    /// the decrypted histogram itself, which the node retains. Admission
    /// shaped the payload as the host's metadata says, one feature per
    /// announced feature. Borrows `self` immutably so a batch of
    /// histograms from different parties can be searched concurrently on
    /// the pool. It fans out per feature; called from a pool chunk (one of
    /// several payloads being searched at once) it runs inline. Timing is
    /// charged by the caller, which knows the batch boundaries.
    fn host_best_split(
        &self,
        host: usize,
        payload: &HistPayload,
        total: GradPair,
        count: usize,
    ) -> Result<(Option<SplitCandidate>, HostHist), TrainError> {
        // One closure per feature. FindSplitA amortizes over workers (the
        // paper's Table 5 notes the decryption cost "is also able to be
        // amortized among workers").
        let per_feature = |(f, &meta): (usize, &FeatureMeta)| {
            let bins = self.rules.path.decode(&self.suite, payload, f, count)?;
            Ok((self.rules.feature_best(f, meta, &bins, total), bins))
        };
        let metas = self.hosts[host].handshake.metas();
        let searched: Result<Vec<(Option<SplitCandidate>, DecodedBins)>, TrainError> =
            self.pool.map(metas.iter().enumerate().collect(), per_feature).into_iter().collect();
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
            let mut next = None;
            while next.is_none() {
                next = self.wait_answer(&every, &deadline, Some(&mut *core))?;
            }
            while let Some((host, answer)) = next.take() {
                match answer {
                    Answer::Histograms { node, epoch, payload } => {
                        if core.awaits(host, node, epoch).is_some() {
                            batch.push(PendingHist { host, node, epoch, payload });
                        } else {
                            self.telemetry.events.stale_histograms += 1;
                        }
                    }
                    Answer::Placement { node, placement } => {
                        let at = Some(node as u32);
                        let span = self.telemetry.enter(TracePhase::Placement, Some(tree), at);
                        let placed = core.on_placement(host, node, placement);
                        self.telemetry.exit(span);
                        placed?;
                        self.drain(core)?;
                    }
                }
                if batch.len() >= cap {
                    break;
                }
                next = self.try_recv_answer(core)?;
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
    /// decrypt itself fans out across the pool: across payloads when
    /// the batch has several, across features inside the single payload
    /// otherwise (a one-item call runs inline, leaving the pool to
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
        let results: Vec<Decoded> = self.pool.map(jobs.iter().collect(), |(total, p)| {
            self.host_best_split(p.host, &p.payload, *total, core.count(p.node))
        });
        self.telemetry.exit(span);
        for ((_, p), decoded) in jobs.into_iter().zip(results) {
            let (best, hist) = decoded?;
            let span =
                self.telemetry.enter(TracePhase::DecryptSplit, Some(tree), Some(p.node as u32));
            core.on_answer(
                p.host,
                self.hosts[p.host].handshake.metas(),
                p.node,
                p.epoch,
                best,
                hist,
            );
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
                    let hists = self.rules.bins.node_histograms(&rows, core.grads());
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
                    let node = node as u32;
                    self.broadcast(&Msg::ApplyPlacement { tree, node, speculative, placement })?;
                }
                Action::GuestWon { node, speculative } => {
                    events.splits_won += 1;
                    if speculative {
                        self.broadcast(&Msg::SplitValidated { tree, node: node as u32 })?;
                    }
                }
                Action::HostChosen { host, node, split } => {
                    let (feature, bin) = (split.feature as u32, split.bin);
                    let chosen = Msg::HostSplitChosen { tree, node: node as u32, feature, bin };
                    self.hosts[host].peer.send(&chosen)?;
                }
                Action::Relay { host, node, placement } => {
                    let node = node as u32;
                    let relay = Msg::ApplyPlacement { tree, node, speculative: false, placement };
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
    use std::time::Duration;

    use vf2_channel::WanConfig;
    use vf2_crypto::split_seed;
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

    /// Making draws ahead makes no draw twice and wastes none: on a seeded
    /// sequential 2-tree run, paired and two-stream, the guest's
    /// encryptions and Montgomery work are the inline path's (the
    /// constants were read off the code before the stock existed) at every
    /// pool width, while tree 2 sealed stocked draws.
    #[test]
    fn stocked_draws_cost_what_the_inline_path_costs() {
        let data = generate_classification(&SyntheticConfig {
            rows: 300,
            features: 6,
            density: 1.0,
            informative_frac: 1.0,
            label_noise: 0.1,
            seed: 5,
        });
        let s = vf2_datagen::vertical::split_vertical(&data, &[3]);
        // A 20 ms link makes the guest wait for every answer, so it stocks
        // draws however loaded the machine is.
        let wan = WanConfig { latency: Duration::from_millis(20), ..WanConfig::instant() };
        for (pack_histograms, enc, modmul, redc) in
            [(true, 600, 283_920, 1_135_680), (false, 1_200, 730_080, 2_920_320)]
        {
            let mut stocked = 0;
            for workers in [1, 2, 3] {
                let base = TrainConfig::for_tests();
                let protocol =
                    ProtocolConfig { pack_histograms, optimistic: false, ..base.protocol };
                let cfg = TrainConfig { protocol, workers, wan, ..base };
                let out = crate::train::train_federated(&s.hosts, &s.guest, &cfg).unwrap();
                let ops = out.report.guest.ops;
                let at = format!("pack {pack_histograms} workers {workers}");
                assert_eq!((ops.enc, ops.modmul, ops.redc), (enc, modmul, redc), "{at}");
                stocked += out.report.guest.events.draws_stocked;
            }
            assert!(stocked > 0, "pack {pack_histograms}: nothing was stocked");
        }
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
