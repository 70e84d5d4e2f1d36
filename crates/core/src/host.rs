//! The host party (the paper's *Party A*): features only, no labels, no
//! private key.
//!
//! The host is fully reactive. It receives encrypted gradient statistics
//! (accumulating the root histogram incrementally as blaster batches
//! arrive, §4.1), executes node histogram tasks, and recovers/applies
//! splits it owns. Tasks are executed one node at a time between message
//! polls — the paper's "slice the histogram construction into smaller
//! tasks" (§4.2) — so a rollback arriving mid-layer aborts queued work for
//! dirty subtrees before it runs, and the task in flight is looked at again
//! between its build and its pack and before it ships.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use vf2_channel::Endpoint;
use vf2_crypto::packing::GhPlan;
use vf2_crypto::suite::{Ciphertext, ResidentCiphertext, Suite};
use vf2_gbdt::binning::{BinnedColumn, BinnedDataset};
use vf2_gbdt::data::Dataset;
use vf2_gbdt::tree::{parent, right_child, NodeSplit};

use crate::chaos::ChaosPlan;
use crate::config::TrainConfig;
use crate::error::{panic_text, HostFailure, PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::fsm::{Admit, HostFsm};
use crate::hist_enc::{max_exponent, pack_feature_hist, EncHistBuilder, TARGET_SLOT_BITS};
use crate::messages::{
    FeatureMeta, GhPackedFeatureHist, HistPayload, Msg, PackedFeatureHist, RawFeatureHist,
};
use crate::model::HostSplitTable;
use crate::peer::{self, Deadline, Peer};
use crate::rows::{check_width, NodeRows, RowMajorBins};
use crate::session::PartySession;
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

/// Per-tree mutable state. It holds no node histogram: a node's builders
/// live for one task, and the guest derives what is not asked for (§3.6).
struct TreeState {
    tree: u32,
    /// Stored encrypted gradients, indexed by row, each entered into its
    /// key's resident form once, when its batch was admitted.
    enc_g: Vec<ResidentCiphertext>,
    /// Stored encrypted hessians, indexed by row (resident likewise).
    enc_h: Vec<ResidentCiphertext>,
    /// The root histogram builders (gradients, hessians), accumulated as
    /// batches arrive; taken when the root payload ships.
    root: Option<BuilderPair>,
    rows: NodeRows,
}

/// One (gradient, hessian) builder pair — a node's whole encrypted
/// histogram (on the paired path the `h` half stays empty).
type BuilderPair = (EncHistBuilder, EncHistBuilder);

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
    /// The link to the guest, this host's only peer.
    guest: Peer,
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
    /// Validating state machine over the guest's message stream.
    fsm: HostFsm,
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
        cfg.validate().map_err(TrainError::InvalidConfig)?;
        check_width(PartyId::Host(party_index), data.num_features())?;
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
        let fsm = HostFsm::new(cfg.gbdt.num_trees as u32);
        let guest =
            Peer::new(endpoint, PartyId::Host(party_index), PartyId::Guest, cfg.misbehavior_budget);
        let gh = cfg
            .gh_plan(&suite, csr.num_rows())
            .map_err(TrainError::crypto("gh plan derivation"))?;
        Ok(HostParty {
            gh,
            cfg,
            chaos,
            suite,
            guest,
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
            fsm,
        })
    }

    fn run(&mut self) -> Result<(), TrainError> {
        // Announce the session view first — the very first frame of every
        // (re)started run: the guest needs the durable checkpoint list
        // before it can pick a resume point.
        let (sid, durable) = match &self.session {
            Some(s) => (s.session_id(), s.durable()),
            None => (0, Vec::new()),
        };
        self.telemetry.trace.note(format!("hello: session {sid}"));
        self.guest.send(&Msg::SessionHello { session_id: sid, durable })?;
        // Then announce histogram structure (bin counts + zero bins only).
        let metas: Vec<FeatureMeta> = self
            .binned
            .columns()
            .iter()
            .map(|c| FeatureMeta { num_bins: c.num_bins() as u16, zero_bin: c.zero_bin })
            .collect();
        self.guest.send(&Msg::FeatureMeta(metas))?;

        while !self.shutdown {
            // With nothing queued, block: a guest that vanishes without an
            // orderly Shutdown — disconnect or silence — is an error.
            let idle = self.task_queue.is_empty();
            match self.recv(idle)? {
                Some(msg) => self.handle(msg)?,
                None => self.run_one_task()?,
            }
        }
        // Linger until the guest acks our final frames (and keep our
        // reliability thread alive to re-ack any retransmitted Shutdown),
        // so a fault-dropped frame at the very end doesn't turn the
        // orderly goodbye into a peer-side disconnect.
        self.guest.flush(self.cfg.peer_timeout);
        Ok(())
    }

    fn finish(mut self) -> (PartyTelemetry, HostSplitTable) {
        self.telemetry.ops = self.suite.counters().snapshot();
        self.telemetry.crypto_backend = self.suite.backend_label();
        self.guest.fold_stats(&mut self.telemetry);
        (self.telemetry, self.splits)
    }

    /// Sends a bulk protocol message, recording a transfer trace event
    /// with its encoded payload size.
    fn send_traced(&mut self, msg: &Msg, tree: u32) -> Result<(), TrainError> {
        let bytes = self.guest.send(msg)?;
        self.telemetry.trace.transfer(Some(tree), bytes);
        Ok(())
    }

    /// The next admitted message of the guest. `block`ing, it waits under
    /// one per-phase deadline that the frames admission drops do not
    /// restart; otherwise it takes only what already arrived, and `None`
    /// means the queue is empty.
    fn recv(&mut self, block: bool) -> Result<Option<Msg>, TrainError> {
        let deadline = Deadline::new(self.phase, self.cfg.peer_timeout);
        loop {
            let next = if block {
                let dead_after = self.cfg.dead_after();
                Some(peer::wait(&[&self.guest], &deadline, dead_after, &mut self.telemetry)?)
            } else {
                peer::poll(&[&self.guest])
            };
            let Some((_, env)) = next else { return Ok(None) };
            let msg = wire::decode(env.kind, env.payload)
                .map_err(|error| ProtocolError::Malformed { from: PartyId::Guest, error })?;
            if self.admit(&msg)? {
                return Ok(Some(msg));
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
                self.guest.charge(violation, &mut self.telemetry)?;
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
                // guest, which now holds a half-built tree. Party 0 only:
                // one kill per run, whatever the roster.
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
                        let replay = ProtocolError::StaleOrReplayed {
                            from: PartyId::Guest,
                            kind: 3,
                            context: "node task replayed or epoch-regressed",
                        };
                        self.guest.charge(replay, &mut self.telemetry)?;
                    }
                    Some(_) => {
                        self.task_epoch.insert(node, epoch);
                        if self.task_queue.contains(&node) {
                            // Superseded before execution: the paper's
                            // aborted sub-task.
                            self.telemetry.events.aborted_tasks += 1;
                        } else {
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
                state.rows.apply_placement(node as usize, &placement);
                self.retire_below(node);
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
                state.rows.apply_placement(node as usize, &placement);
                self.retire_below(node);
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
                    sess.save_host(completed, self.party_index as u32, self.splits.clone())?;
                    self.telemetry.events.checkpoints_written += 1;
                    self.telemetry.trace.note(format!("checkpoint written at {completed} trees"));
                }
            }
            Msg::Resume { session_id, tree_count } => {
                self.on_resume(session_id, tree_count)?;
            }
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

    /// Retires, unbuilt, every queued task below `node`, whose split was
    /// just (re)placed: the link is FIFO, so those were asked against the
    /// split this one replaces, and the guest drops their answers by epoch.
    /// Only the new smaller child is asked for again, so a re-issue alone
    /// would leave the other child's stale task to be built from new rows.
    fn retire_below(&mut self, node: u32) {
        let ancestors = |task: u32| std::iter::successors(parent(task as usize), |&n| parent(n));
        let queued = self.task_queue.len();
        self.task_queue.retain(|&task| ancestors(task).all(|n| n != node as usize));
        self.telemetry.events.aborted_tasks += (queued - self.task_queue.len()) as u64;
    }

    /// Runs `f` with the tree state moved out of `self`, so `f` can hand
    /// the state's ciphers and row lists to the `&self` builders below
    /// while it extends the state's cipher streams and bills telemetry.
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
    /// last batch ships the root payload.
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
        // Each cipher enters its key's resident form once, here, and its
        // wire form is dropped as it enters: the streams hold one form, and
        // keep it for the whole tree.
        let crypto = TrainError::crypto("gradient cipher admission");
        for c in g {
            state.enc_g.push(self.suite.enter(&c).map_err(&crypto)?);
        }
        for c in h.into_iter().flatten() {
            state.enc_h.push(self.suite.enter(&c).map_err(&crypto)?);
        }
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

    /// Executes the oldest queued node task: builds the node's histogram
    /// from its rows, packs it, sends it.
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
        let (tree, count, (g, h)) =
            self.with_state("node task with no tree state", |host, state| {
                let (tree, rows) = (state.tree, state.rows.rows(node as usize));
                let span = host.telemetry.enter(TracePhase::Hadd, Some(tree), Some(node));
                let (mut g, mut h) = host.new_builders();
                host.accumulate(state, &mut g, &mut h, rows)?;
                host.telemetry.exit(span);
                Ok((tree, rows.len(), (g, h)))
            })?;
        if !self.still_wanted(node, epoch)? {
            return Ok(());
        }
        let payload = self.make_payload(tree, &g, &h, count)?;
        if !self.still_wanted(node, epoch)? {
            return Ok(());
        }
        self.send_traced(&Msg::NodeHistograms { tree, node, epoch, payload }, tree)
    }

    /// Whether the task in flight is still wanted once what the guest sent
    /// meanwhile is taken in (the paper's aborted sub-task, §4.2). The
    /// task goes back to the head of the queue while the inbox drains, so
    /// whatever retires a queued task — a re-placement above it, a newer
    /// epoch for it, the tree's end — retires it too: the guest would drop
    /// its answer by epoch, so the host skips the pack (asked between build
    /// and pack) or the bytes (asked between pack and send). A superseded
    /// task stays queued, to be built again at its new epoch.
    fn still_wanted(&mut self, node: u32, epoch: u32) -> Result<bool, TrainError> {
        self.task_queue.push_front(node);
        while let Some(msg) = self.recv(false)? {
            self.handle(msg)?;
        }
        let wanted =
            self.task_queue.front() == Some(&node) && self.task_epoch.get(&node) == Some(&epoch);
        if wanted {
            self.task_queue.pop_front();
        }
        Ok(wanted)
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
            // every bin is topped up to the plan's constant offset and bins
            // pack at exactly the pair width, straight from resident form.
            let pack_one = |f: usize| -> Result<GhPackedFeatureHist, TrainError> {
                g.pack_gh_feature(suite, f, plan).map_err(&crypto)
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
    use vf2_gbdt::data::FeatureColumn;

    use crate::hist_enc::unpack_feature_hist;

    /// A re-split retires what was queued below it, and only that: the
    /// stale task of the child that is not asked for again would otherwise
    /// be built from rows it no longer describes.
    #[test]
    fn a_replaced_placement_retires_the_tasks_queued_below_it() {
        use vf2_crypto::suite::PlainNumber;

        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let column = FeatureColumn::Dense((0..8).map(|v| v as f32).collect());
        let data = Arc::new(Dataset::new(8, vec![column], None));
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        let mut host =
            HostParty::new(0, data, cfg, suite, host_ep, None, ChaosPlan::default()).unwrap();
        let one = Ciphertext::Plain(PlainNumber { value: 1.0, exponent: cfg.encoding.base_exp });
        let (g, h) = (vec![one.clone(); 8], vec![one; 8]);
        host.handle(Msg::GradBatch { tree: 0, start_row: 0, g, h, last: true }).unwrap();
        let split = |rows: usize, left: usize| (0..rows).map(|row| row < left).collect::<Vec<_>>();
        // Root split 3 | 5, node 1 split again; tasks queue up at both levels.
        host.handle(Msg::ApplyPlacement { tree: 0, node: 0, placement: split(8, 3) }).unwrap();
        host.handle(Msg::ApplyPlacement { tree: 0, node: 1, placement: split(3, 1) }).unwrap();
        for node in [1, 3, 2] {
            host.handle(Msg::NodeTask { tree: 0, node, epoch: 1 }).unwrap();
        }
        // Node 2 splits for the first time: nothing was queued below it.
        host.handle(Msg::ApplyPlacement { tree: 0, node: 2, placement: split(5, 2) }).unwrap();
        assert_eq!((host.task_queue.len(), host.telemetry.events.aborted_tasks), (3, 0));
        // The root re-splits 5 | 3: every queued task hung below it.
        host.handle(Msg::ApplyPlacement { tree: 0, node: 0, placement: split(8, 5) }).unwrap();
        assert!(host.task_queue.is_empty());
        assert_eq!(host.telemetry.events.aborted_tasks, 3);
        // The new smaller child is asked for at a later epoch, and answered
        // from the new rows (root, then node 2 over rows 5..8).
        host.handle(Msg::NodeTask { tree: 0, node: 2, epoch: 3 }).unwrap();
        host.run_one_task().unwrap();
        let answers: Vec<Msg> = (0..2)
            .map(|_| guest_ep.recv().expect("an answer"))
            .map(|env| wire::decode(env.kind, env.payload).unwrap())
            .collect();
        let Msg::NodeHistograms { node: 2, epoch: 3, payload: HistPayload::Packed(feats), .. } =
            &answers[1]
        else {
            panic!("expected node 2's packed histogram, got kind {}", answers[1].kind());
        };
        let bins = unpack_feature_hist(&host.suite, &feats[0], 3, 1.0, 0.25).unwrap();
        assert_eq!(bins.iter().map(|b| b.g).sum::<f64>(), 3.0);
    }

    /// What arrives while a task is being built is taken in before it
    /// ships: a re-split above the node retires it unsent, and a newer
    /// epoch for it sends only the newer answer.
    #[test]
    fn a_task_retired_in_flight_is_not_shipped() {
        use vf2_crypto::suite::PlainNumber;

        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let column = FeatureColumn::Dense((0..8).map(|v| v as f32).collect());
        let data = Arc::new(Dataset::new(8, vec![column], None));
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        let mut host =
            HostParty::new(0, data, cfg, suite, host_ep, None, ChaosPlan::default()).unwrap();
        let send = |msg: Msg| guest_ep.send(msg.kind(), wire::encode(&msg).unwrap());
        // Everything sent so far is in the host's inbox once acked.
        let delivered = || assert!(guest_ep.flush(std::time::Duration::from_secs(5)));
        let step = |host: &mut HostParty| {
            let msg = host.recv(true).unwrap().expect("a message");
            host.handle(msg).unwrap();
        };
        let one = Ciphertext::Plain(PlainNumber { value: 1.0, exponent: cfg.encoding.base_exp });
        let (g, h) = (vec![one.clone(); 8], vec![one; 8]);
        let split = |left: usize| (0..8).map(|row| row < left).collect::<Vec<_>>();
        send(Msg::Resume { session_id: 0, tree_count: 0 });
        send(Msg::GradBatch { tree: 0, start_row: 0, g, h, last: true });
        send(Msg::ApplyPlacement { tree: 0, node: 0, placement: split(3) });
        send(Msg::NodeTask { tree: 0, node: 1, epoch: 1 });
        for _ in 0..4 {
            step(&mut host);
        }
        // The root re-splits while node 1 is being built: no answer.
        send(Msg::ApplyPlacement { tree: 0, node: 0, placement: split(5) });
        delivered();
        host.run_one_task().unwrap();
        assert!(host.task_queue.is_empty());
        assert_eq!(host.telemetry.events.aborted_tasks, 1);
        // Node 1 asked again, then superseded while in flight: it is built
        // again at the newer epoch, and only that answer ships.
        send(Msg::NodeTask { tree: 0, node: 1, epoch: 2 });
        step(&mut host);
        send(Msg::NodeTask { tree: 0, node: 1, epoch: 3 });
        delivered();
        host.run_one_task().unwrap();
        assert_eq!(host.task_queue.iter().copied().collect::<Vec<_>>(), vec![1]);
        host.run_one_task().unwrap();
        host.guest.flush(std::time::Duration::from_secs(5));
        let answers: Vec<(u32, u32)> = std::iter::from_fn(|| guest_ep.try_recv())
            .map(|env| wire::decode(env.kind, env.payload).unwrap())
            .filter_map(|msg| match msg {
                Msg::NodeHistograms { node, epoch, .. } => Some((node, epoch)),
                _ => None,
            })
            .collect();
        assert_eq!(answers, vec![(0, 1), (1, 3)], "the root's answer, then node 1's newest");
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
        // host down. A session-less host announces session 0.
        let env = guest_ep.recv().unwrap();
        let msg = wire::decode(env.kind, env.payload).unwrap();
        assert!(
            matches!(msg, Msg::SessionHello { session_id: 0, ref durable } if durable.is_empty())
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
