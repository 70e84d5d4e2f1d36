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
//! between its build and its pack. A histogram below a speculative split
//! ships only once the guest has validated that split: one a rollback
//! supersedes is never sent, however the race between the host's pack and
//! the guest's verdict goes.
//!
//! This is the shell around the host's pure core (`serve.rs`), which admits
//! each guest message and decides what is queued, retired and still
//! wanted: the shell decodes, enters, builds, packs and sends, and owns the
//! link, the suite, the pool and the clock.

use std::sync::Arc;

use vf2_channel::Endpoint;
use vf2_crypto::suite::Suite;
use vf2_gbdt::data::Dataset;

use crate::chaos::ChaosPlan;
use crate::config::TrainConfig;
use crate::error::{panic_text, HostFailure, PartyId, ProtocolError, ProtocolPhase, TrainError};
use crate::grad_path::GradPath;
use crate::hist_enc::{CipherStream, EncHistBuilder};
use crate::messages::{FeatureMeta, HistPayload, Msg};
use crate::model::HostSplitTable;
use crate::peer::{self, Deadline, Peer};
use crate::rows::{check_width, RowMajorBins};
use crate::serve::{Batch, BuilderPair, HostCore, Step, Task};
use crate::session::PartySession;
use crate::telemetry::PartyTelemetry;
use crate::trace::{TracePhase, TraceRing};
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
    data: &Dataset,
    cfg: TrainConfig,
    suite: Suite,
    endpoint: Endpoint,
    session: Option<PartySession>,
    chaos: ChaosPlan,
) -> Result<(PartyTelemetry, HostSplitTable), HostFailure> {
    let (mut host, mut core) =
        match HostParty::new(party_index, data, cfg, suite, endpoint, session, chaos) {
            Ok(party) => party,
            Err(error) => {
                let telemetry =
                    PartyTelemetry { name: format!("host-{party_index}"), ..Default::default() };
                return Err(HostFailure { error, telemetry: Box::new(telemetry) });
            }
        };
    match host.run(&mut core) {
        Ok(()) => Ok(host.finish(core)),
        Err(error) => {
            let session = host.session.clone();
            let (mut telemetry, _) = host.finish(core);
            if let Some(sess) = session {
                sess.dump_flight_record(&error, &mut telemetry);
            }
            Err(HostFailure { error, telemetry: Box::new(telemetry) })
        }
    }
}

/// The shell around a [`HostCore`], which the methods that admit are handed.
struct HostParty {
    cfg: TrainConfig,
    /// Injected failures; inert outside the robustness suites.
    chaos: ChaosPlan,
    suite: Suite,
    /// The run's gradient path, shared with the core; the guest derives the
    /// same one, so no negotiation message exists to spoof.
    path: Arc<GradPath>,
    /// The link to the guest, this host's only peer.
    guest: Peer,
    /// The host's one binned form, shared with its core.
    csr: Arc<RowMajorBins>,
    pool: rayon::ThreadPool,
    telemetry: PartyTelemetry,
    shutdown: bool,
    /// What the host is currently waiting for (PeerLost attribution).
    phase: ProtocolPhase,
    party_index: usize,
    session: Option<PartySession>,
}

impl HostParty {
    fn new(
        party_index: usize,
        data: &Dataset,
        cfg: TrainConfig,
        suite: Suite,
        endpoint: Endpoint,
        session: Option<PartySession>,
        chaos: ChaosPlan,
    ) -> Result<(HostParty, HostCore), TrainError> {
        cfg.validate().map_err(TrainError::InvalidConfig)?;
        check_width(PartyId::Host(party_index), data.num_features())?;
        let csr = Arc::new(RowMajorBins::bin(data, &cfg.gbdt.binning));
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
        let guest =
            Peer::new(endpoint, PartyId::Host(party_index), PartyId::Guest, cfg.misbehavior_budget);
        let path = Arc::new(GradPath::of(&cfg, &suite, csr.num_rows())?);
        let host = HostParty {
            path,
            cfg,
            chaos,
            suite,
            guest,
            csr,
            pool,
            telemetry,
            shutdown: false,
            phase: ProtocolPhase::Gradients,
            party_index,
            session,
        };
        let core =
            HostCore::new(host.csr.clone(), host.new_builders(), &cfg.gbdt, host.path.clone());
        Ok((host, core))
    }

    fn run(&mut self, core: &mut HostCore) -> Result<(), TrainError> {
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
            .csr
            .col_meta
            .iter()
            .map(|m| FeatureMeta { num_bins: m.num_bins, zero_bin: m.zero_bin })
            .collect();
        self.guest.send(&Msg::FeatureMeta(metas))?;

        while !self.shutdown {
            // With nothing queued, block: a guest that vanishes without an
            // orderly Shutdown — disconnect or silence — is an error.
            let idle = core.idle();
            if !self.step(core, idle)? {
                self.run_one_task(core)?;
            }
        }
        // Linger until the guest acks our final frames (and keep our
        // reliability thread alive to re-ack any retransmitted Shutdown),
        // so a fault-dropped frame at the very end doesn't turn the
        // orderly goodbye into a peer-side disconnect.
        self.guest.flush(self.cfg.peer_timeout);
        Ok(())
    }

    fn finish(mut self, core: HostCore) -> (PartyTelemetry, HostSplitTable) {
        self.telemetry.ops = self.suite.counters().snapshot();
        self.telemetry.crypto_backend = self.suite.backend_label();
        self.guest.fold_stats(&mut self.telemetry);
        (self.telemetry, core.into_splits())
    }

    /// Sends a bulk protocol message, recording a transfer trace event
    /// with its encoded payload size.
    fn send_traced(&mut self, msg: &Msg, tree: u32) -> Result<(), TrainError> {
        let bytes = self.guest.send(msg)?;
        self.telemetry.trace.transfer(Some(tree), bytes);
        Ok(())
    }

    /// Takes in the guest's next admitted message and does what it asks. A
    /// `block`ing call waits under one per-phase deadline that the frames
    /// refused meanwhile do not restart; otherwise `false` means nothing
    /// had arrived.
    fn step(&mut self, core: &mut HostCore, block: bool) -> Result<bool, TrainError> {
        let deadline = Deadline::new(self.phase, self.cfg.peer_timeout);
        loop {
            let next = if block {
                let dead_after = self.cfg.dead_after();
                Some(peer::wait(&[&self.guest], &deadline, dead_after, &mut self.telemetry)?)
            } else {
                peer::poll(&[&self.guest])
            };
            let Some((_, env)) = next else { return Ok(false) };
            let msg = wire::decode(env.kind, env.payload)
                .map_err(|error| ProtocolError::Malformed { from: PartyId::Guest, error })?;
            match core.admit(msg) {
                Ok(step) => return self.handle(step).map(|()| true),
                // Dropping these would leave the row lists out of step with
                // the guest's: they end the run, whatever the budget.
                Err(
                    error @ (ProtocolError::UnexpectedMessage { .. }
                    | ProtocolError::IncompleteGradients { .. }),
                ) => return Err(error.into()),
                Err(violation) => self.guest.charge(violation, &mut self.telemetry)?,
            }
        }
    }

    /// Takes in everything the guest sent meanwhile.
    fn drain(&mut self, core: &mut HostCore) -> Result<(), TrainError> {
        while self.step(core, false)? {}
        Ok(())
    }

    /// Handles the guest's `Resume` decision: validates the session id
    /// and, for a non-zero resume point, restores the split table from
    /// the named checkpoint.
    fn on_resume(
        &mut self,
        session_id: u64,
        tree_count: u32,
        splits: &mut HostSplitTable,
    ) -> Result<(), TrainError> {
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
        *splits = ck.table;
        self.telemetry.events.resumes += 1;
        self.telemetry.trace.note(format!("resumed from checkpoint at {tree_count} trees"));
        Ok(())
    }

    /// Does what an admitted message asks: the cipher work, the sends and
    /// the counters.
    fn handle(&mut self, step: Step<'_>) -> Result<(), TrainError> {
        match step {
            Step::Resume { session_id, tree_count, splits } => {
                self.on_resume(session_id, tree_count, splits)?;
            }
            Step::Batch(batch) => self.on_grad_batch(batch)?,
            Step::Task { tree, node, superseded } => {
                self.phase = ProtocolPhase::TreeBuild;
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
                self.telemetry.events.aborted_tasks += u64::from(superseded);
            }
            Step::Validated { released } => {
                for (task, payload) in released {
                    self.ship(task, payload)?;
                }
            }
            Step::Place(at, placement) => {
                let span =
                    self.telemetry.enter(TracePhase::Placement, Some(at.tree), Some(at.node));
                self.telemetry.events.aborted_tasks += at.place(&placement);
                self.telemetry.exit(span);
            }
            Step::Choose(at, feature, bin) => {
                let (tree, node) = (at.tree, at.node);
                let span = self.telemetry.enter(TracePhase::Placement, Some(tree), Some(node));
                let (placement, retired) = at.choose(feature, bin);
                self.telemetry.events.aborted_tasks += retired;
                self.telemetry.events.splits_won += 1;
                self.telemetry.exit(span);
                self.send_traced(&Msg::Placement { tree, node, placement }, tree)?;
            }
            Step::TreeDone { tree, splits } => {
                self.phase = ProtocolPhase::Gradients;
                let completed = tree.saturating_add(1);
                if let Some(sess) = &self.session {
                    sess.save_host(completed, self.party_index as u32, splits.clone())?;
                    self.telemetry.events.checkpoints_written += 1;
                    self.telemetry.trace.note(format!("checkpoint written at {completed} trees"));
                }
            }
            Step::Shutdown => self.shutdown = true,
        }
        Ok(())
    }

    /// Stores one gradient batch — two streams, or on the paired path one
    /// (`h` is `None`) — and folds its rows into the root histogram; the
    /// last batch ships the root payload.
    fn on_grad_batch(&mut self, batch: Batch<'_>) -> Result<(), TrainError> {
        let Batch { tree, rows, g, h, enc_g, enc_h, root, last } = batch;
        let span = self.telemetry.enter(TracePhase::Hadd, Some(tree), Some(0));
        // Each cipher enters its key's resident form once, here, and the
        // batch's wire form is dropped with it: the streams hold one form,
        // typed by the suite's kind, and keep it for the whole tree.
        let crypto = TrainError::crypto("gradient cipher admission");
        let n = self.csr.num_rows();
        enc_g.extend(&self.suite, &g, n).map_err(&crypto)?;
        if let Some(h) = h {
            enc_h.extend(&self.suite, &h, n).map_err(&crypto)?;
        }
        // Accumulate the freshly arrived rows into the root histogram
        // immediately — this is what overlaps BuildHistA with the guest's
        // ongoing encryption (§4.1).
        let rows: Vec<u32> = rows.collect();
        self.accumulate(tree, (enc_g, enc_h), &mut root.0, &mut root.1, &rows)?;
        self.telemetry.exit(span);
        if !last {
            return Ok(());
        }
        // The root ships once; its builders go with it.
        let (root_g, root_h) = std::mem::take(root);
        let payload = self.make_payload(tree, &root_g, &root_h, self.csr.num_rows())?;
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

    /// Accumulates the stored ciphers of `rows` (the tree's gradient and
    /// hessian streams) into one builder pair, the columns sharded across
    /// the pool ([`EncHistBuilder::add_rows`]). A panic on any worker — a
    /// bug, or the chaos knob below — is re-raised on this thread by the
    /// pool and caught here, so it becomes a typed `PartyPanicked` like any
    /// other party-level failure.
    fn accumulate(
        &self,
        tree: u32,
        (enc_g, enc_h): (&CipherStream, &CipherStream),
        g: &mut EncHistBuilder,
        h: &mut EncHistBuilder,
        rows: &[u32],
    ) -> Result<(), TrainError> {
        let crash = self.chaos.crash_hist_worker_on_tree == Some(tree);
        let work = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.pool.install(|| {
                if crash {
                    panic!("injected crash: histogram worker shard 0 dying in tree {tree}");
                }
                let enc_h = self.path.hessians(enc_h);
                EncHistBuilder::add_rows(&self.suite, &self.csr, rows, (g, enc_g), (h, enc_h))
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
    /// from its rows, packs it and sends it, asking the core before the
    /// pack whether the task is still wanted, and before the send whether
    /// its histogram must wait on its parent's verdict.
    fn run_one_task(&mut self, core: &mut HostCore) -> Result<(), TrainError> {
        let Some((task, tree, rows)) = core.next_task() else { return Ok(()) };
        let span = self.telemetry.enter(TracePhase::Hadd, Some(task.tree), Some(task.node));
        let (mut g, mut h) = self.new_builders();
        self.accumulate(task.tree, (&tree.enc_g, &tree.enc_h), &mut g, &mut h, &rows)?;
        self.telemetry.exit(span);
        let count = rows.len();
        if !core.still_wanted(task, |core| self.drain(core))? {
            return Ok(());
        }
        let payload = self.make_payload(task.tree, &g, &h, count)?;
        match core.ship_or_hold(task, payload) {
            Some(payload) => self.ship(task, payload),
            None => Ok(()),
        }
    }

    /// Sends a task's histogram.
    fn ship(&mut self, task: Task, payload: HistPayload) -> Result<(), TrainError> {
        let Task { tree, node, epoch } = task;
        self.send_traced(&Msg::NodeHistograms { tree, node, epoch, payload }, tree)
    }

    /// Packs a node's builders into the run's return form.
    fn make_payload(
        &mut self,
        tree: u32,
        g: &EncHistBuilder,
        h: &EncHistBuilder,
        count: usize,
    ) -> Result<HistPayload, TrainError> {
        let span = self.telemetry.enter(TracePhase::Pack, Some(tree), None);
        let payload = self.path.payload(&self.suite, &self.pool, (g, h), count);
        let payload = payload.map_err(TrainError::crypto("histogram finalize/pack"))?;
        self.telemetry.exit(span);
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_channel::{duplex, WanConfig};
    use vf2_gbdt::data::FeatureColumn;

    /// What arrives while a task is being built is taken in before it is
    /// packed: a re-split above the node retires it unsent, and a newer
    /// epoch for it sends only the newer answer.
    #[test]
    fn a_task_retired_in_flight_is_not_shipped() {
        use vf2_crypto::suite::{Ciphertext, PlainNumber};

        let (guest_ep, host_ep) = duplex(WanConfig::instant());
        let column = FeatureColumn::Dense((0..8).map(|v| v as f32).collect());
        let data = Dataset::new(8, vec![column], None);
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        let (mut host, mut core) =
            HostParty::new(0, &data, cfg, suite, host_ep, None, ChaosPlan::default()).unwrap();
        let send = |msg: Msg| guest_ep.send(msg.kind(), wire::encode(&msg).unwrap());
        // Everything sent so far is in the host's inbox once acked.
        let delivered = || assert!(guest_ep.flush(std::time::Duration::from_secs(5)));
        let step = |host: &mut HostParty, core: &mut HostCore| {
            assert!(host.step(core, true).unwrap(), "a message");
        };
        let one = Ciphertext::Plain(PlainNumber { value: 1.0, exponent: cfg.encoding.base_exp });
        let (g, h) = (vec![one.clone(); 8], vec![one; 8]);
        let split = |left: usize| (0..8).map(|row| row < left).collect::<Vec<_>>();
        send(Msg::Resume { session_id: 0, tree_count: 0 });
        send(Msg::GradBatch { tree: 0, start_row: 0, g, h, last: true });
        send(Msg::ApplyPlacement { tree: 0, node: 0, speculative: false, placement: split(3) });
        send(Msg::NodeTask { tree: 0, node: 1, epoch: 1 });
        for _ in 0..4 {
            step(&mut host, &mut core);
        }
        // The root re-splits while node 1 is being built: no answer.
        send(Msg::ApplyPlacement { tree: 0, node: 0, speculative: false, placement: split(5) });
        delivered();
        host.run_one_task(&mut core).unwrap();
        assert!(core.queued().is_empty());
        assert_eq!(host.telemetry.events.aborted_tasks, 1);
        // Node 1 asked again, then superseded while in flight: it is built
        // again at the newer epoch, and only that answer ships.
        send(Msg::NodeTask { tree: 0, node: 1, epoch: 2 });
        step(&mut host, &mut core);
        send(Msg::NodeTask { tree: 0, node: 1, epoch: 3 });
        delivered();
        host.run_one_task(&mut core).unwrap();
        assert_eq!(core.queued(), vec![1]);
        host.run_one_task(&mut core).unwrap();
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
        let data = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None);
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(EncodingConfig::default());
        let handle = std::thread::spawn(move || {
            run_host(3, &data, cfg, suite, host_ep, None, ChaosPlan::default())
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
