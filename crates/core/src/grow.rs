//! The guest's tree growth as a pure core: the paper's optimistic
//! node-splitting (§4.2, Figs. 5–6) as one state machine per tree —
//! speculate, validate, roll back, re-split — and the guest's one
//! admission of what a host sends it.
//!
//! [`admit`] judges every host message once: a histogram's ciphers, the
//! kinds the guest never accepts, the handshake's order, a histogram's
//! shape against its host's metadata and the run's gradient path, and —
//! against the tree's ledger — whether the host owes the answer.
//! [`TreeCore`] decides which node is tasked, speculated, resolved, rolled
//! back or placed, and it is the one record of what each
//! host owes this tree. Its inputs are plain data and three events — the
//! guest's own best split of a node, a host's decrypted answer, a host's
//! placement. An event only queues work; the shell pulls the resulting
//! [`Action`]s one at a time ([`TreeCore::next`]), so it sends, searches
//! and splits in the order, and at the moments, the recursive protocol
//! did. Two actions are requests the shell answers before it pulls again:
//! a [`Search`] (the guest's FindSplitB of a node) and a `Split` (the
//! guest's placement of a node, which [`TreeCore::split`] makes). The shell
//! (`guest.rs`) owns the links, the cipher suite, the clock and the
//! counters.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use vf2_crypto::encoding::EncodingConfig;
use vf2_gbdt::histogram::GradPair;
use vf2_gbdt::split::{best_of, find_best_split, SplitCandidate, SplitParams};
use vf2_gbdt::tree::{layer_of, left_child, parent, right_child, NodeId, NodeSplit};

use crate::error::{PartyId, ProtocolError, TrainError};
use crate::grad_path::GradPath;
use crate::hist_enc::DecodedBins;
use crate::messages::{FeatureMeta, HistPayload, Msg};
use crate::model::{FedNode, FedTree};
use crate::rows::{NodeRows, RowMajorBins};

/// One host's histogram of one node as it decrypted, feature by feature.
pub(crate) type HostHist = Vec<DecodedBins>;

/// What every tree of a run shares: the split rule, the schedule, and what
/// the guest needs to place its own splits and judge a host's histograms.
pub(crate) struct Rules {
    pub split: SplitParams,
    pub max_layers: usize,
    /// Optimistic node-splitting (§4.2): act on the guest's own split
    /// before the hosts weigh in.
    pub optimistic: bool,
    pub encoding: EncodingConfig,
    /// What a histogram's ciphers and shape must be, and a derived bin's
    /// limits.
    pub path: GradPath,
    /// The guest's one binned form: its FindSplitB walks, its placements
    /// and its thresholds.
    pub bins: RowMajorBins,
}

impl Rules {
    /// The tail of every host histogram, received or derived: float
    /// decode, zero mass against the node's own `total`, split search.
    pub fn feature_best(
        &self,
        feature: usize,
        meta: FeatureMeta,
        bins: &DecodedBins,
        total: GradPair,
    ) -> Option<SplitCandidate> {
        // Admission checked `zero_bin < num_bins` and the bin count, so the
        // histogram exists.
        let hist = bins.to_histogram(&self.encoding, meta.zero_bin, total)?;
        find_best_split(feature, &hist, total, &self.split)
    }
}

/// One host's handshake as far as it has gone: its `SessionHello` sets
/// `durable`, its `FeatureMeta` sets `metas` — even an empty list ends the
/// handshake.
#[derive(Debug, Default)]
pub(crate) struct Handshake {
    /// The durable checkpoints the hello announced.
    pub durable: Option<Vec<u32>>,
    /// The histogram structure the metadata announced.
    pub metas: Option<Vec<FeatureMeta>>,
}

impl Handshake {
    /// The features the host announced; none before its handshake ends,
    /// and no answer of it is admitted before that.
    pub fn metas(&self) -> &[FeatureMeta] {
        self.metas.as_deref().unwrap_or_default()
    }
}

/// A host message the guest admitted.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// The host's hello, its durable list recorded: the shell checks the
    /// session it names.
    Hello { session_id: u64 },
    /// The host's metadata, recorded: its handshake is done.
    Meta,
    /// An answer the tree being grown is owed.
    Answer(Answer),
    /// An honest straggler from a completed tree: dropped, counted, traced
    /// with why.
    Stale(&'static str),
}

/// A host's answer to a request of the tree being grown.
#[derive(Debug)]
pub(crate) enum Answer {
    /// Its histogram of `(node, epoch)`, shaped as its metadata and the
    /// run's gradient path say.
    Histograms { node: NodeId, epoch: u32, payload: HistPayload },
    /// Its placement of `node`, owed to a split choice.
    Placement { node: NodeId, placement: Vec<bool> },
}

/// The guest's one admission of a decoded message from host `host`. In
/// order, each once: a histogram's ciphers; a kind the guest never accepts;
/// the metadata's bounds, or a node inside the tree heap; the handshake's
/// order (hello, metadata, then answers only); a histogram's shape against
/// the host's metadata and the run's gradient path; and, against `tree`'s
/// ledger, whether the host owes the answer — one for a completed tree is
/// an honest straggler. A refused message changes nothing.
pub(crate) fn admit(
    rules: &Rules,
    host: usize,
    handshake: &mut Handshake,
    msg: Msg,
    tree: Option<&mut TreeCore>,
) -> Result<Inbound, ProtocolError> {
    let (from, kind) = (PartyId::Host(host), msg.kind());
    let (phase, out_of_order) = match (&handshake.durable, &handshake.metas) {
        (None, _) => ("await-hello", "a connection must open with the session hello"),
        (Some(_), None) => ("await-meta", "feature metadata must follow the hello"),
        (Some(_), Some(_)) => ("active", "handshake replayed mid-run"),
    };
    let out_of_phase = |context| ProtocolError::OutOfPhase { from, kind, phase, context };
    let inadmissible = |context| ProtocolError::Inadmissible { from, kind, context };
    let replayed = |context| ProtocolError::StaleOrReplayed { from, kind, context };
    rules.path.admit_hist_ciphers(&msg).map_err(inadmissible)?;
    // A tree of `max_layers` layers has 2^max_layers − 1 heap nodes.
    let heap = (1usize << rules.max_layers) - 1;
    let (tree_of, node, answer) = match msg {
        Msg::GradBatch { .. }
        | Msg::PackedGradBatch { .. }
        | Msg::NodeTask { .. }
        | Msg::ApplyPlacement { .. }
        | Msg::SplitValidated { .. }
        | Msg::HostSplitChosen { .. }
        | Msg::TreeDone { .. }
        | Msg::Resume { .. }
        | Msg::Shutdown => return Err(out_of_phase("message kind the guest never accepts")),
        Msg::SessionHello { session_id, durable } => {
            if handshake.durable.is_some() {
                return Err(out_of_phase(out_of_order));
            }
            handshake.durable = Some(durable);
            return Ok(Inbound::Hello { session_id });
        }
        Msg::FeatureMeta(metas) => {
            for m in &metas {
                if m.num_bins == 0 {
                    return Err(inadmissible("feature declares zero bins"));
                }
                if m.zero_bin >= m.num_bins {
                    return Err(inadmissible("zero bin outside the feature's bin range"));
                }
            }
            if handshake.durable.is_none() || handshake.metas.is_some() {
                return Err(out_of_phase(out_of_order));
            }
            handshake.metas = Some(metas);
            return Ok(Inbound::Meta);
        }
        Msg::NodeHistograms { node, .. } | Msg::Placement { node, .. } if node as usize >= heap => {
            return Err(inadmissible("node index outside the tree heap"));
        }
        Msg::NodeHistograms { tree, node, epoch, payload } => {
            let Some(metas) = &handshake.metas else { return Err(out_of_phase(out_of_order)) };
            rules.path.admit_hist_shape(&payload, metas).map_err(inadmissible)?;
            let node = node as NodeId;
            (tree, node, Answer::Histograms { node, epoch, payload })
        }
        Msg::Placement { tree, node, placement } => {
            if handshake.metas.is_none() {
                return Err(out_of_phase(out_of_order));
            }
            let node = node as NodeId;
            (tree, node, Answer::Placement { node, placement })
        }
    };
    let Some(core) = tree else { return Err(out_of_phase("an answer outside a tree")) };
    let owed = &mut core.owed[host];
    match (&answer, tree_of.cmp(&core.tree)) {
        (Answer::Histograms { .. }, Ordering::Greater) => {
            Err(out_of_phase("histograms for a future tree"))
        }
        (Answer::Histograms { .. }, Ordering::Less) => {
            Ok(Inbound::Stale("histograms from a completed tree"))
        }
        (Answer::Histograms { epoch, .. }, Ordering::Equal) => {
            if !core.tasked.contains(&(node, *epoch)) {
                return Err(out_of_phase("histograms for a task never issued"));
            }
            if !owed.answered.insert((node, *epoch)) {
                return Err(replayed("histogram replayed for the same node and epoch"));
            }
            Ok(Inbound::Answer(answer))
        }
        (Answer::Placement { .. }, Ordering::Greater) => {
            Err(out_of_phase("placement for a future tree"))
        }
        // A host answering a split choice whose node was rolled back
        // meanwhile: the reply can cross the tree boundary and is honest.
        (Answer::Placement { .. }, Ordering::Less) => {
            Ok(Inbound::Stale("placement from a completed tree"))
        }
        (Answer::Placement { .. }, Ordering::Equal) => match owed.placements.get_mut(&node) {
            Some(due) if *due > 0 => {
                *due -= 1;
                Ok(Inbound::Answer(answer))
            }
            _ => Err(replayed("placement that answers no outstanding split choice")),
        },
    }
}

/// A node whose rows are ready: the shell runs FindSplitB over the guest's
/// own features and hands the best split back with this token
/// ([`TreeCore::on_guest_best`]) before it pulls the next action.
#[derive(Debug, PartialEq)]
pub(crate) struct Search {
    pub node: NodeId,
    pub total: GradPair,
    /// The node whose `NodeTask` answers for this one: itself, or — for the
    /// larger child of a split — its smaller sibling.
    asked: NodeId,
}

/// One thing the shell must do, in the order the core decided it.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Run the guest's FindSplitB of a node and answer it.
    Search(Search),
    /// Broadcast `NodeTask`: every host now owes its histogram of that
    /// exact `(node, epoch)`.
    Task { node: NodeId, epoch: u32 },
    /// A node became a leaf (the hosts need not hear of it).
    Leaf,
    /// Split `node` on the guest's own candidate, optimistically or as the
    /// validated winner: [`TreeCore::split`] places its rows, and the shell
    /// broadcasts the placement.
    Split { node: NodeId, split: SplitCandidate, speculative: bool },
    /// The guest's own split of `node` won its validation; a `speculative`
    /// one tells the hosts, whose histograms of its children wait on it.
    GuestWon { node: NodeId, speculative: bool },
    /// Host `host`'s split of `node` won: send it `HostSplitChosen`.
    HostChosen { host: usize, node: NodeId, split: SplitCandidate },
    /// Host `host`'s placement of `node` applied: relay it to the other
    /// hosts so their row lists stay aligned.
    Relay { host: usize, node: NodeId, placement: Vec<bool> },
    /// A speculated `node` lost to a host's split: its subtree is gone.
    Rollback { node: NodeId },
    /// A host's histogram of a larger child was derived.
    Derived,
    /// A host's answer no honest host sends: charge it.
    Violation { host: usize, error: ProtocolError },
    /// A histogram a rollback or a placement retired before it was
    /// recorded: an honest straggler.
    StaleHist,
    /// A placement for a node rolled back (or re-awarded) while it was in
    /// flight: an honest straggler, not misbehavior.
    StalePlacement { host: usize },
}

/// Which party won a node, if any.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Winner {
    None,
    Guest(SplitCandidate),
    Host(usize, SplitCandidate),
}

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

/// The guest's own best split of an undecided node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GuestSplit {
    None,
    /// Held back: the schedule is sequential, or the node's parent is not
    /// validated yet (the one-layer speculation bound).
    Held(SplitCandidate),
    /// Applied optimistically: the node's children stand on it.
    Speculated(SplitCandidate),
}

/// Where a node stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Undecided until every host's answer is in.
    Open(GuestSplit),
    /// Host `h`'s split won; its placement is owed.
    Placing(usize),
    /// A leaf, or a split whose children stand.
    Resolved,
}

/// Per-node in-flight state.
struct NodeState {
    total: GradPair,
    asked: NodeId,
    stage: Stage,
    /// One slot per host, index-aligned with the roster.
    answers: Vec<HostAnswer>,
}

impl NodeState {
    /// `host`'s histogram of this node, once it is in.
    fn hist(&self, host: usize) -> Option<&HostHist> {
        match &self.answers[host] {
            HostAnswer::Answered { hist, .. } => Some(hist),
            HostAnswer::Waiting => None,
        }
    }

    /// True once no host's answer is still owed.
    fn all_in(&self) -> bool {
        !self.answers.contains(&HostAnswer::Waiting)
    }

    /// The winner among the guest's candidate and every host's; a host
    /// must beat strictly, so host index breaks ties.
    fn winner(&self, guest: GuestSplit) -> Winner {
        let mut win = match guest {
            GuestSplit::None => Winner::None,
            GuestSplit::Held(c) | GuestSplit::Speculated(c) => Winner::Guest(c),
        };
        for (h, answer) in self.answers.iter().enumerate() {
            if let HostAnswer::Answered { best: Some(c), .. } = answer {
                let beats = match win {
                    Winner::None => true,
                    Winner::Guest(g) | Winner::Host(_, g) => c.gain > g.gain,
                };
                if beats {
                    win = Winner::Host(h, *c);
                }
            }
        }
        win
    }
}

/// A step of the tree's growth, kept on the agenda while a FindSplitB
/// interrupts the steps before it.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A node whose row list just became available.
    Materialize { node: NodeId, asked: NodeId },
    /// Decide a node, if every host's answer is in.
    Resolve(NodeId),
    /// Split a node optimistically now that its parent is validated, if
    /// the one-layer bound held it back.
    Speculate(NodeId),
}

/// What one host owes this tree.
#[derive(Debug, Default)]
struct Owed {
    /// The tasks it has answered: a second answer is a replay.
    answered: HashSet<(NodeId, u32)>,
    /// Split choices not yet placed, per node (a rollback and a re-resolve
    /// can legitimately issue two for one node, hence a count).
    placements: HashMap<NodeId, u32>,
}

/// One tree's growth at the guest.
pub(crate) struct TreeCore {
    rules: Arc<Rules>,
    tree: u32,
    grads: Vec<GradPair>,
    rows: NodeRows,
    /// Bumped at every (re-)materialization and rollback, so that an answer
    /// to an older task is recognised as stale.
    epoch: Vec<u32>,
    states: HashMap<NodeId, NodeState>,
    /// The tree being built: a node is written when it resolves and is
    /// `Absent` again when a rollback takes it.
    fed: FedTree,
    /// Steps still to take, the next one last.
    agenda: Vec<Step>,
    /// Actions decided and not yet pulled.
    actions: VecDeque<Action>,
    /// `(node, epoch)` of every `NodeTask` broadcast this tree.
    tasked: HashSet<(NodeId, u32)>,
    owed: Vec<Owed>,
}

impl TreeCore {
    /// Tree `tree` over `grads`, against `hosts` hosts, its root the first
    /// node to materialize.
    pub fn new(rules: Arc<Rules>, hosts: usize, tree: u32, grads: Vec<GradPair>) -> TreeCore {
        let max_layers = rules.max_layers;
        TreeCore {
            rows: NodeRows::new_tree(grads.len(), max_layers),
            epoch: vec![0; (1 << max_layers) - 1],
            fed: FedTree::new(max_layers),
            owed: (0..hosts).map(|_| Owed::default()).collect(),
            states: HashMap::new(),
            agenda: vec![Step::Materialize { node: 0, asked: 0 }],
            actions: VecDeque::new(),
            tasked: HashSet::new(),
            rules,
            tree,
            grads,
        }
    }

    pub fn tree(&self) -> u32 {
        self.tree
    }

    pub fn grads(&self) -> &[GradPair] {
        &self.grads
    }

    pub fn rows(&self, node: NodeId) -> Cow<'_, [u32]> {
        self.rows.rows(node)
    }

    pub fn count(&self, node: NodeId) -> usize {
        self.rows.count(node)
    }

    /// The finished tree and its row lists.
    pub fn finish(self) -> (FedTree, NodeRows) {
        (self.fed, self.rows)
    }

    /// True once every node standing is decided.
    pub fn is_complete(&self) -> bool {
        self.states.values().all(|s| s.stage == Stage::Resolved)
    }

    /// The node's gradient total while `host`'s answer for `(node, epoch)`
    /// is still wanted — the epoch is the node's current one and the node
    /// waits on that host — and `None` once a rollback, a re-split or a
    /// placement retired it. The shell asks when it enqueues an answer and
    /// again before it decrypts one; [`Self::on_answer`] asks last.
    pub fn awaits(&self, host: usize, node: NodeId, epoch: u32) -> Option<GradPair> {
        let state = self.states.get(&node).filter(|_| self.epoch.get(node) == Some(&epoch))?;
        matches!(state.answers[host], HostAnswer::Waiting).then_some(state.total)
    }

    /// The sequential schedule's hold predicate: true once the whole
    /// frontier can be decided at once — no host-won node still awaits its
    /// placement (so every node of the layer exists) and every undecided
    /// node has each host's answer recorded or `queued` (for a split's
    /// larger child, that is its smaller sibling's answer).
    pub fn layer_is_buffered(&self, queued: impl Fn(usize, NodeId) -> bool) -> bool {
        self.states.values().all(|s| match s.stage {
            Stage::Resolved => true,
            Stage::Placing(_) => false,
            Stage::Open(_) => s.answers.iter().enumerate().all(|(host, answer)| {
                !matches!(answer, HostAnswer::Waiting) || queued(host, s.asked)
            }),
        })
    }

    /// The guest's own best split of the searched node: the node stands,
    /// its task goes out when it is the one asked, and it is split
    /// optimistically when the schedule allows.
    pub fn on_guest_best(&mut self, search: Search, best: Option<SplitCandidate>) {
        let Search { node, total, asked } = search;
        if asked == node {
            let epoch = self.epoch[node];
            self.tasked.insert((node, epoch));
            self.actions.push_back(Action::Task { node, epoch });
        }
        // Speculation is bounded to ONE layer beyond the validated
        // frontier, as in the paper ("only after FindSplitB of layer l+1 is
        // done will Party B pause"): splitting deeper would let a dirty
        // node near the root waste a whole subtree of host work.
        let validated = parent(node).is_none_or(|p| self.fed.nodes[p] != FedNode::Absent);
        let guest = match best {
            None => GuestSplit::None,
            Some(best) if self.rules.optimistic && validated => GuestSplit::Speculated(best),
            Some(best) => GuestSplit::Held(best),
        };
        let answers = vec![HostAnswer::Waiting; self.owed.len()];
        self.states.insert(node, NodeState { total, asked, stage: Stage::Open(guest), answers });
        if let GuestSplit::Speculated(split) = guest {
            self.actions.push_back(Action::Split { node, split, speculative: true });
        }
    }

    /// Host `host`'s decrypted answer for `(node, epoch)`, over the
    /// features `metas` it announced. One no longer wanted is stale; a
    /// wanted one is recorded, completes whatever derivations it can — as
    /// the smaller child of its parent, and as the parent of a child this
    /// host answered first (a re-issued task keeps its place in the host's
    /// queue) — and resolves every node that now has all its answers,
    /// parent before child.
    pub fn on_answer(
        &mut self,
        host: usize,
        metas: &[FeatureMeta],
        node: NodeId,
        epoch: u32,
        best: Option<SplitCandidate>,
        hist: HostHist,
    ) {
        let current = self.epoch.get(node) == Some(&epoch);
        match self.states.get_mut(&node).filter(|_| current).map(|s| &mut s.answers[host]) {
            Some(slot) if *slot == HostAnswer::Waiting => {
                *slot = HostAnswer::Answered { best, hist };
            }
            _ => return self.actions.push_back(Action::StaleHist),
        }
        let mut answered = vec![node];
        let mut splits: Vec<NodeId> = parent(node).into_iter().chain([node]).collect();
        while let Some(split) = splits.pop() {
            if let Some(derived) = self.derive_larger(host, metas, split) {
                answered.push(derived);
                splits.push(derived);
            }
        }
        // A node resolved dirty takes its children with it; their steps
        // then find nothing to decide.
        self.agenda.extend(answered.into_iter().rev().map(Step::Resolve));
    }

    /// Host `host`'s placement of `node`: applied and relayed while the node
    /// awaits it, a stale straggler otherwise. One that does not cover the
    /// node's rows is a typed protocol error.
    pub fn on_placement(
        &mut self,
        host: usize,
        node: NodeId,
        placement: Vec<bool>,
    ) -> Result<(), TrainError> {
        let Some(state) = self.states.get_mut(&node).filter(|s| s.stage == Stage::Placing(host))
        else {
            self.actions.push_back(Action::StalePlacement { host });
            return Ok(());
        };
        if placement.len() != self.rows.count(node) {
            let context = "placement length differs from the node's row count";
            let from = PartyId::Host(host);
            return Err(ProtocolError::UnexpectedMessage { from, kind: 7, context }.into());
        }
        state.stage = Stage::Resolved;
        self.fed.nodes[node] = FedNode::HostSplit { party: host as u16 };
        self.rows.apply_placement(node, &placement);
        self.actions.push_back(Action::Relay { host, node, placement });
        self.children(node);
        Ok(())
    }

    /// The next thing to do, taking the agenda's steps until one decides
    /// something; `None` once nothing is left until the next event.
    pub fn next(&mut self) -> Option<Action> {
        while self.actions.is_empty() {
            match self.agenda.pop()? {
                Step::Materialize { node, asked } => {
                    self.epoch[node] += 1;
                    let total = RowMajorBins::rows_total(&self.rows.rows(node), &self.grads);
                    if layer_of(node) + 1 == self.rules.max_layers {
                        self.leaf(node, total);
                    } else {
                        self.actions.push_back(Action::Search(Search { node, total, asked }));
                    }
                }
                Step::Resolve(node) => self.resolve(node),
                Step::Speculate(node) => {
                    let Some(state) = self.states.get_mut(&node) else { continue };
                    let Stage::Open(GuestSplit::Held(split)) = state.stage else { continue };
                    state.stage = Stage::Open(GuestSplit::Speculated(split));
                    self.actions.push_back(Action::Split { node, split, speculative: true });
                }
            }
        }
        self.actions.pop_front()
    }

    /// Carries out a `Split` action: the guest's placement of `node`'s rows
    /// on its own candidate, applied, with both children queued. The shell
    /// broadcasts what it returns.
    pub fn split(&mut self, node: NodeId, split: SplitCandidate) -> Vec<bool> {
        let placement = self.rules.bins.placement(&self.rows.rows(node), split.feature, split.bin);
        self.rows.apply_placement(node, &placement);
        self.children(node);
        placement
    }

    fn leaf(&mut self, node: NodeId, total: GradPair) {
        self.fed.nodes[node] = FedNode::Leaf(self.rules.split.leaf_weight(total));
        self.actions.push_back(Action::Leaf);
    }

    /// Queues both children of a freshly (re-)split node, the hosts tasked
    /// with the *smaller* one only — row counts from the shared placement,
    /// ties to the left; [`Self::derive_larger`] answers for the other. A
    /// host builds, packs and ships one child per split.
    fn children(&mut self, node: NodeId) {
        let (left, right) = (left_child(node), right_child(node));
        let asked = if self.rows.count(left) <= self.rows.count(right) { left } else { right };
        self.agenda.push(Step::Materialize { node: right, asked });
        self.agenda.push(Step::Materialize { node: left, asked });
    }

    /// Decides an undecided node once every host's answer is in: a leaf
    /// when nobody splits it, the guest's split validated, or a host's
    /// split chosen — the speculated subtree rolled back first when the
    /// guest had charged ahead (a dirty node, §4.2, Fig. 6).
    fn resolve(&mut self, node: NodeId) {
        let Some(state) = self.states.get_mut(&node).filter(|s| s.all_in()) else { return };
        let Stage::Open(guest) = state.stage else { return };
        let (winner, total) = (state.winner(guest), state.total);
        state.stage = match winner {
            Winner::Host(host, _) => Stage::Placing(host),
            Winner::None | Winner::Guest(_) => Stage::Resolved,
        };
        let speculated = matches!(guest, GuestSplit::Speculated(_));
        match winner {
            Winner::None => self.leaf(node, total),
            Winner::Guest(best) => {
                let threshold = self.rules.bins.cuts(best.feature)[usize::from(best.bin)];
                let split = NodeSplit { feature: best.feature, bin: best.bin, threshold };
                self.fed.nodes[node] = FedNode::GuestSplit(split);
                self.actions.push_back(Action::GuestWon { node, speculative: speculated });
                if speculated {
                    // Validated: the children whose speculation waited on
                    // this may charge ahead one more layer.
                    self.agenda.push(Step::Speculate(right_child(node)));
                    self.agenda.push(Step::Speculate(left_child(node)));
                } else {
                    self.actions.push_back(Action::Split { node, split: best, speculative: false });
                }
            }
            Winner::Host(host, split) => {
                if speculated {
                    self.actions.push_back(Action::Rollback { node });
                    self.rollback_below(node);
                }
                *self.owed[host].placements.entry(node).or_insert(0) += 1;
                self.actions.push_back(Action::HostChosen { host, node, split });
            }
        }
    }

    /// Discards every strict descendant's state, decision and rows, and
    /// bumps their epochs so that answers in flight for them are stale.
    fn rollback_below(&mut self, node: NodeId) {
        let mut stack = vec![left_child(node), right_child(node)];
        while let Some(d) = stack.pop() {
            if d >= self.epoch.len() {
                continue;
            }
            self.epoch[d] += 1;
            self.states.remove(&d);
            self.fed.nodes[d] = FedNode::Absent;
            stack.extend([left_child(d), right_child(d)]);
        }
        self.rows.clear_descendants(node);
    }

    /// Derives host `host`'s histogram of `parent`'s larger child as
    /// `parent − smaller child` on the decrypted integers, once that host's
    /// histograms of both are in, and returns the child it answered for.
    /// Children not (or no longer) standing, a histogram still missing, the
    /// derivation already made: `None`. Paillier sums are integer-exact, so
    /// the difference is the number the host's own `parent ⊖ smaller` would
    /// have decrypted to. A smaller child no split of the parent produces
    /// is that host's violation, and the derivation is withheld.
    fn derive_larger(
        &mut self,
        host: usize,
        metas: &[FeatureMeta],
        parent: NodeId,
    ) -> Option<NodeId> {
        let (left, right) = (left_child(parent), right_child(parent));
        let smaller = self.states.get(&left)?.asked;
        let larger = left + right - smaller;
        // Held by value while its parent's and its sibling's are read.
        let mut state = self.states.remove(&larger)?;
        let hist_of = |node| self.states.get(&node).and_then(|s| s.hist(host));
        let waiting = matches!(state.answers[host], HostAnswer::Waiting);
        let pair = hist_of(parent).zip(hist_of(smaller)).filter(|_| waiting);
        let difference = pair.map(|(whole, part)| {
            // The largest honest `(|Σg|, Σh)` of a bin of the child.
            let limits = self.rules.path.field_limits(self.rows.count(larger));
            let sub = |(w, p): (&DecodedBins, _)| {
                w.checked_sub(p, &self.rules.encoding, (&limits.0, &limits.1))
            };
            whole.iter().zip(part).map(sub).collect::<Option<HostHist>>()
        });
        let derived = match difference {
            Some(Some(hist)) => {
                let metas = metas.iter().zip(&hist).enumerate();
                let total = state.total;
                let best = best_of(
                    metas.filter_map(|(f, (&m, bins))| self.rules.feature_best(f, m, bins, total)),
                );
                state.answers[host] = HostAnswer::Answered { best, hist };
                self.actions.push_back(Action::Derived);
                Some(larger)
            }
            Some(None) => {
                let context = "a child histogram that no split of its parent's produces";
                let error =
                    ProtocolError::Inadmissible { from: PartyId::Host(host), kind: 4, context };
                self.actions.push_back(Action::Violation { host, error });
                None
            }
            None => None,
        };
        self.states.insert(larger, state);
        derived
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_datagen::synthetic::{generate_classification, SyntheticConfig};
    use vf2_gbdt::binning::BinnedDataset;
    use vf2_gbdt::data::Dataset;

    use num_bigint::BigUint;
    use vf2_crypto::packing::GhPlan;
    use vf2_crypto::suite::{Ciphertext, PackedCiphertext, PlainNumber, Suite};
    use vf2_crypto::EncryptedNumber;

    use crate::config::{CryptoConfig, TrainConfig};
    use crate::messages::{GhPackedFeatureHist, PackedFeatureHist, RawFeatureHist};
    use crate::protocol::ProtocolConfig;

    /// The one host's one feature.
    const META: FeatureMeta = FeatureMeta { num_bins: 4, zero_bin: 0 };

    /// A guest over 64 labelled rows facing one host whose handshake
    /// announced a single 4-bin feature, at tree `tree`, with a log of
    /// every action the core decided (the guest's row-major bins, for its
    /// FindSplitB, are in the core's rules).
    struct Guest {
        core: TreeCore,
        handshake: Handshake,
        log: Vec<Action>,
    }

    fn guest(optimistic: bool, tree: u32) -> Guest {
        guest_over(&labelled(1.0), optimistic, tree)
    }

    /// 64 labelled rows over 3 features of the given density.
    fn labelled(density: f64) -> Dataset {
        generate_classification(&SyntheticConfig {
            rows: 64,
            features: 3,
            density,
            informative_frac: 1.0,
            label_noise: 0.1,
            seed: 5,
        })
    }

    /// The rules of a raw two-stream mock run over the guest's own `data`.
    fn rules_over(data: &Dataset, optimistic: bool) -> Rules {
        rules_packing(data, optimistic, false)
    }

    /// The rules of a two-stream mock run over `data` whose hosts ship
    /// packed prefix sums (`pack_histograms`) or raw bins.
    fn rules_packing(data: &Dataset, optimistic: bool, pack_histograms: bool) -> Rules {
        let cfg = TrainConfig {
            crypto: CryptoConfig::Mock,
            protocol: ProtocolConfig { pack_histograms, ..ProtocolConfig::vf2boost() },
            ..TrainConfig::for_tests()
        };
        Rules {
            split: cfg.gbdt.split,
            max_layers: cfg.gbdt.max_layers,
            optimistic,
            encoding: cfg.encoding,
            path: GradPath::of(&cfg, &Suite::plain(cfg.encoding), data.num_rows()).unwrap(),
            bins: RowMajorBins::bin(data, &cfg.gbdt.binning),
        }
    }

    /// [`guest`] over the guest's own `data`.
    fn guest_over(data: &Dataset, optimistic: bool, tree: u32) -> Guest {
        guest_under(rules_over(data, optimistic), data, tree)
    }

    /// [`guest`] under `rules` over `data`.
    fn guest_under(rules: Rules, data: &Dataset, tree: u32) -> Guest {
        let loss = TrainConfig::for_tests().gbdt.loss;
        let preds = vec![loss.base_score(); data.num_rows()];
        let grads = loss.grad_hess_all(data.labels().unwrap(), &preds);
        let core = TreeCore::new(Arc::new(rules), 1, tree, grads);
        let handshake = Handshake { durable: Some(vec![]), metas: Some(vec![META]) };
        Guest { core, handshake, log: Vec::new() }
    }

    /// An admission's outcome as the shell tells it apart.
    fn verdict(admitted: Result<Inbound, ProtocolError>) -> Result<&'static str, ProtocolError> {
        admitted.map(|inbound| match inbound {
            Inbound::Hello { .. } => "hello",
            Inbound::Meta => "meta",
            Inbound::Answer(_) => "answer",
            Inbound::Stale(why) => why,
        })
    }

    /// The context of an `Inadmissible` verdict of kind `kind`.
    fn inadmissible(verdict: Result<&'static str, ProtocolError>, kind: u16) -> &'static str {
        match verdict {
            Err(ProtocolError::Inadmissible { kind: k, context, .. }) if k == kind => context,
            other => panic!("expected an inadmissible kind {kind}, got {other:?}"),
        }
    }

    impl Guest {
        /// Host 0's message, admitted against its handshake and this tree.
        fn admit(&mut self, msg: Msg) -> Result<&'static str, ProtocolError> {
            let rules = Arc::clone(&self.core.rules);
            verdict(super::admit(&rules, 0, &mut self.handshake, msg, Some(&mut self.core)))
        }

        /// Carries out the core's actions as the shell does: logs them,
        /// and runs every FindSplitB and split the core asks for.
        fn drain(&mut self) {
            while let Some(action) = self.core.next() {
                match action {
                    Action::Search(search) => {
                        let rows = self.core.rows(search.node);
                        let hists = self.core.rules.bins.node_histograms(&rows, &self.core.grads);
                        let split =
                            |(f, h)| find_best_split(f, h, search.total, &self.core.rules.split);
                        let best = best_of(hists.iter().enumerate().filter_map(split));
                        self.core.on_guest_best(search, best);
                    }
                    Action::Split { node, split, .. } => {
                        self.core.split(node, split);
                        self.log.push(action);
                    }
                    other => self.log.push(other),
                }
            }
        }

        fn total(&self, node: NodeId) -> GradPair {
            self.core.states[&node].total
        }

        /// Commits the host's answer for `node` at its current epoch,
        /// holding `bins`, searched as the shell searches a decrypted one.
        fn commit(&mut self, node: NodeId, bins: [GradPair; 4]) {
            let hist = vec![DecodedBins::Float(bins.to_vec())];
            let best = self.core.rules.feature_best(0, META, &hist[0], self.total(node));
            self.core.on_answer(0, &[META], node, self.core.epoch[node], best, hist);
            self.drain();
        }

        /// The host's placement of `node`, `left` rows to the left.
        fn place(&mut self, node: NodeId, left: impl Fn(u32) -> bool) {
            let placement = self.core.rows(node).iter().map(|&r| left(r)).collect();
            self.core.on_placement(0, node, placement).unwrap();
            self.drain();
        }

        fn count(&self, which: impl Fn(&Action) -> bool) -> usize {
            self.log.iter().filter(|&a| which(a)).count()
        }

        /// The nodes tasked so far, in order.
        fn tasks(&self) -> Vec<NodeId> {
            let task = |a: &Action| match a {
                Action::Task { node, .. } => Some(*node),
                _ => None,
            };
            self.log.iter().filter_map(task).collect()
        }

        fn derived_of(&self, node: NodeId) -> Option<HostHist> {
            self.core.states[&node].hist(0).cloned()
        }
    }

    /// Every stored row in the last bin: whatever the split, one side is
    /// empty, so the host offers no candidate and the guest's own stands.
    fn uninformative(total: GradPair) -> [GradPair; 4] {
        [GradPair::ZERO, GradPair::ZERO, GradPair::ZERO, total]
    }

    /// A split the guest's own cannot beat.
    fn winning(total: GradPair) -> [GradPair; 4] {
        [
            GradPair { g: -1000.0, h: 0.5 * total.h },
            GradPair { g: total.g + 1000.0, h: 0.5 * total.h },
            GradPair::ZERO,
            GradPair::ZERO,
        ]
    }

    /// A mock cipher inside the encoding's window.
    fn mock() -> Ciphertext {
        Ciphertext::Plain(PlainNumber { value: 0.0, exponent: 8 })
    }

    /// A raw histogram of `features` features of `bins` bins each.
    fn raw(features: usize, bins: usize) -> HistPayload {
        let feature = RawFeatureHist { g: vec![mock(); bins], h: vec![mock(); bins] };
        HistPayload::Raw(vec![feature; features])
    }

    fn hist_of(tree: u32, node: NodeId, epoch: u32, payload: HistPayload) -> Msg {
        Msg::NodeHistograms { tree, node: node as u32, epoch, payload }
    }

    /// An honestly shaped histogram of the one host's one feature.
    fn hist(tree: u32, node: NodeId, epoch: u32) -> Msg {
        hist_of(tree, node, epoch, raw(1, 4))
    }

    fn placement(tree: u32, node: NodeId) -> Msg {
        Msg::Placement { tree, node: node as u32, placement: vec![] }
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
        let mut g = guest(true, 0);
        g.drain();
        let derived = |g: &Guest| g.count(|a| *a == Action::Derived);

        // The root speculated on the guest's own split: both children
        // stand, one of them asked for.
        let child = g.core.states[&1].asked;
        let other = if child == 1 { 2 } else { 1 };
        assert_eq!(g.core.states[&other].asked, child);
        assert!(g.core.rows(child).len() <= g.core.rows(other).len());

        // The child's answer first. It resolves on the guest's split and
        // its own children stand; its sibling waits for the root's answer.
        let bins = uninformative(g.total(child));
        g.commit(child, bins);
        assert_eq!(g.core.states[&child].stage, Stage::Resolved);
        assert_eq!(g.core.states[&other].answers[0], HostAnswer::Waiting);
        let grandchild = g.core.states[&left_child(child)].asked;
        let sibling = left_child(child) + right_child(child) - grandchild;

        // The grandchild's answer: its sibling is derived — and, with one
        // host, resolved — as `child − grandchild`, bin for bin.
        let part = uninformative(g.total(grandchild));
        g.commit(grandchild, part);
        assert_eq!(derived(&g), 1);
        let state = &g.core.states[&sibling];
        assert!(state.stage == Stage::Resolved && state.all_in());
        let want = [GradPair::ZERO, GradPair::ZERO, GradPair::ZERO, bins[3] - part[3]];
        assert_eq!(g.derived_of(sibling), Some(vec![DecodedBins::Float(want.to_vec())]));

        // The root's answer last, with a split the guest's cannot beat. The
        // waiting sibling is derived at last, and then the root is dirty:
        // everything below it goes, retained histograms included.
        let whole = winning(g.total(0));
        g.commit(0, whole);
        assert_eq!(derived(&g), 2);
        assert_eq!(g.count(|a| matches!(a, Action::Rollback { .. })), 1);
        assert_eq!(g.core.states.keys().collect::<Vec<_>>(), [&0]);
        assert_eq!(g.core.states[&0].stage, Stage::Placing(0));
        assert_eq!(g.derived_of(0), Some(vec![DecodedBins::Float(whole.to_vec())]));

        // The host's placement re-splits the root 20 / 44: fresh children,
        // nothing retained, nothing answered, the smaller one asked for.
        g.place(0, |row| row < 20);
        for node in [1, 2] {
            let state = &g.core.states[&node];
            assert_eq!((state.asked, &state.answers[0]), (1, &HostAnswer::Waiting));
        }
        // One task per split all along — the root's validated split lets
        // both new children speculate, one task each again.
        let asked = [0, child, grandchild, 1, g.core.states[&3].asked, g.core.states[&5].asked];
        assert_eq!(g.tasks(), asked);

        // The new smaller child's answer rebuilds the larger one from the
        // root's histogram, which outlived the rollback.
        let part = uninformative(g.total(1));
        g.commit(1, part);
        assert_eq!(derived(&g), 3);
        assert!(g.core.states[&2].all_in());
        let want = [whole[0], whole[1], GradPair::ZERO, GradPair::ZERO - part[3]];
        assert_eq!(g.derived_of(2), Some(vec![DecodedBins::Float(want.to_vec())]));
    }

    /// A speculated split that wins its validation is announced (the hosts
    /// hold their histograms of its children until then); a split held
    /// back while its parent was undecided, and placed only once it won,
    /// is not. Here the child answered first resolves on its held split;
    /// the root's answer then validates the root, and its other child,
    /// derived at once, speculates and is validated too.
    #[test]
    fn only_a_validated_speculation_is_announced() {
        let mut g = guest(true, 0);
        g.drain();
        let child = g.core.states[&1].asked;
        let other = if child == 1 { 2 } else { 1 };
        let bins = uninformative(g.total(child));
        g.commit(child, bins);
        let bins = uninformative(g.total(0));
        g.commit(0, bins);
        let won = |a: &Action| match *a {
            Action::GuestWon { node, speculative } => Some((node, speculative)),
            _ => None,
        };
        let won: Vec<_> = g.log.iter().filter_map(won).collect();
        assert_eq!(won, [(child, false), (0, true), (other, true)]);
    }

    #[test]
    fn guest_admits_only_answers_to_issued_requests() {
        let mut g = guest(false, 3);
        g.drain();
        assert_eq!(g.tasks(), [0]);
        // The tasked histogram delivers exactly once.
        assert_eq!(g.admit(hist(3, 0, 1)), Ok("answer"));
        let err = g.admit(hist(3, 0, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        // Never-tasked node or epoch.
        let err = g.admit(hist(3, 5, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        let err = g.admit(hist(3, 0, 9)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Future tree is a violation; completed tree is honest staleness.
        let err = g.admit(hist(4, 0, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        assert_eq!(g.admit(hist(2, 0, 1)), Ok("histograms from a completed tree"));
    }

    #[test]
    fn guest_placement_accounting_allows_rollback_reissues() {
        let mut g = guest(true, 3);
        g.drain();
        let child = g.core.states[&1].asked;
        let chosen = |g: &Guest, node| {
            g.count(|a| matches!(a, Action::HostChosen { node: n, .. } if *n == node))
        };
        // Unsolicited placement.
        let err = g.admit(placement(3, child)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        // The host's split wins the asked child (held back: its parent is
        // not validated), then the root, which is dirty: the child's split
        // choice is rolled back unanswered.
        g.commit(child, winning(g.total(child)));
        g.commit(0, winning(g.total(0)));
        assert_eq!((chosen(&g, child), chosen(&g, 0)), (1, 1));
        // One request, one answer; the second answer is a replay.
        assert_eq!(g.admit(placement(3, 0)), Ok("answer"));
        let err = g.admit(placement(3, 0)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        // The root's placement keeps the child the smaller one; it is asked
        // for again and won again: a rollback re-issued the same node's
        // split choice, and both answers are admissible.
        g.place(0, |row| (row < 20) == (child == 1));
        assert_eq!(g.core.states[&child].asked, child);
        g.commit(child, winning(g.total(child)));
        assert_eq!(chosen(&g, child), 2);
        assert_eq!(g.admit(placement(3, child)), Ok("answer"));
        assert_eq!(g.admit(placement(3, child)), Ok("answer"));
        // Straggler placements across a tree boundary are honest.
        assert_eq!(g.admit(placement(2, 9)), Ok("placement from a completed tree"));
        let err = g.admit(placement(4, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
    }

    #[test]
    fn guest_begin_tree_voids_previous_bookkeeping() {
        let mut g = guest(true, 3);
        g.drain();
        g.commit(0, winning(g.total(0)));
        assert_eq!(g.core.owed[0].placements[&0], 1);
        // The next tree's core owes nothing: the old tree's task is stale
        // by tree index, and the new tree has no requests outstanding.
        let mut next = guest(true, 4);
        assert_eq!(next.admit(hist(3, 0, 1)), Ok("histograms from a completed tree"));
        let err = next.admit(hist(4, 0, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        let err = next.admit(placement(4, 0)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
    }

    /// A histogram answering a task that a rollback superseded, for a node
    /// tasked anew since: honest — admitted, never charged — and retired
    /// as stale once, leaving the live task's slot waiting.
    /// On a sparse guest the core's placements read each row's bin from
    /// the row-major table: at every feature and split bin they equal the
    /// column-major form's, and the split's threshold is the column's cut.
    #[test]
    fn a_sparse_guests_placements_equal_the_column_major_ones() {
        let data = labelled(0.4);
        let binning = TrainConfig::for_tests().gbdt.binning;
        let binned = BinnedDataset::bin(&data, &binning);
        assert!(binned.columns().iter().all(|c| c.nnz() < data.num_rows()), "a sparse guest");
        for (f, column) in binned.columns().iter().enumerate() {
            for bin in 0..column.cuts.len() as u16 {
                let mut g = guest_over(&data, false, 0);
                let split = SplitCandidate {
                    feature: f,
                    bin,
                    gain: 1.0,
                    left: GradPair::ZERO,
                    right: GradPair::ZERO,
                };
                let want: Vec<bool> =
                    (0..data.num_rows()).map(|r| column.bin_of_row(r) <= bin).collect();
                assert_eq!(g.core.split(0, split), want, "feature {f} bin {bin}");
                assert_eq!(g.core.rules.bins.cuts(f)[usize::from(bin)], column.threshold(bin));
            }
        }
    }

    #[test]
    fn a_histogram_for_a_superseded_epoch_is_stale_once_and_never_charged() {
        let mut g = guest(true, 0);
        g.drain();
        let child = g.core.states[&1].asked;
        let first = g.core.epoch[child];
        // The root's answer turns it dirty before the child's comes in, and
        // the host's placement re-splits it with the same child asked for.
        g.commit(0, winning(g.total(0)));
        g.place(0, |row| (row < 20) == (child == 1));
        let again = g.core.epoch[child];
        assert!(again > first);
        assert_eq!(g.tasks().iter().filter(|&&n| n == child).count(), 2);

        // The answer to the first task arrives: admitted, not a violation.
        assert_eq!(g.admit(hist(0, child, first)), Ok("answer"));
        // The shell's enqueue check retires it — its one stale count — and
        // were it committed anyway, the core would count it stale exactly
        // once and change nothing else.
        assert_eq!(g.core.awaits(0, child, first), None);
        let zeros = vec![DecodedBins::Float(vec![GradPair::ZERO; 4])];
        g.core.on_answer(0, &[META], child, first, None, zeros);
        assert_eq!((g.core.next(), g.core.next()), (Some(Action::StaleHist), None));
        // The live task still waits for its answer, which is admitted.
        assert_eq!(g.core.awaits(0, child, again), Some(g.total(child)));
        assert_eq!(g.admit(hist(0, child, again)), Ok("answer"));
    }

    fn hello() -> Msg {
        Msg::SessionHello { session_id: 0, durable: vec![3] }
    }

    /// A host opens with its hello, then its metadata, and sends answers
    /// only after both; an empty metadata list ends the handshake too.
    #[test]
    fn guest_handshake_order_is_enforced() {
        let rules = rules_over(&labelled(1.0), false);
        let mut hs = Handshake::default();
        let take = |hs: &mut Handshake, msg| verdict(admit(&rules, 1, hs, msg, None));
        let out_of_phase = |verdict: Result<_, _>| match verdict {
            Err(ProtocolError::OutOfPhase { from: PartyId::Host(1), phase, context, .. }) => {
                (phase, context)
            }
            other => panic!("expected an out-of-phase verdict, got {other:?}"),
        };
        let (phase, why) = out_of_phase(take(&mut hs, Msg::FeatureMeta(vec![])));
        assert_eq!((phase, why), ("await-hello", "a connection must open with the session hello"));
        assert_eq!(take(&mut hs, hello()), Ok("hello"));
        assert_eq!(hs.durable, Some(vec![3]));
        // A second hello is out of order, and so is an answer before the
        // metadata.
        assert_eq!(out_of_phase(take(&mut hs, hello())).0, "await-meta");
        let (_, why) = out_of_phase(take(&mut hs, placement(0, 0)));
        assert_eq!(why, "feature metadata must follow the hello");
        assert_eq!(take(&mut hs, Msg::FeatureMeta(vec![])), Ok("meta"));
        assert_eq!(hs.metas, Some(vec![]));
        for replay in [hello(), Msg::FeatureMeta(vec![])] {
            assert_eq!(
                out_of_phase(take(&mut hs, replay)),
                ("active", "handshake replayed mid-run")
            );
        }
        // An answer needs a tree to answer.
        assert_eq!(out_of_phase(take(&mut hs, placement(0, 0))).1, "an answer outside a tree");
        assert_eq!((hs.durable, hs.metas), (Some(vec![3]), Some(vec![])));
    }

    /// Answers reach the tree's ledger; every kind only the protocol driver
    /// sends is refused first, in any phase of the handshake.
    #[test]
    fn guest_passes_answers_and_rejects_driver_kinds() {
        let mut g = guest(false, 3);
        g.drain();
        assert_eq!(g.admit(hist(3, 0, 1)), Ok("answer"));
        let err = g.admit(placement(3, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { kind: 7, .. }), "{err}");
        let packed = Msg::PackedGradBatch { tree: 3, start_row: 0, gh: vec![mock()], last: false };
        for (msg, kind) in [(Msg::Shutdown, 10), (Msg::TreeDone { tree: 3 }, 9), (packed, 14)] {
            let early = |durable| Guest {
                handshake: Handshake { durable, metas: None },
                ..guest(false, 3)
            };
            for mut g in [early(None), early(Some(vec![])), guest(false, 3)] {
                let err = g.admit(msg.clone()).unwrap_err();
                assert!(
                    matches!(err, ProtocolError::OutOfPhase { kind: k, context, .. }
                        if k == kind && context == "message kind the guest never accepts"),
                    "{err}"
                );
            }
        }
    }

    /// Every feature needs a bin and its zero bin inside its range; bad
    /// bounds are refused before the handshake's order, and change it not.
    #[test]
    fn feature_meta_bounds_are_checked() {
        let rules = rules_over(&labelled(1.0), false);
        let mut hs = Handshake::default();
        let meta = |num_bins, zero_bin| Msg::FeatureMeta(vec![FeatureMeta { num_bins, zero_bin }]);
        let take = |hs: &mut Handshake, msg| verdict(admit(&rules, 0, hs, msg, None));
        assert_eq!(inadmissible(take(&mut hs, meta(0, 0)), 1), "feature declares zero bins");
        take(&mut hs, hello()).unwrap();
        for (bad, why) in
            [(meta(0, 0), "zero bins"), (meta(4, 4), "zero bin outside"), (meta(4, 9), "outside")]
        {
            assert!(inadmissible(take(&mut hs, bad), 1).contains(why));
            assert_eq!(hs.metas, None);
        }
        assert_eq!(take(&mut hs, meta(4, 3)), Ok("meta"));
    }

    /// A raw histogram carries one feature per announced feature, each of
    /// its announced bins. A refused one takes no ledger entry: the honest
    /// answer to the same task is admitted after it. A host that announced
    /// no feature has its histograms judged like any other.
    #[test]
    fn raw_hist_shape_must_match_negotiated_metas() {
        let mut g = guest(false, 3);
        g.drain();
        let mut uneven = raw(1, 4);
        if let HistPayload::Raw(feats) = &mut uneven {
            feats[0].h.pop();
        }
        for (payload, why) in [
            (raw(1, 3), "bin count disagrees"),
            (uneven, "bin count disagrees"),
            (raw(2, 4), "feature count disagrees"),
            (raw(0, 4), "feature count disagrees"),
        ] {
            assert!(inadmissible(g.admit(hist_of(3, 0, 1, payload)), 4).contains(why));
        }
        assert_eq!(g.admit(hist(3, 0, 1)), Ok("answer"));
        let mut empty = guest(false, 3);
        empty.drain();
        empty.handshake.metas = Some(vec![]);
        let refused = empty.admit(hist(3, 0, 1));
        assert!(inadmissible(refused, 4).contains("feature count disagrees"));
        assert_eq!(empty.admit(hist_of(3, 0, 1, raw(0, 0))), Ok("answer"));
    }

    /// A histogram's ciphers are judged before anything else: one answering
    /// a task never issued, with a cipher past the window, is inadmissible
    /// for its cipher, not out of phase for its task.
    #[test]
    fn a_histograms_ciphers_are_judged_before_its_task() {
        let mut g = guest(false, 3);
        g.drain();
        let late = Ciphertext::Plain(PlainNumber { value: 0.0, exponent: 12 });
        let feature = RawFeatureHist { g: vec![late; 4], h: vec![mock(); 4] };
        let never_issued = hist_of(3, 5, 1, HistPayload::Raw(vec![feature]));
        assert!(inadmissible(g.admit(never_issued), 4).contains("jitter window"));
        let err = g.admit(hist(3, 5, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
    }

    /// A packed prefix-sum histogram of one feature: `slots` values in one
    /// run per stream, declaring `bins` bins.
    fn packed(slots: usize, bins: u16) -> HistPayload {
        let run = vec![PackedCiphertext::Plain(vec![1.0; slots])];
        HistPayload::Packed(vec![PackedFeatureHist { g: run.clone(), h: run, bins }])
    }

    /// A packed feature declares its announced bins, and its runs' slots
    /// add up to them.
    #[test]
    fn packed_hist_slot_totals_must_match_declared_bins() {
        let data = labelled(1.0);
        let mut g = guest_under(rules_packing(&data, false, true), &data, 3);
        g.drain();
        let why = inadmissible(g.admit(hist_of(3, 0, 1, packed(5, 5))), 4);
        assert!(why.contains("disagrees with the negotiated metadata"), "{why}");
        let why = inadmissible(g.admit(hist_of(3, 0, 1, packed(3, 4))), 4);
        assert!(why.contains("slot total disagrees"), "{why}");
        assert_eq!(g.admit(hist_of(3, 0, 1, packed(4, 4))), Ok("answer"));
    }

    /// A two-stream run admits only the return form its hosts build: raw
    /// bins without packing, prefix sums with it. The other form is the
    /// other path's, refused and charged, however well shaped.
    #[test]
    fn a_two_stream_run_refuses_the_other_return_form() {
        let data = labelled(1.0);
        for (pack_histograms, other, own) in
            [(false, packed(4, 4), raw(1, 4)), (true, raw(1, 4), packed(4, 4))]
        {
            let mut g = guest_under(rules_packing(&data, false, pack_histograms), &data, 3);
            g.drain();
            let why = inadmissible(g.admit(hist_of(3, 0, 1, other)), 4);
            assert_eq!(why, "histogram wire form of the other gradient path");
            assert_eq!(g.admit(hist_of(3, 0, 1, own)), Ok("answer"));
        }
    }

    /// A histogram or a placement names a node inside the tree heap — in
    /// any phase, before the handshake's order is judged.
    #[test]
    fn a_placement_past_the_heap_is_inadmissible_at_the_guest() {
        // 4 layers => heap of 15 nodes (0..=14).
        let mut g = guest(false, 3);
        g.drain();
        let err = g.admit(placement(3, 14)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        for handshake in [Handshake::default(), Handshake { durable: Some(vec![]), metas: None }] {
            let mut early = Guest { handshake, ..guest(false, 3) };
            for msg in [placement(3, 15), placement(3, 99), hist(3, 15, 1)] {
                assert_eq!(
                    inadmissible(g.admit(msg.clone()), msg.kind()),
                    "node index outside the tree heap"
                );
                assert_eq!(early.admit(msg.clone()), g.admit(msg));
            }
        }
    }

    /// On a paired run a histogram is pair bins laid out as the plan this
    /// party derived; each gradient path refuses the other's wire forms.
    #[test]
    fn gh_hist_payloads_must_match_the_derived_plan() {
        let data = labelled(1.0);
        let cfg = TrainConfig::for_tests();
        let plan = GhPlan::new(1.0, 0.25, 5, &cfg.encoding).unwrap();
        // Both runs under one 256-bit key, so every cipher below keeps its
        // bounds and only the wire form or the layout is at fault.
        let key = Suite::paillier_seeded(256, 7, cfg.encoding).unwrap();
        let rules = |pack_histograms| {
            let protocol = ProtocolConfig { pack_histograms, ..cfg.protocol };
            let path = GradPath::of(&TrainConfig { protocol, ..cfg }, &key, 64).unwrap();
            Rules { path, ..rules_over(&data, false) }
        };
        let paired_rules = rules(true);
        let paired_rules = Rules { path: paired_rules.path.with_pairs(plan, 2), ..paired_rules };
        let mut paired = guest_under(paired_rules, &data, 3);
        let mut two_stream = guest_under(rules(false), &data, 3);
        let raw = |features, bins| {
            let c =
                Ciphertext::Paillier(EncryptedNumber { cipher: BigUint::from(7u32), exponent: 8 });
            let feature = RawFeatureHist { g: vec![c.clone(); bins], h: vec![c; bins] };
            HistPayload::Raw(vec![feature; features])
        };
        for g in [&mut paired, &mut two_stream] {
            g.drain();
            g.handshake.metas = Some(vec![FeatureMeta { num_bins: 3, zero_bin: 0 }]);
        }
        let run = |count: usize, slot_bits: u32, exponent: i32| PackedCiphertext::Paillier {
            cipher: BigUint::from(7u32),
            exponent,
            count,
            slot_bits,
        };
        let honest = |count: usize| run(count, plan.pair_bits(), plan.exponent());
        let feature =
            |packed: Vec<PackedCiphertext>, bins: u16| GhPackedFeatureHist { packed, bins };
        let gh = |features| hist_of(3, 0, 1, HistPayload::GhPacked(features));
        let ok = || gh(vec![feature(vec![honest(2), honest(1)], 3)]);
        let why = inadmissible(two_stream.admit(ok()), 4);
        assert_eq!(why, "histogram wire form of the other gradient path");
        let why = inadmissible(paired.admit(hist_of(3, 0, 1, raw(1, 3))), 4);
        assert_eq!(why, "histogram wire form of the other gradient path");
        for (bad, want) in [
            (gh(vec![feature(vec![honest(2), honest(2)], 3)]), "slot total disagrees"),
            (gh(vec![feature(vec![honest(2), honest(2)], 4)]), "bin declaration disagrees"),
            (gh(vec![feature(vec![honest(2), honest(1)], 3); 2]), "feature count disagrees"),
            // Layout against the plan this party derived: another width,
            // another exponent, more slots than the key carries. The mock's
            // runs are refused for their variant first.
            (
                gh(vec![feature(
                    vec![run(2, plan.pair_bits() + 1, plan.exponent()), honest(1)],
                    3,
                )]),
                "differs from the derived plan",
            ),
            (
                gh(vec![feature(
                    vec![run(2, plan.pair_bits(), plan.exponent() - 1), honest(1)],
                    3,
                )]),
                "differs from the derived plan",
            ),
            (gh(vec![feature(vec![honest(3)], 3)]), "differs from the derived plan"),
            (
                gh(vec![feature(vec![PackedCiphertext::Plain(vec![0.0; 3])], 3)]),
                "packed variant does not match the negotiated suite",
            ),
        ] {
            let why = inadmissible(paired.admit(bad), 4);
            assert!(why.contains(want), "{why} lacks {want}");
        }
        assert_eq!(paired.admit(ok()), Ok("answer"));
        assert_eq!(two_stream.admit(hist_of(3, 0, 1, raw(1, 3))), Ok("answer"));
    }
}
