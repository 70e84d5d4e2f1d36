//! The host's protocol as a pure core: what the guest may send the host
//! (the paper's Party A, §3.2) and the queue of sliced, abortable
//! histogram tasks that leaves behind (§4.2).
//!
//! [`HostCore`]'s phase carries the tree — its row lists, its resident
//! gradient streams, its root builders, its task queue and the histograms
//! it holds until the guest validates the split above them — and the core
//! holds the run's split table. Its one admission ([`HostCore::admit`])
//! makes every cipher, index, row-cursor, length and phase check of a
//! guest message once, and hands the shell a [`Step`] that borrows the
//! state it acts on: no handler can ask for a tree that is not there. The
//! shell (`host.rs`) owns the link, the suite, the pool, the clock and the
//! counters.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use vf2_crypto::suite::Ciphertext;
use vf2_gbdt::train::GbdtParams;
use vf2_gbdt::tree::{parent, right_child, NodeSplit};

use crate::error::{PartyId, ProtocolError, TrainError};
use crate::grad_path::GradPath;
use crate::hist_enc::{CipherStream, EncHistBuilder};
use crate::messages::{HistPayload, Msg};
use crate::model::HostSplitTable;
use crate::rows::{NodeRows, RowMajorBins};

/// One (gradient, hessian) builder pair — a node's whole encrypted
/// histogram (on the paired path the `h` half stays empty).
pub(crate) type BuilderPair = (EncHistBuilder, EncHistBuilder);

/// A node task: the histogram of `node` in tree `tree`, at `epoch`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Task {
    pub tree: u32,
    pub node: u32,
    pub epoch: u32,
}

/// One tree's state, from its first gradient batch to its `TreeDone`.
pub(crate) struct Tree {
    tree: u32,
    /// Encrypted gradients by row, typed by the suite's kind (on the paired
    /// path the one `(g, h)` stream).
    pub enc_g: CipherStream,
    /// Encrypted hessians by row; empty on the paired path.
    pub enc_h: CipherStream,
    /// The root builders the gradient batches feed, until the root ships.
    root: BuilderPair,
    rows: NodeRows,
    stage: Stage,
}

enum Stage {
    /// Gradient batches: the row the next must start at.
    Gradients { next_row: u32 },
    /// The node loop: queued tasks in arrival order, each node's latest
    /// epoch, the nodes whose guest placement is speculative and not
    /// validated yet, and the histograms built below those, held until the
    /// verdict.
    Nodes {
        queue: VecDeque<u32>,
        epochs: HashMap<u32, u32>,
        pending: HashSet<u32>,
        held: Vec<(Task, HistPayload)>,
    },
}

impl Tree {
    /// Tree `tree` before its first gradient batch: nothing sized yet.
    fn new(tree: u32, blank: &BuilderPair) -> Tree {
        let (enc_g, enc_h, rows) =
            (CipherStream::Unfixed, CipherStream::Unfixed, NodeRows::default());
        let stage = Stage::Gradients { next_row: 0 };
        Tree { tree, enc_g, enc_h, root: blank.clone(), rows, stage }
    }
}

// One phase per host, replaced once per tree: boxing the tree buys nothing.
#[allow(clippy::large_enum_variant)]
enum Phase {
    /// Hello sent; the guest must open with its `Resume` decision.
    AwaitResume,
    Tree(Tree),
    /// Orderly shutdown received; nothing more is admissible.
    Done,
}

/// What an admitted message leaves the shell to do, borrowing the state it
/// acts on. It lives until the shell has handled it: boxing a batch would
/// allocate once per batch for nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Step<'a> {
    /// Open the run `tree_count` trees in: check the session, and restore
    /// `splits` from its checkpoint.
    Resume { session_id: u64, tree_count: u32, splits: &'a mut HostSplitTable },
    /// A gradient batch to enter and fold into the root.
    Batch(Batch<'a>),
    /// A node task was queued, or `superseded` the one queued for its node
    /// (the paper's aborted sub-task).
    Task { tree: u32, node: u32, superseded: bool },
    /// The guest's placement of a node: [`Split::place`] applies it.
    Place(Split<'a>, Vec<bool>),
    /// The guest validated its speculative split of a node: the histograms
    /// held for the node's children ship, in the order they were built.
    Validated { released: Vec<(Task, HistPayload)> },
    /// This host's split of a node won, on bin `u16` of feature `usize`:
    /// recorded, and [`Split::choose`] applies it.
    Choose(Split<'a>, usize, u16),
    /// Tree `tree` is done and its state dropped; `splits` is what its
    /// checkpoint saves.
    TreeDone { tree: u32, splits: &'a HostSplitTable },
    /// The orderly end of the run.
    Shutdown,
}

/// An admitted gradient batch of rows `rows` of tree `tree`: the shell
/// enters `g` (and `h`) onto `enc_g` (`enc_h`) and adds the rows into
/// `root`, which the `last` batch ships.
pub(crate) struct Batch<'a> {
    pub tree: u32,
    pub rows: Range<u32>,
    pub g: Vec<Ciphertext>,
    pub h: Option<Vec<Ciphertext>>,
    pub enc_g: &'a mut CipherStream,
    pub enc_h: &'a mut CipherStream,
    pub root: &'a mut BuilderPair,
    pub last: bool,
}

/// An admitted placement of `node` in tree `tree`: the node has rows, and
/// both its children fit the heap. A `speculative` one is the guest's
/// optimistic split, which its verdict may still replace.
pub(crate) struct Split<'a> {
    pub tree: u32,
    pub node: u32,
    speculative: bool,
    rows: &'a mut NodeRows,
    queue: &'a mut VecDeque<u32>,
    pending: &'a mut HashSet<u32>,
    held: &'a mut Vec<(Task, HistPayload)>,
    bins: &'a RowMajorBins,
}

impl Split<'_> {
    /// Applies `placement` (one side per row of the node, as admitted) and
    /// retires every task below the node, queued unbuilt or built and held;
    /// returns how many. The link is FIFO, so those were asked against the
    /// split this one replaces, and the guest drops their answers by epoch.
    /// Only the new smaller child is asked for again, so a re-issue alone
    /// would leave the other child's stale task to be built from new rows.
    /// A re-split drops the old split's subtree, as the guest's rollback
    /// did, so a later placement for a node in it is refused like any node
    /// without rows. The placement is the node's verdict if its split was
    /// speculative, and a speculative one awaits its own.
    pub fn place(self, placement: &[bool]) -> u64 {
        let node = self.node as usize;
        self.rows.apply_placement(node, placement);
        let below = |task: u32| {
            std::iter::successors(parent(task as usize), |&n| parent(n)).any(|n| n == node)
        };
        let retiring = self.queue.len() + self.held.len();
        self.queue.retain(|&task| !below(task));
        self.held.retain(|(task, _)| !below(task.node));
        self.pending.remove(&self.node);
        if self.speculative {
            self.pending.insert(self.node);
        }
        (retiring - self.queue.len() - self.held.len()) as u64
    }

    /// Places the node's rows by this host's split — bin `bin` of
    /// `feature`, already in the table — and retires the tasks below it;
    /// returns the placement the guest needs and how many tasks it retired.
    pub fn choose(self, feature: usize, bin: u16) -> (Vec<bool>, u64) {
        // A re-split reads the node's rows ascending, sorted back in place.
        self.rows.clear_descendants(self.node as usize);
        let placement = self.bins.placement(&self.rows.rows(self.node as usize), feature, bin);
        let retired = self.place(&placement);
        (placement, retired)
    }
}

/// The host's protocol state: its phase (which carries the tree being
/// built), the shell's binned table and gradient path, and every split it
/// has won.
pub(crate) struct HostCore {
    phase: Phase,
    num_trees: u32,
    max_layers: usize,
    bins: Arc<RowMajorBins>,
    path: Arc<GradPath>,
    /// An empty builder pair shaped by this host's columns.
    blank: BuilderPair,
    splits: HostSplitTable,
}

impl HostCore {
    /// A core awaiting the resume decision of a run of `gbdt`'s shape.
    pub fn new(
        bins: Arc<RowMajorBins>,
        blank: BuilderPair,
        gbdt: &GbdtParams,
        path: Arc<GradPath>,
    ) -> HostCore {
        let (num_trees, max_layers) = (gbdt.num_trees as u32, gbdt.max_layers);
        let (phase, splits) = (Phase::AwaitResume, HostSplitTable::default());
        HostCore { phase, num_trees, max_layers, bins, path, blank, splits }
    }

    /// The split table: what the host contributes to the model.
    pub fn into_splits(self) -> HostSplitTable {
        self.splits
    }

    /// Human-readable phase name (for error context).
    fn phase_name(&self) -> &'static str {
        match &self.phase {
            Phase::AwaitResume => "await-resume",
            Phase::Tree(Tree { stage: Stage::Gradients { .. }, .. }) => "gradients",
            Phase::Tree(_) => "node-loop",
            Phase::Done => "done",
        }
    }

    /// Whether no task is queued: the shell then blocks for the guest.
    pub fn idle(&self) -> bool {
        !matches!(&self.phase, Phase::Tree(Tree { stage: Stage::Nodes { queue, .. }, .. })
            if !queue.is_empty())
    }

    /// Admits one decoded guest message: a gradient batch's form and
    /// ciphers against the run's gradient path, its indices and lengths
    /// against this host's shape, then its phase, tree and row cursor. The
    /// honest guest is strictly sequential per tree — every gradient batch
    /// of tree `t` precedes its first node task (FIFO link), and
    /// `TreeDone{t}` precedes any message of tree `t+1` — so out-of-phase,
    /// future-tree and replayed traffic is refused outright.
    /// A refusal changes nothing. The shell charges it against the budget,
    /// except an `UnexpectedMessage` or `IncompleteGradients`: dropping
    /// those would leave the row lists out of step with the guest's, so
    /// they end the run.
    pub fn admit(&mut self, msg: Msg) -> Result<Step<'_>, ProtocolError> {
        let (from, kind, phase) = (PartyId::Guest, msg.kind(), self.phase_name());
        let out_of_phase = |context| ProtocolError::OutOfPhase { from, kind, phase, context };
        let replayed = |context| ProtocolError::StaleOrReplayed { from, kind, context };
        let inadmissible = |context| ProtocolError::Inadmissible { from, kind, context };
        let unexpected = |context| ProtocolError::UnexpectedMessage { from, kind, context };
        self.path.admit_batch(&msg).map_err(inadmissible)?;
        let num_rows = self.bins.num_rows();
        // A tree of `max_layers` layers has 2^max_layers − 1 heap nodes.
        let heap = (1usize << self.max_layers) - 1;
        match &msg {
            Msg::SessionHello { .. }
            | Msg::FeatureMeta(_)
            | Msg::NodeHistograms { .. }
            | Msg::Placement { .. } => {
                return Err(out_of_phase("message kind the host never accepts"));
            }
            Msg::GradBatch { g, h, .. } if g.len() != h.len() => {
                return Err(inadmissible("gradient and hessian counts differ"));
            }
            Msg::GradBatch { start_row, g: rows, .. }
            | Msg::PackedGradBatch { start_row, gh: rows, .. }
                if u64::from(*start_row) + rows.len() as u64 > num_rows as u64 =>
            {
                return Err(inadmissible("gradient rows past the instance count"));
            }
            Msg::NodeTask { node, .. }
            | Msg::ApplyPlacement { node, .. }
            | Msg::SplitValidated { node, .. }
            | Msg::HostSplitChosen { node, .. }
                if *node as usize >= heap =>
            {
                return Err(inadmissible("node index outside the tree heap"));
            }
            Msg::NodeTask { epoch: 0, .. } => {
                return Err(inadmissible("materialization epochs start at 1"));
            }
            Msg::HostSplitChosen { feature, .. }
                if *feature as usize >= self.bins.num_features() =>
            {
                return Err(inadmissible("split feature index outside this host's feature set"));
            }
            _ => {}
        }
        // The phase, matched in place: only the last arm borrows the tree,
        // so the arms before it may replace the phase.
        let t = match self.phase {
            Phase::AwaitResume => {
                let Msg::Resume { session_id, tree_count } = msg else {
                    return Err(out_of_phase("only the resume decision may open a session"));
                };
                if tree_count > self.num_trees {
                    return Err(inadmissible("resume point past the configured tree count"));
                }
                self.phase = Phase::Tree(Tree::new(tree_count, &self.blank));
                return Ok(Step::Resume { session_id, tree_count, splits: &mut self.splits });
            }
            Phase::Done => return Err(out_of_phase("traffic after the orderly shutdown")),
            Phase::Tree(Tree { stage: Stage::Gradients { .. }, .. })
                if matches!(msg, Msg::Shutdown) =>
            {
                self.phase = Phase::Done;
                return Ok(Step::Shutdown);
            }
            Phase::Tree(Tree { tree, stage: Stage::Nodes { .. }, .. })
                if matches!(msg, Msg::TreeDone { .. }) =>
            {
                if !matches!(msg, Msg::TreeDone { tree: done } if done == tree) {
                    return Err(out_of_phase("tree-done for a tree that is not current"));
                }
                self.phase = Phase::Tree(Tree::new(tree.saturating_add(1), &self.blank));
                return Ok(Step::TreeDone { tree, splits: &self.splits });
            }
            Phase::Tree(ref mut t) => t,
        };
        // Raw and GH-packed batches share the row-stream contract; only
        // the per-row payload differs (two ciphers or one).
        let batch = match msg {
            Msg::GradBatch { tree, start_row, g, h, last } => {
                Ok((tree, start_row, g, Some(h), last))
            }
            Msg::PackedGradBatch { tree, start_row, gh, last } => {
                Ok((tree, start_row, gh, None, last))
            }
            other => Err(other),
        };
        let msg = match batch {
            Ok((tree, start_row, g, h, last)) => {
                let Stage::Gradients { next_row } = t.stage else {
                    return Err(out_of_phase("gradients before the current tree finished"));
                };
                if tree < t.tree {
                    return Err(replayed("gradient batch for a completed tree"));
                }
                if tree > t.tree {
                    return Err(out_of_phase("gradient batch for a future tree"));
                }
                if start_row < next_row {
                    return Err(replayed("gradient batch replays rows already received"));
                }
                if start_row > next_row {
                    return Err(out_of_phase("gradient batch leaves a gap in the rows"));
                }
                // Inside the instance count, checked above.
                let end = start_row + g.len() as u32;
                if last && end as usize != num_rows {
                    let got = end as usize;
                    return Err(ProtocolError::IncompleteGradients { expected: num_rows, got });
                }
                if next_row == 0 {
                    t.rows = NodeRows::new_tree(num_rows, self.max_layers);
                }
                t.stage = match last {
                    true => Stage::Nodes {
                        queue: VecDeque::new(),
                        epochs: HashMap::new(),
                        pending: HashSet::new(),
                        held: Vec::new(),
                    },
                    false => Stage::Gradients { next_row: end },
                };
                let (Tree { enc_g, enc_h, root, .. }, rows) = (t, start_row..end);
                return Ok(Step::Batch(Batch { tree, rows, g, h, enc_g, enc_h, root, last }));
            }
            Err(msg) => msg,
        };
        let Stage::Nodes { queue, epochs, pending, held } = &mut t.stage else {
            return Err(out_of_phase("tree building before the gradient stream"));
        };
        let current = t.tree;
        let in_tree = |tree: u32| match tree.cmp(&current) {
            Ordering::Less => Err(replayed("node message for a completed tree")),
            Ordering::Greater => Err(out_of_phase("node message for a future tree")),
            Ordering::Equal => Ok(()),
        };
        // A node can be split when its row list exists and both children
        // fit inside the heap (a last-layer or unknown node cannot).
        let splittable = |node: u32| t.rows.has(node as usize) && right_child(node as usize) < heap;
        let bins = &*self.bins;
        match msg {
            Msg::NodeTask { tree, node, epoch } => {
                in_tree(tree)?;
                // The guest bumps the epoch before every task it issues,
                // and the link is FIFO: a duplicate or regressed epoch
                // cannot be an honest straggler.
                if epochs.get(&node).is_some_and(|&old| old >= epoch) {
                    return Err(replayed("node task replayed or epoch-regressed"));
                }
                let superseded = epochs.insert(node, epoch).is_some() && queue.contains(&node);
                if !superseded {
                    queue.push_back(node);
                }
                Ok(Step::Task { tree, node, superseded })
            }
            Msg::SplitValidated { tree, node } => {
                in_tree(tree)?;
                if !pending.remove(&node) {
                    return Err(inadmissible("validation of a node with no speculative split"));
                }
                let (released, kept) = std::mem::take(held)
                    .into_iter()
                    .partition(|(task, _)| parent(task.node as usize) == Some(node as usize));
                *held = kept;
                Ok(Step::Validated { released })
            }
            Msg::ApplyPlacement { tree, node, speculative, placement } => {
                in_tree(tree)?;
                if !splittable(node) {
                    return Err(unexpected(
                        "placement for a node without rows (or past the last layer)",
                    ));
                }
                if t.rows.count(node as usize) != placement.len() {
                    return Err(unexpected("placement length differs from the node's row count"));
                }
                let rows = &mut t.rows;
                let split = Split { tree, node, speculative, rows, queue, pending, held, bins };
                Ok(Step::Place(split, placement))
            }
            Msg::HostSplitChosen { tree, node, feature, bin } => {
                in_tree(tree)?;
                if !splittable(node) {
                    return Err(unexpected(
                        "split-chosen for an unknown feature or unsplittable node",
                    ));
                }
                // The last bin holds the largest values: no threshold
                // above it sends a row right.
                let feature = feature as usize;
                let Some(&threshold) = bins.cuts(feature).get(usize::from(bin)) else {
                    return Err(unexpected("split-chosen bin out of range"));
                };
                self.splits.splits.insert((tree, node), NodeSplit { feature, bin, threshold });
                let (rows, speculative) = (&mut t.rows, false);
                let split = Split { tree, node, speculative, rows, queue, pending, held, bins };
                Ok(Step::Choose(split, feature, bin))
            }
            _ => Err(out_of_phase("message inadmissible inside the node loop")),
        }
    }

    /// Pops the oldest queued task, with its tree and its node's rows
    /// (ascending: a sorted copy when the node's placement arrived after
    /// the task, since the mock's sums depend on the order). `None` when
    /// the queue is empty, and for a popped task there is
    /// nothing to build for: the root, whose histogram ships with the last
    /// gradient batch (its task is a uniformity artifact of the guest's
    /// materialize step), or a node without rows — its placement was lost
    /// with the peer, or the guest is confused; its epoch bookkeeping
    /// discards whatever would have been sent.
    pub fn next_task(&mut self) -> Option<(Task, &Tree, Cow<'_, [u32]>)> {
        let Phase::Tree(t) = &mut self.phase else { return None };
        let Stage::Nodes { queue, epochs, .. } = &mut t.stage else { return None };
        let node = queue.pop_front()?;
        let epoch = *epochs.get(&node)?;
        if node == 0 || !t.rows.has(node as usize) {
            return None;
        }
        let t = &*t;
        Some((Task { tree: t.tree, node, epoch }, t, t.rows.rows(node as usize)))
    }

    /// Whether the task in flight is still wanted once `drain` has taken
    /// in what the guest sent meanwhile (the paper's aborted sub-task,
    /// §4.2). The task goes back to the head of the queue while the inbox
    /// drains, so whatever retires a queued task — a re-placement above it,
    /// a newer epoch for it, the tree's end — retires it too: the guest
    /// would drop its answer by epoch, so the shell skips the pack. A
    /// superseded task stays queued, to be built again at its new epoch.
    /// Nothing honest retires a task during its pack that
    /// [`HostCore::ship_or_hold`] does not hold: only a speculative split
    /// is ever replaced.
    pub fn still_wanted(
        &mut self,
        task: Task,
        drain: impl FnOnce(&mut HostCore) -> Result<(), TrainError>,
    ) -> Result<bool, TrainError> {
        if let Some((queue, _)) = self.tasks(task.tree) {
            queue.push_front(task.node);
        }
        drain(self)?;
        let Some((queue, epochs)) = self.tasks(task.tree) else { return Ok(false) };
        let wanted =
            queue.front() == Some(&task.node) && epochs.get(&task.node) == Some(&task.epoch);
        if wanted {
            queue.pop_front();
        }
        Ok(wanted)
    }

    /// The histogram of a task still wanted, to ship now — or `None`: its
    /// node's parent is a speculative split not validated yet, and the core
    /// holds it until the verdict. A validation releases it
    /// ([`Step::Validated`]); a re-placement above it retires it, since the
    /// guest would drop it by epoch. So what ships does not depend on
    /// whether the verdict or the histogram was ready first.
    pub fn ship_or_hold(&mut self, task: Task, payload: HistPayload) -> Option<HistPayload> {
        let Phase::Tree(Tree { stage: Stage::Nodes { pending, held, .. }, .. }) = &mut self.phase
        else {
            return Some(payload);
        };
        if !parent(task.node as usize).is_some_and(|p| pending.contains(&(p as u32))) {
            return Some(payload);
        }
        held.push((task, payload));
        None
    }

    /// Tree `tree`'s task queue and epochs, while its node loop runs.
    fn tasks(&mut self, tree: u32) -> Option<(&mut VecDeque<u32>, &mut HashMap<u32, u32>)> {
        match &mut self.phase {
            Phase::Tree(Tree { tree: t, stage: Stage::Nodes { queue, epochs, .. }, .. })
                if *t == tree =>
            {
                Some((queue, epochs))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_crypto::suite::{PlainNumber, Suite};
    use vf2_crypto::EncryptedNumber;
    use vf2_gbdt::data::{Dataset, FeatureColumn};

    use crate::config::TrainConfig;
    use crate::hist_enc::max_exponent;
    use crate::messages::HistPayload;
    use crate::rows::RowMajorBins;

    impl HostCore {
        /// The queued tasks of the tree in its node loop, oldest first.
        pub(crate) fn queued(&self) -> Vec<u32> {
            match &self.phase {
                Phase::Tree(Tree { stage: Stage::Nodes { queue, .. }, .. }) => {
                    queue.iter().copied().collect()
                }
                _ => Vec::new(),
            }
        }
    }

    /// A core over one dense feature of `rows` rows (values `0..rows`, one
    /// bin each), a mock run of two trees of four layers, and its
    /// row-major view.
    fn core(rows: usize) -> (HostCore, RowMajorBins) {
        core_under(&Suite::plain(TrainConfig::for_tests().encoding), rows)
    }

    /// [`core`] on the gradient path a run under `suite` takes.
    fn core_under(suite: &Suite, rows: usize) -> (HostCore, RowMajorBins) {
        let cfg = TrainConfig::for_tests();
        let column = FeatureColumn::Dense((0..rows).map(|v| v as f32).collect());
        let csr = RowMajorBins::bin(&Dataset::new(rows, vec![column], None), &cfg.gbdt.binning);
        let gbdt = GbdtParams { num_trees: 2, max_layers: 4, ..cfg.gbdt };
        (new_core(&csr, &cfg, &gbdt, suite), csr)
    }

    /// A core over `csr` of a run of `gbdt`'s shape under `suite`.
    fn new_core(
        csr: &RowMajorBins,
        cfg: &TrainConfig,
        gbdt: &GbdtParams,
        suite: &Suite,
    ) -> HostCore {
        let path = Arc::new(GradPath::of(cfg, suite, csr.num_rows()).unwrap());
        HostCore::new(Arc::new(csr.clone()), core_blank(csr, cfg), gbdt, path)
    }

    /// A core on a paired run under a 256-bit key.
    fn paired_core(rows: usize) -> HostCore {
        let key = Suite::paillier_seeded(256, 7, TrainConfig::for_tests().encoding).unwrap();
        core_under(&key.public_half(), rows).0
    }

    /// An admission's verdict, without the step.
    fn verdict(admitted: Result<Step<'_>, ProtocolError>) -> Result<(), ProtocolError> {
        admitted.map(|_| ())
    }

    /// A refusal the shell charges against the budget.
    fn charged(admitted: Result<Step<'_>, ProtocolError>) -> ProtocolError {
        match verdict(admitted) {
            Err(
                ProtocolError::UnexpectedMessage { .. } | ProtocolError::IncompleteGradients { .. },
            )
            | Ok(()) => panic!("expected a charged refusal"),
            Err(error) => error,
        }
    }

    /// A mock zero inside the encoding's window.
    fn zero() -> Ciphertext {
        Ciphertext::Plain(PlainNumber {
            value: 0.0,
            exponent: TrainConfig::for_tests().encoding.base_exp,
        })
    }

    // A GradBatch with `rows` plain ciphers so g.len() drives the row
    // cursor.
    fn grad(tree: u32, start_row: u32, rows: usize, last: bool) -> Msg {
        Msg::GradBatch { tree, start_row, g: vec![zero(); rows], h: vec![zero(); rows], last }
    }

    // A PackedGradBatch with `rows` GH-pair ciphers at the pair plan's
    // exponent, the top of the encoding's window.
    fn packed_grad(tree: u32, start_row: u32, rows: usize, last: bool) -> Msg {
        let exponent = max_exponent(&TrainConfig::for_tests().encoding);
        let pair = EncryptedNumber { cipher: 1u32.into(), exponent };
        Msg::PackedGradBatch { tree, start_row, gh: vec![Ciphertext::Paillier(pair); rows], last }
    }

    /// The rows an admitted gradient batch covers.
    fn batch_rows(admitted: Result<Step<'_>, ProtocolError>) -> Range<u32> {
        match admitted {
            Ok(Step::Batch(batch)) => batch.rows,
            other => panic!("expected an admitted batch, got {:?}", verdict(other)),
        }
    }

    fn resume(tree_count: u32) -> Msg {
        Msg::Resume { session_id: 0, tree_count }
    }

    #[test]
    fn host_happy_path_walks_all_phases() {
        let (mut core, _) = core(8);
        assert_eq!(core.phase_name(), "await-resume");
        assert_eq!(verdict(core.admit(resume(0))), Ok(()));
        assert_eq!(core.phase_name(), "gradients");
        assert_eq!(batch_rows(core.admit(grad(0, 0, 4, false))), 0..4);
        assert_eq!(batch_rows(core.admit(grad(0, 4, 4, true))), 4..8);
        assert_eq!(core.phase_name(), "node-loop");
        let task = Msg::NodeTask { tree: 0, node: 0, epoch: 1 };
        assert_eq!(verdict(core.admit(task)), Ok(()));
        let placement =
            Msg::ApplyPlacement { tree: 0, node: 0, speculative: false, placement: vec![true; 8] };
        assert_eq!(verdict(core.admit(placement)), Ok(()));
        assert_eq!(verdict(core.admit(Msg::TreeDone { tree: 0 })), Ok(()));
        assert_eq!(core.phase_name(), "gradients");
        assert_eq!(batch_rows(core.admit(grad(1, 0, 8, true))), 0..8);
        assert_eq!(verdict(core.admit(Msg::TreeDone { tree: 1 })), Ok(()));
        assert_eq!(verdict(core.admit(Msg::Shutdown)), Ok(()));
        assert_eq!(core.phase_name(), "done");
        // Nothing is admissible after shutdown.
        assert!(verdict(core.admit(Msg::TreeDone { tree: 2 })).is_err());
    }

    #[test]
    fn host_rejects_phase_skips_and_replays() {
        let (mut core, _) = core(8);
        // Node task before the resume handshake.
        let err = charged(core.admit(Msg::NodeTask { tree: 0, node: 0, epoch: 1 }));
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 3, .. }), "{err}");
        verdict(core.admit(resume(0))).unwrap();
        // Future tree.
        let err = charged(core.admit(grad(5, 0, 4, false)));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Legitimate batch, then a replay of the same rows.
        verdict(core.admit(grad(0, 0, 4, false))).unwrap();
        let err = charged(core.admit(grad(0, 0, 4, false)));
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        // A gap in the row stream.
        let err = charged(core.admit(grad(0, 6, 2, false)));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Tree building while gradients are still due.
        let err = charged(core.admit(Msg::NodeTask { tree: 0, node: 0, epoch: 1 }));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Finish the stream; gradients are now out of phase.
        verdict(core.admit(grad(0, 4, 4, true))).unwrap();
        let err = charged(core.admit(grad(0, 8, 0, true)));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Host-bound kinds are rejected outright.
        let hist =
            Msg::NodeHistograms { tree: 0, node: 0, epoch: 1, payload: HistPayload::Raw(vec![]) };
        let err = charged(core.admit(hist));
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 4, .. }), "{err}");
    }

    #[test]
    fn packed_batches_drive_the_same_row_stream_contract() {
        let mut core = paired_core(8);
        verdict(core.admit(resume(0))).unwrap();
        // GH-packed batches advance the row cursor by one row per cipher.
        assert_eq!(batch_rows(core.admit(packed_grad(0, 0, 4, false))), 0..4);
        // Replays and gaps are caught exactly like raw batches.
        let err = charged(core.admit(packed_grad(0, 0, 4, false)));
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        let err = charged(core.admit(packed_grad(0, 6, 2, true)));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // `last` closes the stream; further packed batches are out of phase.
        assert_eq!(batch_rows(core.admit(packed_grad(0, 4, 4, true))), 4..8);
        assert_eq!(core.phase_name(), "node-loop");
        let err = charged(core.admit(packed_grad(0, 8, 0, true)));
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 14, .. }), "{err}");
    }

    /// A gradient batch's ciphers are judged before its rows: a last batch
    /// short of the tree's rows that carries a non-finite mock value is a
    /// charged refusal of its cipher, not the fatal incomplete stream.
    #[test]
    fn a_batchs_ciphers_are_judged_before_its_rows() {
        let (mut core, _) = core(8);
        verdict(core.admit(resume(0))).unwrap();
        let mut short = grad(0, 0, 4, true);
        if let Msg::GradBatch { g, .. } = &mut short {
            g[0] = Ciphertext::Plain(PlainNumber { value: f64::NAN, exponent: 8 });
        }
        match charged(core.admit(short)) {
            ProtocolError::Inadmissible { context, .. } => assert!(context.contains("non-finite")),
            other => panic!("expected the cipher's refusal, got {other}"),
        }
        let err = verdict(core.admit(grad(0, 0, 4, true)));
        assert_eq!(err, Err(ProtocolError::IncompleteGradients { expected: 8, got: 4 }));
    }

    #[test]
    fn host_rejects_resume_past_tree_count_and_late_resume() {
        let (mut core, _) = core(8);
        let err = charged(core.admit(resume(9)));
        assert!(matches!(err, ProtocolError::Inadmissible { .. }), "{err}");
        verdict(core.admit(resume(2))).unwrap();
        // Resuming at num_trees is legal; the guest then shuts down.
        assert_eq!(verdict(core.admit(Msg::Shutdown)), Ok(()));
        let err = charged(core.admit(resume(0)));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
    }

    /// Indices and lengths are checked against this host's shape before
    /// the phase: each is inadmissible whatever the phase.
    #[test]
    fn node_and_feature_indices_are_bounded() {
        let (mut core, _) = core(8);
        let mut inadmissible = |msg: Msg, want: &str| match charged(core.admit(msg)) {
            ProtocolError::Inadmissible { context, .. } => assert!(context.contains(want)),
            other => panic!("expected inadmissible({want}), got {other}"),
        };
        // 4 layers => heap of 15 nodes (0..=14).
        inadmissible(Msg::NodeTask { tree: 0, node: 15, epoch: 1 }, "outside the tree heap");
        inadmissible(Msg::NodeTask { tree: 0, node: 1, epoch: 0 }, "epochs start at 1");
        let chosen = Msg::HostSplitChosen { tree: 0, node: 1, feature: 1, bin: 0 };
        inadmissible(chosen, "feature index outside");
        let mut lopsided = grad(0, 0, 2, false);
        if let Msg::GradBatch { h, .. } = &mut lopsided {
            h.pop();
        }
        inadmissible(lopsided, "counts differ");
        inadmissible(grad(0, 7, 2, false), "past the instance count");
        let mut paired = paired_core(8);
        match charged(paired.admit(packed_grad(0, 7, 2, false))) {
            ProtocolError::Inadmissible { context, .. } => {
                assert!(context.contains("past the instance count"))
            }
            other => panic!("expected inadmissible(past the instance count), got {other}"),
        }
        // Node 14 is inside the heap: only its phase refuses it.
        let err = charged(core.admit(Msg::NodeTask { tree: 0, node: 14, epoch: 1 }));
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
    }

    /// A core in tree 0's node loop, its eight rows admitted.
    fn node_loop(rows: usize) -> (HostCore, RowMajorBins) {
        let (mut core, csr) = core(rows);
        verdict(core.admit(resume(0))).unwrap();
        verdict(core.admit(grad(0, 0, rows, true))).unwrap();
        (core, csr)
    }

    /// A placement or split choice that would leave the row lists out of
    /// step with the guest's ends the run, whatever the budget; the last
    /// bin is no split point (it used to index past the cut points).
    #[test]
    fn placements_that_desync_the_row_lists_are_fatal() {
        let (mut core, _) = node_loop(8);
        fn fatal(admitted: Result<Step<'_>, ProtocolError>) -> &'static str {
            match verdict(admitted) {
                Err(ProtocolError::UnexpectedMessage { context, .. }) => context,
                other => panic!("expected a fatal refusal, got {other:?}"),
            }
        }
        let place = |node, rows| Msg::ApplyPlacement {
            tree: 0,
            node,
            speculative: false,
            placement: vec![true; rows],
        };
        assert!(fatal(core.admit(place(1, 0))).contains("without rows"));
        assert!(fatal(core.admit(place(0, 7))).contains("length differs"));
        let choose = |node, bin| Msg::HostSplitChosen { tree: 0, node, feature: 0, bin };
        assert!(fatal(core.admit(choose(7, 0))).contains("unsplittable"));
        assert!(fatal(core.admit(choose(0, 7))).contains("bin out of range"));
        let Ok(Step::Choose(at, feature, bin)) = core.admit(choose(0, 6)) else {
            panic!("bin 6 splits")
        };
        let (placement, retired) = at.choose(feature, bin);
        assert_eq!((placement, retired), ([true; 7].into_iter().chain([false]).collect(), 0));
        assert_eq!(core.into_splits().splits[&(0, 0)].bin, 6);
    }

    /// On a sparse host a won split's placement reads each row's bin from
    /// the row-major table: it equals the column-major form's, at every
    /// feature and split bin, on a node below the root.
    #[test]
    fn a_sparse_hosts_placements_equal_the_column_major_ones() {
        use vf2_gbdt::binning::BinnedDataset;
        let cfg = TrainConfig::for_tests();
        let sparse = |rows: &[u32]| FeatureColumn::Sparse {
            rows: rows.to_vec(),
            values: rows.iter().map(|&r| r as f32 - 5.5).collect(),
        };
        let dense = FeatureColumn::Dense((0..12).map(|r| (r % 4) as f32).collect());
        let columns = vec![sparse(&[0, 3, 4, 9, 11]), dense, sparse(&[1, 2, 6, 10])];
        let binned = BinnedDataset::bin(&Dataset::new(12, columns, None), &cfg.gbdt.binning);
        let csr = RowMajorBins::from_binned(&binned);
        let gbdt = GbdtParams { num_trees: 2, max_layers: 4, ..cfg.gbdt };
        let mut core = new_core(&csr, &cfg, &gbdt, &Suite::plain(cfg.encoding));
        verdict(core.admit(resume(0))).unwrap();
        verdict(core.admit(grad(0, 0, 12, true))).unwrap();
        // Node 1 holds rows 0..7.
        place(&mut core, 0, 12, 7);
        let mut chosen = 0;
        for (f, column) in binned.columns().iter().enumerate() {
            for bin in 0..column.cuts.len() as u16 {
                let msg = Msg::HostSplitChosen { tree: 0, node: 1, feature: f as u32, bin };
                let Ok(Step::Choose(at, feature, bin)) = core.admit(msg) else {
                    panic!("feature {f} bin {bin} splits")
                };
                let (placement, _) = at.choose(feature, bin);
                let want: Vec<bool> = (0..7).map(|r| column.bin_of_row(r) <= bin).collect();
                assert_eq!(placement, want, "feature {f} bin {bin}");
                chosen += 1;
            }
        }
        assert!(chosen >= 6, "{chosen} splits tried");
    }

    /// Admits a placement and applies it as the shell does; returns the
    /// tasks it retired.
    fn place(core: &mut HostCore, node: u32, rows: usize, left: usize) -> u64 {
        let placement = (0..rows).map(|row| row < left).collect();
        match core.admit(Msg::ApplyPlacement { tree: 0, node, speculative: false, placement }) {
            Ok(Step::Place(at, placement)) => at.place(&placement),
            other => panic!("expected an admitted placement, got {:?}", verdict(other)),
        }
    }

    /// A re-split retires what was queued below it, and only that: the
    /// stale task of the child that is not asked for again would otherwise
    /// be built from rows it no longer describes.
    #[test]
    fn a_replaced_placement_retires_the_tasks_queued_below_it() {
        let (mut core, csr) = core(8);
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        let one = Ciphertext::Plain(PlainNumber { value: 1.0, exponent: cfg.encoding.base_exp });
        verdict(core.admit(resume(0))).unwrap();
        let (g, h) = (vec![one.clone(); 8], vec![one; 8]);
        let Ok(Step::Batch(batch)) =
            core.admit(Msg::GradBatch { tree: 0, start_row: 0, g, h, last: true })
        else {
            panic!("the whole tree's gradients are admitted");
        };
        // The last batch ships the root; its ciphers enter as the shell's do.
        assert!(batch.last);
        batch.enc_g.extend(&suite, &batch.g, 8).unwrap();
        batch.enc_h.extend(&suite, batch.h.as_deref().unwrap_or_default(), 8).unwrap();
        // Root split 3 | 5, node 1 split again; tasks queue up at both levels.
        let mut aborted = place(&mut core, 0, 8, 3);
        aborted += place(&mut core, 1, 3, 1);
        for node in [1, 3, 2] {
            verdict(core.admit(Msg::NodeTask { tree: 0, node, epoch: 1 })).unwrap();
        }
        // Node 2 splits for the first time: nothing was queued below it.
        aborted += place(&mut core, 2, 5, 2);
        assert_eq!((core.queued().len(), aborted), (3, 0));
        // The root re-splits 5 | 3: every queued task hung below it.
        aborted += place(&mut core, 0, 8, 5);
        assert!(core.queued().is_empty());
        assert_eq!(aborted, 3);
        // The new smaller child is asked for at a later epoch, and built
        // from the new rows (node 2 over rows 5..8).
        verdict(core.admit(Msg::NodeTask { tree: 0, node: 2, epoch: 3 })).unwrap();
        let (task, tree, rows) = core.next_task().expect("node 2's task");
        assert_eq!((task, &*rows), (Task { tree: 0, node: 2, epoch: 3 }, &[5, 6, 7][..]));
        let (mut g, mut h) = core_blank(&csr, &cfg);
        let streams = (&mut g, &tree.enc_g);
        EncHistBuilder::add_rows(&suite, &csr, &rows, streams, (&mut h, Some(&tree.enc_h)))
            .unwrap();
        let bins = g.finalize_feature(&suite, 0, None).unwrap();
        let sum: f64 = bins.iter().map(|c| suite.decrypt(c).unwrap()).sum();
        assert_eq!(sum, 3.0);
    }

    /// A re-split drops the old split's subtree: a placement, split choice
    /// or task for a node in it finds no rows, so it cannot reorder the
    /// rows of the live children, which read back ascending.
    #[test]
    fn a_re_split_refuses_the_old_subtree() {
        let (mut core, _) = node_loop(8);
        // Root 3 | 5, node 1 1 | 2, node 3 (row 0) placed again; then the
        // root re-splits 5 | 3 and nodes 3, 4, 7 and 8 are stale.
        place(&mut core, 0, 8, 3);
        place(&mut core, 1, 3, 1);
        place(&mut core, 3, 1, 1);
        place(&mut core, 0, 8, 5);
        for node in [3, 4] {
            let stale =
                Msg::ApplyPlacement { tree: 0, node, speculative: false, placement: vec![false] };
            assert!(matches!(
                verdict(core.admit(stale)),
                Err(ProtocolError::UnexpectedMessage { context, .. }) if context.contains("without rows")
            ));
            let chosen = Msg::HostSplitChosen { tree: 0, node, feature: 0, bin: 0 };
            assert!(verdict(core.admit(chosen)).is_err(), "node {node}");
            verdict(core.admit(Msg::NodeTask { tree: 0, node, epoch: 2 })).unwrap();
            assert!(core.next_task().is_none(), "node {node} has nothing to build");
        }
        for (node, want) in [(1, &[0, 1, 2, 3, 4][..]), (2, &[5, 6, 7][..])] {
            verdict(core.admit(Msg::NodeTask { tree: 0, node, epoch: 2 })).unwrap();
            let (_, _, rows) = core.next_task().expect("a live node's task");
            assert_eq!(&*rows, want, "node {node}");
        }
    }

    /// A task queued before its node's placement arrived is built from the
    /// node's rows in ascending order, as before the placement: the mock's
    /// float sums depend on the order, and the placement has partitioned
    /// the node's span (rows 2 and 6 first) by the time the task is built.
    #[test]
    fn a_task_built_after_its_nodes_placement_sums_its_rows_in_order() {
        let cfg = TrainConfig::for_tests();
        let suite = Suite::plain(cfg.encoding);
        // Two bins, rows 0, 2, 4, 6 in the first: 1e16 + 1 − 1e16 + 1 is 1
        // in that order, 2 in the order 2, 6, 0, 4.
        let column = FeatureColumn::Dense((0..8).map(|r| (r % 2) as f32).collect());
        let csr = RowMajorBins::bin(&Dataset::new(8, vec![column], None), &cfg.gbdt.binning);
        let values = [1e16, 0.5, 1.0, 0.25, -1e16, 0.125, 1.0, 0.0625];
        let exponent = cfg.encoding.base_exp;
        let g: Vec<Ciphertext> = values
            .iter()
            .map(|&value| Ciphertext::Plain(PlainNumber { value, exponent }))
            .collect();
        let gbdt = GbdtParams { num_trees: 1, max_layers: 3, ..cfg.gbdt };
        let built = |placed_first: bool| -> Vec<u64> {
            let mut core = new_core(&csr, &cfg, &gbdt, &suite);
            verdict(core.admit(resume(0))).unwrap();
            let batch =
                Msg::GradBatch { tree: 0, start_row: 0, g: g.clone(), h: g.clone(), last: true };
            let Ok(Step::Batch(batch)) = core.admit(batch) else { panic!("admitted") };
            batch.enc_g.extend(&suite, &batch.g, 8).unwrap();
            batch.enc_h.extend(&suite, batch.h.as_deref().unwrap_or_default(), 8).unwrap();
            // Every row goes left: node 1 holds rows 0..8.
            place(&mut core, 0, 8, 8);
            verdict(core.admit(Msg::NodeTask { tree: 0, node: 1, epoch: 1 })).unwrap();
            if placed_first {
                let placement = (0..8).map(|r| r == 2 || r == 6).collect();
                let Ok(Step::Place(at, placement)) = core.admit(Msg::ApplyPlacement {
                    tree: 0,
                    node: 1,
                    speculative: false,
                    placement,
                }) else {
                    panic!("node 1's placement is admitted")
                };
                assert_eq!(at.place(&placement), 0, "node 1's own task is not below it");
            }
            let (_, tree, rows) = core.next_task().expect("node 1's task");
            assert_eq!(&*rows, &[0, 1, 2, 3, 4, 5, 6, 7]);
            let (mut g, mut h) = core_blank(&csr, &cfg);
            let streams = (&mut g, &tree.enc_g);
            EncHistBuilder::add_rows(&suite, &csr, &rows, streams, (&mut h, Some(&tree.enc_h)))
                .unwrap();
            let bins = g.finalize_feature(&suite, 0, None).unwrap();
            bins.iter().map(|c| suite.decrypt(c).unwrap().to_bits()).collect()
        };
        let before = built(false);
        assert_eq!(f64::from_bits(before[0]), 1.0);
        assert_eq!(built(true), before);
    }

    /// Admits the guest's speculative split of the root, `left` of its
    /// `rows` rows to the left, and applies it.
    fn speculate(core: &mut HostCore, rows: usize, left: usize) {
        let placement = (0..rows).map(|row| row < left).collect();
        let msg = Msg::ApplyPlacement { tree: 0, node: 0, speculative: true, placement };
        let Ok(Step::Place(at, placement)) = core.admit(msg) else { panic!("admitted") };
        assert_eq!(at.place(&placement), 0);
    }

    /// Queues a task and pops it, as the shell does before building it.
    fn built(core: &mut HostCore, node: u32, epoch: u32) -> Task {
        verdict(core.admit(Msg::NodeTask { tree: 0, node, epoch })).unwrap();
        core.next_task().expect("a task to build").0
    }

    /// A histogram below a speculative split waits on the guest's verdict,
    /// and the validation releases it; below a validated split one ships
    /// at once.
    #[test]
    fn a_histogram_below_a_speculative_split_ships_once_validated() {
        let payload = || HistPayload::Raw(vec![]);
        let (mut core, _) = node_loop(8);
        speculate(&mut core, 8, 3);
        let task = built(&mut core, 1, 1);
        assert_eq!(core.ship_or_hold(task, payload()), None, "held");
        let sibling = built(&mut core, 2, 1);
        assert_eq!(core.ship_or_hold(sibling, payload()), None, "held");
        match core.admit(Msg::SplitValidated { tree: 0, node: 0 }) {
            Ok(Step::Validated { released }) => {
                assert_eq!(released, [(task, payload()), (sibling, payload())]);
            }
            other => panic!("expected a validation, got {:?}", verdict(other)),
        }
        let err = charged(core.admit(Msg::SplitValidated { tree: 0, node: 0 }));
        assert!(matches!(err, ProtocolError::Inadmissible { kind: 17, .. }), "{err}");
        // Node 1 placed on a validated split: its children's ship at once.
        place(&mut core, 1, 3, 1);
        let task = built(&mut core, 3, 1);
        assert_eq!(core.ship_or_hold(task, payload()), Some(payload()));
    }

    /// A speculative split that loses its validation retires what is held
    /// below it, whichever way the host's re-split comes — its own split
    /// chosen, or another's relayed — so a superseded histogram never
    /// ships; the new children's histograms ship at once.
    #[test]
    fn a_rolled_back_speculation_retires_the_histograms_held_below_it() {
        let payload = || HistPayload::Raw(vec![]);
        for relayed in [false, true] {
            let (mut core, _) = node_loop(8);
            speculate(&mut core, 8, 3);
            let task = built(&mut core, 1, 1);
            assert_eq!(core.ship_or_hold(task, payload()), None, "held");
            let retired = if relayed {
                place(&mut core, 0, 8, 5)
            } else {
                let chosen = Msg::HostSplitChosen { tree: 0, node: 0, feature: 0, bin: 4 };
                let Ok(Step::Choose(at, feature, bin)) = core.admit(chosen) else {
                    panic!("bin 4 splits")
                };
                at.choose(feature, bin).1
            };
            assert_eq!(retired, 1, "relayed: {relayed}");
            assert!(verdict(core.admit(Msg::SplitValidated { tree: 0, node: 0 })).is_err());
            let task = built(&mut core, 2, 2);
            assert_eq!(core.ship_or_hold(task, payload()), Some(payload()));
        }
    }

    fn core_blank(csr: &RowMajorBins, cfg: &TrainConfig) -> BuilderPair {
        let blank = || EncHistBuilder::new(&csr.col_meta, &cfg.encoding, false);
        (blank(), blank())
    }

    /// What the drain takes in decides whether the task in flight ships:
    /// a re-placement above it retires it, a newer epoch for it keeps it
    /// queued for a rebuild, and the tree's end drops it.
    #[test]
    fn a_task_is_still_wanted_only_at_its_epoch_in_its_tree() {
        let (mut core, _) = node_loop(8);
        place(&mut core, 0, 8, 3);
        // Admits each message and applies its placement, as the shell does.
        let admit_all = |msgs: Vec<Msg>| {
            move |core: &mut HostCore| {
                for msg in msgs {
                    match core.admit(msg) {
                        Ok(Step::Place(at, placement)) => drop(at.place(&placement)),
                        other => verdict(other).expect("admitted"),
                    }
                }
                Ok(())
            }
        };
        let task = |core: &mut HostCore, epoch| {
            verdict(core.admit(Msg::NodeTask { tree: 0, node: 1, epoch })).unwrap();
            core.next_task().expect("a task").0
        };
        // Nothing arrives: still wanted, and taken off the queue.
        let t = task(&mut core, 1);
        assert_eq!(core.still_wanted(t, admit_all(vec![])), Ok(true));
        assert!(core.queued().is_empty());
        // A newer epoch: not wanted, and queued to be built again.
        let t = task(&mut core, 2);
        let newer = vec![Msg::NodeTask { tree: 0, node: 1, epoch: 3 }];
        assert_eq!(core.still_wanted(t, admit_all(newer)), Ok(false));
        assert_eq!(core.queued(), vec![1]);
        // A re-placement above it: retired.
        let t = core.next_task().expect("the rebuild").0;
        let replaced = vec![Msg::ApplyPlacement {
            tree: 0,
            node: 0,
            speculative: false,
            placement: vec![true; 8],
        }];
        assert_eq!(core.still_wanted(t, admit_all(replaced)), Ok(false));
        assert!(core.queued().is_empty());
        // The tree's end, and the next tree's own task for the same node
        // at the same epoch: the old task is not that one.
        let t = task(&mut core, 4);
        let mut next = vec![Msg::TreeDone { tree: 0 }, grad(1, 0, 8, true)];
        next.push(Msg::ApplyPlacement {
            tree: 1,
            node: 0,
            speculative: false,
            placement: vec![true; 8],
        });
        next.push(Msg::NodeTask { tree: 1, node: 1, epoch: 4 });
        assert_eq!(core.still_wanted(t, admit_all(next)), Ok(false));
        assert_eq!(core.queued(), vec![1]);
    }
}
