//! The host's protocol as a pure core: what the guest may send the host
//! (the paper's Party A, §3.2) and the queue of sliced, abortable
//! histogram tasks that leaves behind (§4.2).
//!
//! [`HostCore`]'s phase carries the tree — its row lists, its resident
//! gradient streams, its root builders and its task queue — and the core
//! holds the run's split table. Its one admission ([`HostCore::admit`])
//! makes every index, row-cursor, length and phase check of a guest
//! message once, and hands the shell a [`Step`] that borrows the state it
//! acts on: no handler can ask for a tree that is not there. The shell
//! (`host.rs`) runs the key's checks (`validate.rs`) first, and owns the
//! link, the suite, the pool, the clock and the counters.

use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

use vf2_crypto::suite::{Ciphertext, ResidentCiphertext};
use vf2_gbdt::binning::{BinnedColumn, BinnedDataset};
use vf2_gbdt::train::GbdtParams;
use vf2_gbdt::tree::{parent, right_child, NodeSplit};

use crate::error::{PartyId, ProtocolError, TrainError};
use crate::hist_enc::EncHistBuilder;
use crate::messages::Msg;
use crate::model::HostSplitTable;
use crate::rows::NodeRows;

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
    /// Encrypted gradients by row, each in its key's resident form (on the
    /// paired path the one `(g, h)` stream).
    pub enc_g: Vec<ResidentCiphertext>,
    /// Encrypted hessians by row; empty on the paired path.
    pub enc_h: Vec<ResidentCiphertext>,
    /// The root builders the gradient batches feed, until the root ships.
    root: BuilderPair,
    rows: NodeRows,
    stage: Stage,
}

enum Stage {
    /// Gradient batches: the row the next must start at.
    Gradients { next_row: u32 },
    /// The node loop: queued tasks in arrival order, and each node's latest
    /// epoch.
    Nodes { queue: VecDeque<u32>, epochs: HashMap<u32, u32> },
}

impl Tree {
    /// Tree `tree` before its first gradient batch: nothing sized yet.
    fn new(tree: u32, blank: &BuilderPair) -> Tree {
        let (enc_g, enc_h, rows) = (Vec::new(), Vec::new(), NodeRows::default());
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
    /// This host's split of a node won, on bin `u16` of the column:
    /// recorded, and [`Split::choose`] applies it.
    Choose(Split<'a>, &'a BinnedColumn, u16),
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
    pub enc_g: &'a mut Vec<ResidentCiphertext>,
    pub enc_h: &'a mut Vec<ResidentCiphertext>,
    pub root: &'a mut BuilderPair,
    pub last: bool,
}

/// An admitted placement of `node` in tree `tree`: the node has rows, and
/// both its children fit the heap.
pub(crate) struct Split<'a> {
    pub tree: u32,
    pub node: u32,
    rows: &'a mut NodeRows,
    queue: &'a mut VecDeque<u32>,
}

impl Split<'_> {
    /// Applies `placement` (one side per row of the node, as admitted) and
    /// retires, unbuilt, every task queued below the node; returns how many.
    /// The link is FIFO, so those were asked against the split this one
    /// replaces, and the guest drops their answers by epoch. Only the new
    /// smaller child is asked for again, so a re-issue alone would leave the
    /// other child's stale task to be built from new rows.
    pub fn place(self, placement: &[bool]) -> u64 {
        let node = self.node as usize;
        self.rows.apply_placement(node, placement);
        let ancestors = |task: u32| std::iter::successors(parent(task as usize), |&n| parent(n));
        let queued = self.queue.len();
        self.queue.retain(|&task| ancestors(task).all(|n| n != node));
        (queued - self.queue.len()) as u64
    }

    /// Places the node's rows by this host's split — bin `bin` of
    /// `column`, already in the table — and retires the tasks below it;
    /// returns the placement the guest needs and how many tasks it retired.
    pub fn choose(self, column: &BinnedColumn, bin: u16) -> (Vec<bool>, u64) {
        let rows = self.rows.rows(self.node as usize);
        let placement: Vec<bool> =
            rows.iter().map(|&r| column.bin_of_row(r as usize) <= bin).collect();
        let retired = self.place(&placement);
        (placement, retired)
    }
}

/// The host's protocol state: its phase (which carries the tree being
/// built), its binned columns, and every split it has won.
pub(crate) struct HostCore {
    phase: Phase,
    num_trees: u32,
    max_layers: usize,
    binned: BinnedDataset,
    /// An empty builder pair shaped by this host's columns.
    blank: BuilderPair,
    splits: HostSplitTable,
}

impl HostCore {
    /// A core awaiting the resume decision of a run of `gbdt`'s shape.
    pub fn new(binned: BinnedDataset, blank: BuilderPair, gbdt: &GbdtParams) -> HostCore {
        let (num_trees, max_layers) = (gbdt.num_trees as u32, gbdt.max_layers);
        let (phase, splits) = (Phase::AwaitResume, HostSplitTable::default());
        HostCore { phase, num_trees, max_layers, binned, blank, splits }
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

    /// Admits one guest message whose ciphers passed the key's checks: its
    /// indices and lengths against this host's shape, then its phase, tree
    /// and row cursor. The honest guest is strictly sequential per tree —
    /// every gradient batch of tree `t` precedes its first node task (FIFO
    /// link), and `TreeDone{t}` precedes any message of tree `t+1` — so
    /// out-of-phase, future-tree and replayed traffic is refused outright.
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
        let num_rows = self.binned.num_rows();
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
            | Msg::HostSplitChosen { node, .. }
                if *node as usize >= heap =>
            {
                return Err(inadmissible("node index outside the tree heap"));
            }
            Msg::NodeTask { epoch: 0, .. } => {
                return Err(inadmissible("materialization epochs start at 1"));
            }
            Msg::HostSplitChosen { feature, .. }
                if *feature as usize >= self.binned.num_features() =>
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
                    t.enc_g = Vec::with_capacity(num_rows);
                    t.enc_h = Vec::with_capacity(num_rows);
                    t.rows = NodeRows::new_tree(num_rows, self.max_layers);
                }
                t.stage = match last {
                    true => Stage::Nodes { queue: VecDeque::new(), epochs: HashMap::new() },
                    false => Stage::Gradients { next_row: end },
                };
                let (Tree { enc_g, enc_h, root, .. }, rows) = (t, start_row..end);
                return Ok(Step::Batch(Batch { tree, rows, g, h, enc_g, enc_h, root, last }));
            }
            Err(msg) => msg,
        };
        let Stage::Nodes { queue, epochs } = &mut t.stage else {
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
            Msg::ApplyPlacement { tree, node, placement } => {
                in_tree(tree)?;
                if !splittable(node) {
                    return Err(unexpected(
                        "placement for a node without rows (or past the last layer)",
                    ));
                }
                if t.rows.rows(node as usize).len() != placement.len() {
                    return Err(unexpected("placement length differs from the node's row count"));
                }
                Ok(Step::Place(Split { tree, node, rows: &mut t.rows, queue }, placement))
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
                let column = self.binned.column(feature as usize);
                if usize::from(bin) >= column.cuts.len() {
                    return Err(unexpected("split-chosen bin out of range"));
                }
                let split =
                    NodeSplit { feature: feature as usize, bin, threshold: column.threshold(bin) };
                self.splits.splits.insert((tree, node), split);
                Ok(Step::Choose(Split { tree, node, rows: &mut t.rows, queue }, column, bin))
            }
            _ => Err(out_of_phase("message inadmissible inside the node loop")),
        }
    }

    /// Pops the oldest queued task, with its tree and its node's rows.
    /// `None` when the queue is empty, and for a popped task there is
    /// nothing to build for: the root, whose histogram ships with the last
    /// gradient batch (its task is a uniformity artifact of the guest's
    /// materialize step), or a node without rows — its placement was lost
    /// with the peer, or the guest is confused; its epoch bookkeeping
    /// discards whatever would have been sent.
    pub fn next_task(&mut self) -> Option<(Task, &Tree, &[u32])> {
        let Phase::Tree(t) = &mut self.phase else { return None };
        let Stage::Nodes { queue, epochs } = &mut t.stage else { return None };
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
    /// would drop its answer by epoch, so the shell skips the pack (asked
    /// between build and pack) or the bytes (asked between pack and send).
    /// A superseded task stays queued, to be built again at its new epoch.
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

    /// Tree `tree`'s task queue and epochs, while its node loop runs.
    fn tasks(&mut self, tree: u32) -> Option<(&mut VecDeque<u32>, &mut HashMap<u32, u32>)> {
        match &mut self.phase {
            Phase::Tree(Tree { tree: t, stage: Stage::Nodes { queue, epochs }, .. })
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
    use vf2_gbdt::data::{Dataset, FeatureColumn};

    use crate::config::TrainConfig;
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
    /// bin each), a run of two trees of four layers, and its row-major view.
    fn core(rows: usize) -> (HostCore, RowMajorBins) {
        let cfg = TrainConfig::for_tests();
        let column = FeatureColumn::Dense((0..rows).map(|v| v as f32).collect());
        let binned = BinnedDataset::bin(&Dataset::new(rows, vec![column], None), &cfg.gbdt.binning);
        let csr = RowMajorBins::from_binned(&binned);
        let gbdt = GbdtParams { num_trees: 2, max_layers: 4, ..cfg.gbdt };
        (HostCore::new(binned, core_blank(&csr, &cfg), &gbdt), csr)
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

    fn zero() -> Ciphertext {
        Ciphertext::Plain(PlainNumber { value: 0.0, exponent: 0 })
    }

    // A GradBatch with `rows` plain ciphers so g.len() drives the row
    // cursor.
    fn grad(tree: u32, start_row: u32, rows: usize, last: bool) -> Msg {
        Msg::GradBatch { tree, start_row, g: vec![zero(); rows], h: vec![zero(); rows], last }
    }

    // A PackedGradBatch with `rows` GH-pair ciphers.
    fn packed_grad(tree: u32, start_row: u32, rows: usize, last: bool) -> Msg {
        Msg::PackedGradBatch { tree, start_row, gh: vec![zero(); rows], last }
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
        let placement = Msg::ApplyPlacement { tree: 0, node: 0, placement: vec![true; 8] };
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
        let (mut core, _) = core(8);
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
        inadmissible(packed_grad(0, 7, 2, false), "past the instance count");
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
        let place = |node, rows| Msg::ApplyPlacement { tree: 0, node, placement: vec![true; rows] };
        assert!(fatal(core.admit(place(1, 0))).contains("without rows"));
        assert!(fatal(core.admit(place(0, 7))).contains("length differs"));
        let choose = |node, bin| Msg::HostSplitChosen { tree: 0, node, feature: 0, bin };
        assert!(fatal(core.admit(choose(7, 0))).contains("unsplittable"));
        assert!(fatal(core.admit(choose(0, 7))).contains("bin out of range"));
        let Ok(Step::Choose(at, column, bin)) = core.admit(choose(0, 6)) else {
            panic!("bin 6 splits")
        };
        let (placement, retired) = at.choose(column, bin);
        assert_eq!((placement, retired), ([true; 7].into_iter().chain([false]).collect(), 0));
        assert_eq!(core.into_splits().splits[&(0, 0)].bin, 6);
    }

    /// Admits a placement and applies it as the shell does; returns the
    /// tasks it retired.
    fn place(core: &mut HostCore, node: u32, rows: usize, left: usize) -> u64 {
        let placement = (0..rows).map(|row| row < left).collect();
        match core.admit(Msg::ApplyPlacement { tree: 0, node, placement }) {
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
        for c in &batch.g {
            batch.enc_g.push(suite.enter(c).unwrap());
        }
        for c in batch.h.iter().flatten() {
            batch.enc_h.push(suite.enter(c).unwrap());
        }
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
        assert_eq!((task, rows), (Task { tree: 0, node: 2, epoch: 3 }, &[5, 6, 7][..]));
        let (mut g, mut h) = core_blank(&csr, &cfg);
        let streams = (&mut g, &tree.enc_g[..]);
        EncHistBuilder::add_rows(&suite, &csr, rows, streams, (&mut h, Some(&tree.enc_h))).unwrap();
        let bins = g.finalize_feature(&suite, 0, None).unwrap();
        let sum: f64 = bins.iter().map(|c| suite.decrypt(c).unwrap()).sum();
        assert_eq!(sum, 3.0);
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
        let replaced = vec![Msg::ApplyPlacement { tree: 0, node: 0, placement: vec![true; 8] }];
        assert_eq!(core.still_wanted(t, admit_all(replaced)), Ok(false));
        assert!(core.queued().is_empty());
        // The tree's end, and the next tree's own task for the same node
        // at the same epoch: the old task is not that one.
        let t = task(&mut core, 4);
        let mut next = vec![Msg::TreeDone { tree: 0 }, grad(1, 0, 8, true)];
        next.push(Msg::ApplyPlacement { tree: 1, node: 0, placement: vec![true; 8] });
        next.push(Msg::NodeTask { tree: 1, node: 1, epoch: 4 });
        assert_eq!(core.still_wanted(t, admit_all(next)), Ok(false));
        assert_eq!(core.queued(), vec![1]);
    }
}
