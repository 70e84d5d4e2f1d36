//! Per-peer validating protocol state machines — the untrusted-peer
//! admission layer.
//!
//! The peer on the other end of a cross-enterprise link is another
//! company's process: it may be buggy, stale, or actively hostile. Every
//! received [`Msg`] is therefore checked against the receiver's explicit
//! protocol phase *before* dispatch:
//!
//! * the **host** walks `AwaitResume → (Gradients → NodeLoop)* → Done`,
//!   admitting only the kinds the guest may legally send in each phase
//!   (see [`HostFsm`]);
//! * the **guest** tracks, per host, the handshake `AwaitHello → AwaitMeta
//!   → Active` (see [`GuestFsm`]); inside `Active` the tree's core
//!   (`grow.rs`) admits only answers to requests it actually made.
//!
//! Verdicts are three-valued: [`Admit::Deliver`] hands the message to the
//! dispatcher, [`Admit::Stale`] drops a *provably honest* straggler (the
//! optimistic protocol legitimately produces cross-tree and
//! superseded-epoch leftovers — those are telemetry, not misbehavior), and
//! a [`ProtocolError`] marks a violation. Violations are charged against a
//! per-peer [`MisbehaviorBudget`]; within budget the message is dropped
//! and counted, past it the run fails with
//! [`TrainError::PeerMisbehaving`].

use crate::error::{PartyId, ProtocolError, TrainError};
use crate::messages::Msg;

/// Admission verdict for one received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// In phase and in sequence: dispatch it.
    Deliver,
    /// A provably-honest straggler (rollback/previous-tree leftovers):
    /// drop it, count it in `stale_msgs_dropped`, note why.
    Stale(&'static str),
}

/// Per-peer misbehavior accounting with a configurable tolerance budget.
#[derive(Debug, Clone)]
pub struct MisbehaviorBudget {
    budget: u32,
    violations: u64,
}

impl MisbehaviorBudget {
    /// A fresh budget tolerating `budget` violations before failing.
    pub fn new(budget: u32) -> MisbehaviorBudget {
        MisbehaviorBudget { budget, violations: 0 }
    }

    /// Charges one violation from `party`. Returns `Ok(())` while the
    /// count stays within the budget (caller drops the message and keeps
    /// going) and [`TrainError::PeerMisbehaving`] once it exceeds it.
    pub fn charge(&mut self, party: PartyId, violation: ProtocolError) -> Result<(), TrainError> {
        self.violations += 1;
        if self.violations > u64::from(self.budget) {
            return Err(TrainError::PeerMisbehaving {
                party,
                violations: self.violations,
                budget: self.budget,
                last: Box::new(violation),
            });
        }
        Ok(())
    }
}

/// The host's protocol phase (its view of the guest's message stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostPhase {
    /// Hello sent; the guest must open with its `Resume` decision.
    AwaitResume,
    /// Blaster gradient batches for the current tree (or `Shutdown` when
    /// every tree is already done).
    Gradients,
    /// Node tasks / placements / split choices for the current tree,
    /// terminated by `TreeDone`.
    NodeLoop,
    /// Orderly shutdown received; nothing more is admissible.
    Done,
}

/// Validating state machine for the host's inbound (guest) stream.
///
/// The honest guest is strictly sequential per tree — every gradient
/// batch of tree `t` precedes tree `t`'s first node task (FIFO link), and
/// `TreeDone{t}` precedes any message of tree `t+1` — so the host can
/// reject out-of-phase, future-tree, or replayed traffic outright.
#[derive(Debug)]
pub struct HostFsm {
    phase: HostPhase,
    /// The tree the guest is currently building.
    tree: u32,
    num_trees: u32,
    /// The row the next gradient batch must start at.
    next_row: u32,
}

impl HostFsm {
    /// A fresh machine for a run of `num_trees` trees.
    pub fn new(num_trees: u32) -> HostFsm {
        HostFsm { phase: HostPhase::AwaitResume, tree: 0, num_trees, next_row: 0 }
    }

    /// Human-readable phase name (for error context).
    fn phase_name(&self) -> &'static str {
        match self.phase {
            HostPhase::AwaitResume => "await-resume",
            HostPhase::Gradients => "gradients",
            HostPhase::NodeLoop => "node-loop",
            HostPhase::Done => "done",
        }
    }

    fn reject(&self, kind: u16, context: &'static str) -> ProtocolError {
        ProtocolError::OutOfPhase { from: PartyId::Guest, kind, phase: self.phase_name(), context }
    }

    /// Checks one decoded message against the current phase, advancing
    /// the machine on admission.
    pub fn admit(&mut self, msg: &Msg) -> Result<Admit, ProtocolError> {
        // Host-bound kinds only: the guest never sends hellos, metadata,
        // histograms, or placements-as-answers.
        if matches!(
            msg,
            Msg::SessionHello { .. }
                | Msg::FeatureMeta(_)
                | Msg::NodeHistograms { .. }
                | Msg::Placement { .. }
        ) {
            return Err(self.reject(msg.kind(), "message kind the host never accepts"));
        }
        let (from, kind) = (PartyId::Guest, msg.kind());
        let replayed = |context| ProtocolError::StaleOrReplayed { from, kind, context };
        match self.phase {
            HostPhase::AwaitResume => match msg {
                Msg::Resume { tree_count, .. } => {
                    if *tree_count > self.num_trees {
                        let context = "resume point past the configured tree count";
                        return Err(ProtocolError::Inadmissible { from, kind, context });
                    }
                    self.tree = *tree_count;
                    self.next_row = 0;
                    self.phase = HostPhase::Gradients;
                    Ok(Admit::Deliver)
                }
                _ => Err(self.reject(msg.kind(), "only the resume decision may open a session")),
            },
            HostPhase::Gradients => match msg {
                // Raw and GH-packed batches share the row-stream contract:
                // strictly sequential rows of the current tree. Only the
                // per-row payload shape differs (two ciphers vs one).
                Msg::GradBatch { tree, start_row, g: rows, last, .. }
                | Msg::PackedGradBatch { tree, start_row, gh: rows, last } => {
                    if *tree < self.tree {
                        return Err(replayed("gradient batch for a completed tree"));
                    }
                    if *tree > self.tree {
                        return Err(self.reject(msg.kind(), "gradient batch for a future tree"));
                    }
                    if *start_row < self.next_row {
                        return Err(replayed("gradient batch replays rows already received"));
                    }
                    if *start_row > self.next_row {
                        return Err(
                            self.reject(msg.kind(), "gradient batch leaves a gap in the rows")
                        );
                    }
                    self.next_row = self.next_row.saturating_add(rows.len() as u32);
                    if *last {
                        self.phase = HostPhase::NodeLoop;
                    }
                    Ok(Admit::Deliver)
                }
                Msg::Shutdown => {
                    self.phase = HostPhase::Done;
                    Ok(Admit::Deliver)
                }
                _ => Err(self.reject(msg.kind(), "tree building before the gradient stream")),
            },
            HostPhase::NodeLoop => match msg {
                Msg::NodeTask { tree, .. }
                | Msg::ApplyPlacement { tree, .. }
                | Msg::HostSplitChosen { tree, .. }
                | Msg::NodeLeaf { tree, .. } => {
                    if *tree < self.tree {
                        return Err(replayed("node message for a completed tree"));
                    }
                    if *tree > self.tree {
                        return Err(self.reject(msg.kind(), "node message for a future tree"));
                    }
                    Ok(Admit::Deliver)
                }
                Msg::TreeDone { tree } => {
                    if *tree != self.tree {
                        return Err(
                            self.reject(msg.kind(), "tree-done for a tree that is not current")
                        );
                    }
                    self.tree = self.tree.saturating_add(1);
                    self.next_row = 0;
                    self.phase = HostPhase::Gradients;
                    Ok(Admit::Deliver)
                }
                Msg::GradBatch { .. } | Msg::PackedGradBatch { .. } => {
                    Err(self.reject(msg.kind(), "gradients before the current tree finished"))
                }
                _ => Err(self.reject(msg.kind(), "message inadmissible inside the node loop")),
            },
            HostPhase::Done => Err(self.reject(msg.kind(), "traffic after the orderly shutdown")),
        }
    }

    /// Rows the machine has admitted for the current tree (test hook).
    #[cfg(test)]
    fn rows_admitted(&self) -> u32 {
        self.next_row
    }
}

/// The guest's per-host handshake phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuestPhase {
    /// Waiting for the host's `SessionHello`.
    AwaitHello,
    /// Waiting for the host's `FeatureMeta`.
    AwaitMeta,
    /// Steady state: histogram / placement answers only.
    Active,
}

/// Validating state machine for one host's handshake at the guest.
///
/// A host opens with its `SessionHello`, then its `FeatureMeta`; after
/// that it may send only answers — histograms and placements — and whether
/// the guest asked for one is the tree's core's question
/// (`grow::TreeCore::admit`), which records every request it makes.
#[derive(Debug)]
pub struct GuestFsm {
    host: usize,
    phase: GuestPhase,
}

impl GuestFsm {
    /// A fresh machine for host `host`.
    pub fn new(host: usize) -> GuestFsm {
        GuestFsm { host, phase: GuestPhase::AwaitHello }
    }

    /// Human-readable phase name (for error context).
    fn phase_name(&self) -> &'static str {
        match self.phase {
            GuestPhase::AwaitHello => "await-hello",
            GuestPhase::AwaitMeta => "await-meta",
            GuestPhase::Active => "active",
        }
    }

    fn reject(&self, kind: u16, context: &'static str) -> ProtocolError {
        ProtocolError::OutOfPhase {
            from: PartyId::Host(self.host),
            kind,
            phase: self.phase_name(),
            context,
        }
    }

    /// Checks one decoded message from this host, advancing the machine
    /// on admission.
    pub fn admit(&mut self, msg: &Msg) -> Result<Admit, ProtocolError> {
        // Guest-bound kinds only: a host never drives the protocol.
        if matches!(
            msg,
            Msg::GradBatch { .. }
                | Msg::PackedGradBatch { .. }
                | Msg::NodeTask { .. }
                | Msg::ApplyPlacement { .. }
                | Msg::HostSplitChosen { .. }
                | Msg::NodeLeaf { .. }
                | Msg::TreeDone { .. }
                | Msg::Resume { .. }
                | Msg::Shutdown
        ) {
            return Err(self.reject(msg.kind(), "message kind the guest never accepts"));
        }
        self.phase = match (self.phase, msg) {
            (GuestPhase::AwaitHello, Msg::SessionHello { .. }) => GuestPhase::AwaitMeta,
            (GuestPhase::AwaitHello, _) => {
                return Err(self.reject(msg.kind(), "a connection must open with the session hello"))
            }
            (GuestPhase::AwaitMeta, Msg::FeatureMeta(_)) => GuestPhase::Active,
            (GuestPhase::AwaitMeta, _) => {
                return Err(self.reject(msg.kind(), "feature metadata must follow the hello"))
            }
            (GuestPhase::Active, Msg::SessionHello { .. } | Msg::FeatureMeta(_)) => {
                return Err(self.reject(msg.kind(), "handshake replayed mid-run"))
            }
            // A histogram or a placement: the tree's core judges it against
            // what the host owes.
            (GuestPhase::Active, _) => GuestPhase::Active,
        };
        Ok(Admit::Deliver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::HistPayload;

    // A GradBatch with `rows` plain ciphers so g.len() drives the FSM's
    // row cursor.
    fn grad(tree: u32, start_row: u32, rows: usize, last: bool) -> Msg {
        let c = vf2_crypto::suite::Ciphertext::Plain(vf2_crypto::suite::PlainNumber {
            value: 0.0,
            exponent: 0,
        });
        Msg::GradBatch { tree, start_row, g: vec![c.clone(); rows], h: vec![c; rows], last }
    }

    fn hist(tree: u32, node: u32, epoch: u32) -> Msg {
        Msg::NodeHistograms { tree, node, epoch, payload: HistPayload::Raw(vec![]) }
    }

    #[test]
    fn host_happy_path_walks_all_phases() {
        let mut fsm = HostFsm::new(2);
        assert_eq!(fsm.phase_name(), "await-resume");
        assert_eq!(fsm.admit(&Msg::Resume { session_id: 0, tree_count: 0 }), Ok(Admit::Deliver));
        assert_eq!(fsm.phase_name(), "gradients");
        assert_eq!(fsm.admit(&grad(0, 0, 4, false)), Ok(Admit::Deliver));
        assert_eq!(fsm.admit(&grad(0, 4, 4, true)), Ok(Admit::Deliver));
        assert_eq!(fsm.rows_admitted(), 8);
        assert_eq!(fsm.phase_name(), "node-loop");
        assert_eq!(fsm.admit(&Msg::NodeTask { tree: 0, node: 0, epoch: 1 }), Ok(Admit::Deliver));
        assert_eq!(
            fsm.admit(&Msg::ApplyPlacement { tree: 0, node: 0, placement: vec![true] }),
            Ok(Admit::Deliver)
        );
        assert_eq!(fsm.admit(&Msg::TreeDone { tree: 0 }), Ok(Admit::Deliver));
        assert_eq!(fsm.phase_name(), "gradients");
        assert_eq!(fsm.admit(&grad(1, 0, 8, true)), Ok(Admit::Deliver));
        assert_eq!(fsm.admit(&Msg::TreeDone { tree: 1 }), Ok(Admit::Deliver));
        assert_eq!(fsm.admit(&Msg::Shutdown), Ok(Admit::Deliver));
        assert_eq!(fsm.phase_name(), "done");
        // Nothing is admissible after shutdown.
        assert!(fsm.admit(&Msg::TreeDone { tree: 2 }).is_err());
    }

    #[test]
    fn host_rejects_phase_skips_and_replays() {
        let mut fsm = HostFsm::new(2);
        // Node task before the resume handshake.
        let err = fsm.admit(&Msg::NodeTask { tree: 0, node: 0, epoch: 1 }).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 3, .. }), "{err}");
        fsm.admit(&Msg::Resume { session_id: 0, tree_count: 0 }).unwrap();
        // Future tree.
        let err = fsm.admit(&grad(5, 0, 4, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Legitimate batch, then a replay of the same rows.
        fsm.admit(&grad(0, 0, 4, false)).unwrap();
        let err = fsm.admit(&grad(0, 0, 4, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        // A gap in the row stream.
        let err = fsm.admit(&grad(0, 6, 2, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Tree building while gradients are still due.
        let err = fsm.admit(&Msg::NodeTask { tree: 0, node: 0, epoch: 1 }).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Finish the stream; gradients are now out of phase.
        fsm.admit(&grad(0, 4, 4, true)).unwrap();
        let err = fsm.admit(&grad(0, 8, 1, true)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // Host-bound kinds are rejected outright.
        let err = fsm.admit(&hist(0, 0, 1)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 4, .. }), "{err}");
    }

    // A PackedGradBatch with `rows` GH-pair ciphers.
    fn packed_grad(tree: u32, start_row: u32, rows: usize, last: bool) -> Msg {
        let c = vf2_crypto::suite::Ciphertext::Plain(vf2_crypto::suite::PlainNumber {
            value: 0.0,
            exponent: 0,
        });
        Msg::PackedGradBatch { tree, start_row, gh: vec![c; rows], last }
    }

    #[test]
    fn packed_batches_drive_the_same_row_stream_contract() {
        let mut fsm = HostFsm::new(2);
        fsm.admit(&Msg::Resume { session_id: 0, tree_count: 0 }).unwrap();
        // GH-packed batches advance the row cursor by one row per cipher.
        assert_eq!(fsm.admit(&packed_grad(0, 0, 4, false)), Ok(Admit::Deliver));
        assert_eq!(fsm.rows_admitted(), 4);
        // Replays and gaps are caught exactly like raw batches.
        let err = fsm.admit(&packed_grad(0, 0, 4, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::StaleOrReplayed { .. }), "{err}");
        let err = fsm.admit(&packed_grad(0, 6, 2, true)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        // `last` closes the stream; further packed batches are out of phase.
        assert_eq!(fsm.admit(&packed_grad(0, 4, 4, true)), Ok(Admit::Deliver));
        assert_eq!(fsm.phase_name(), "node-loop");
        let err = fsm.admit(&packed_grad(0, 8, 1, true)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 14, .. }), "{err}");
        // The guest never accepts packed batches at all.
        let mut guest = active_guest();
        let err = guest.admit(&packed_grad(3, 0, 1, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 14, .. }), "{err}");
    }

    #[test]
    fn host_rejects_resume_past_tree_count_and_late_resume() {
        let mut fsm = HostFsm::new(2);
        let err = fsm.admit(&Msg::Resume { session_id: 0, tree_count: 9 }).unwrap_err();
        assert!(matches!(err, ProtocolError::Inadmissible { .. }), "{err}");
        fsm.admit(&Msg::Resume { session_id: 0, tree_count: 2 }).unwrap();
        // Resuming at num_trees is legal; the guest then shuts down.
        assert_eq!(fsm.admit(&Msg::Shutdown), Ok(Admit::Deliver));
        let err = fsm.admit(&Msg::Resume { session_id: 0, tree_count: 0 }).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
    }

    #[test]
    fn guest_handshake_order_is_enforced() {
        let mut fsm = GuestFsm::new(1);
        let err = fsm.admit(&Msg::FeatureMeta(vec![])).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { from: PartyId::Host(1), .. }), "{err}");
        fsm.admit(&Msg::SessionHello { session_id: 0, durable: vec![] }).unwrap();
        // A second hello is a replayed handshake.
        let err = fsm.admit(&Msg::SessionHello { session_id: 0, durable: vec![] }).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
        fsm.admit(&Msg::FeatureMeta(vec![])).unwrap();
        assert_eq!(fsm.phase_name(), "active");
        let err = fsm.admit(&Msg::FeatureMeta(vec![])).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { .. }), "{err}");
    }

    fn active_guest() -> GuestFsm {
        let mut fsm = GuestFsm::new(0);
        fsm.admit(&Msg::SessionHello { session_id: 0, durable: vec![] }).unwrap();
        fsm.admit(&Msg::FeatureMeta(vec![])).unwrap();
        fsm
    }

    /// The handshake machine passes a host's answers on to the tree's core
    /// (`grow.rs` pins what it admits) and refuses every kind only the
    /// protocol driver sends.
    #[test]
    fn guest_passes_answers_and_rejects_driver_kinds() {
        let mut fsm = active_guest();
        assert_eq!(fsm.admit(&hist(3, 0, 1)), Ok(Admit::Deliver));
        let placement = Msg::Placement { tree: 3, node: 1, placement: vec![] };
        assert_eq!(fsm.admit(&placement), Ok(Admit::Deliver));
        let err = fsm.admit(&Msg::Shutdown).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 10, .. }), "{err}");
        let err = fsm.admit(&Msg::TreeDone { tree: 3 }).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 9, .. }), "{err}");
    }

    #[test]
    fn budget_tolerates_then_trips() {
        let mut b = MisbehaviorBudget::new(2);
        let v =
            || ProtocolError::StaleOrReplayed { from: PartyId::Host(0), kind: 4, context: "test" };
        assert!(b.charge(PartyId::Host(0), v()).is_ok());
        assert!(b.charge(PartyId::Host(0), v()).is_ok());
        let err = b.charge(PartyId::Host(0), v()).unwrap_err();
        match err {
            TrainError::PeerMisbehaving { party, violations, budget, .. } => {
                assert_eq!(party, PartyId::Host(0));
                assert_eq!(violations, 3);
                assert_eq!(budget, 2);
            }
            other => panic!("wrong error: {other}"),
        }
        assert_eq!(b.violations, 3);
    }

    #[test]
    fn zero_budget_fails_on_first_violation() {
        let mut b = MisbehaviorBudget::new(0);
        let v = ProtocolError::OutOfPhase {
            from: PartyId::Guest,
            kind: 2,
            phase: "node-loop",
            context: "test",
        };
        assert!(matches!(
            b.charge(PartyId::Guest, v),
            Err(TrainError::PeerMisbehaving { violations: 1, budget: 0, .. })
        ));
    }
}
