//! The guest's handshake machine and the per-peer misbehavior budget —
//! the untrusted-peer admission layer's shared half.
//!
//! The peer on the other end of a cross-enterprise link is another
//! company's process: it may be buggy, stale, or actively hostile. The
//! **guest** tracks, per host, the handshake `AwaitHello → AwaitMeta →
//! Active` (see [`GuestFsm`]); inside `Active` the tree's core (`grow.rs`)
//! admits only answers to requests it actually made. The **host**'s one
//! admission is its core's (`serve.rs`).
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
                | Msg::SplitValidated { .. }
                | Msg::HostSplitChosen { .. }
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

    fn hist(tree: u32, node: u32, epoch: u32) -> Msg {
        Msg::NodeHistograms { tree, node, epoch, payload: HistPayload::Raw(vec![]) }
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
        // The guest never accepts gradient batches, packed or not.
        let c = vf2_crypto::suite::Ciphertext::Plain(vf2_crypto::suite::PlainNumber {
            value: 0.0,
            exponent: 0,
        });
        let packed = Msg::PackedGradBatch { tree: 3, start_row: 0, gh: vec![c], last: false };
        let err = fsm.admit(&packed).unwrap_err();
        assert!(matches!(err, ProtocolError::OutOfPhase { kind: 14, .. }), "{err}");
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
