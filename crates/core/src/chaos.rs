//! Failure injection for the robustness suites — deliberately *not* part
//! of [`crate::config::TrainConfig`].
//!
//! A [`ChaosPlan`] reaches a run only through
//! [`crate::train::train_federated_session`] (and [`crate::host::run_host`]
//! for a scripted single party): nothing a deployment configures can set
//! it, and [`crate::train::train_federated`] always runs the inert
//! default.

use vf2_channel::FaultConfig;

/// What a test breaks in one run. `Default` is inert: fault-free links, no
/// injected crash.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosPlan {
    /// Fault plan of every guest→host link direction. Host `p`'s link
    /// offsets the seed by `p` and opens any stall window `p` window
    /// lengths later, so multi-host runs see distinct fault streams and
    /// rolling outages rather than one synchronized blackout.
    pub fault_guest_to_host: FaultConfig,
    /// Fault plan of every host→guest link direction (derived per host as
    /// above).
    pub fault_host_to_guest: FaultConfig,
    /// The one kill point: host 0 panics (simulating a process kill) the
    /// moment it receives the `NodeTask` for this `(tree, node)` — inside
    /// the node loop, between a task and its histogram answer. `(n, 0)`
    /// arrives FIFO-after `TreeDone(n − 1)`, so the `n`-tree checkpoint is
    /// durable on every party. Only host 0 honors it; in a multi-host run
    /// the other hosts lose the guest when its run fails, and every party
    /// resumes from that common checkpoint.
    pub crash_host_on_node_task: Option<(u32, u32)>,
    /// The encrypted histogram build of this tree panics where column
    /// shard 0 runs — inside the party pool's `install`, at the first
    /// accumulation (the root's first batch) — exercising the worker-panic
    /// containment path at any `workers`.
    pub crash_hist_worker_on_tree: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_plan_is_inert() {
        let plan = ChaosPlan::default();
        assert!(!plan.fault_guest_to_host.is_active());
        assert!(!plan.fault_host_to_guest.is_active());
        assert!(plan.crash_host_on_node_task.is_none());
        assert!(plan.crash_hist_worker_on_tree.is_none());
    }
}
