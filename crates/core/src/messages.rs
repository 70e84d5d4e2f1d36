//! Cross-party protocol messages.
//!
//! All guest↔host traffic is expressed as [`Msg`] values, serialized by
//! [`crate::wire`] and carried over `vf2-channel` links. Message kinds map
//! onto the paper's workflow (§3.2): gradient-statistics transfer,
//! histogram transfer, split decisions, and instance placement.

use vf2_crypto::suite::{Ciphertext, PackedCiphertext};

/// Per-feature histogram metadata a host shares once at startup.
///
/// Only bin *structure* is revealed (bin count and which bin holds zero),
/// never cut values — the guest needs these to reconstruct sparse zero bins
/// and enumerate candidate splits by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureMeta {
    /// Number of histogram bins.
    pub num_bins: u16,
    /// The bin containing the value 0.0.
    pub zero_bin: u16,
}

/// One feature's encrypted histogram in raw per-bin form (the baseline
/// SecureBoost wire format).
#[derive(Debug, Clone, PartialEq)]
pub struct RawFeatureHist {
    /// Per-bin gradient-sum ciphers.
    pub g: Vec<Ciphertext>,
    /// Per-bin hessian-sum ciphers.
    pub h: Vec<Ciphertext>,
}

/// One feature's encrypted histogram as packed *prefix sums* (§5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedFeatureHist {
    /// Packed prefix-sum ciphers of the (shifted) gradient histogram.
    pub g: Vec<PackedCiphertext>,
    /// Packed prefix-sum ciphers of the hessian histogram.
    pub h: Vec<PackedCiphertext>,
    /// Number of bins the prefixes cover.
    pub bins: u16,
}

/// One feature's histogram on the paired path: each [`PackedCiphertext`]
/// slot holds one bin's accumulated `(Σg, Σh)` pair in the offset layout
/// of `vf2_crypto::GhPlan`, topped up to the constant offset `N·B_g`, so a
/// single decryption recovers both sums for many bins at once.
#[derive(Debug, Clone, PartialEq)]
pub struct GhPackedFeatureHist {
    /// Packed runs of per-bin GH pairs.
    pub packed: Vec<PackedCiphertext>,
    /// Number of bins the runs cover.
    pub bins: u16,
}

/// The histogram payload of one node, in any wire format.
#[derive(Debug, Clone, PartialEq)]
pub enum HistPayload {
    /// Raw per-bin ciphers.
    Raw(Vec<RawFeatureHist>),
    /// Packed prefix sums of the two-stream path.
    Packed(Vec<PackedFeatureHist>),
    /// Packed GH-pair bins: what a Paillier run with `pack_histograms`
    /// ships, in answer to [`Msg::PackedGradBatch`].
    GhPacked(Vec<GhPackedFeatureHist>),
}

/// A protocol message. Direction is indicated per variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// host → guest, once at startup: histogram structure of every host
    /// feature.
    FeatureMeta(Vec<FeatureMeta>),
    /// guest → host: one blaster batch of encrypted gradient statistics
    /// for rows `[start_row, start_row + g.len())` of the given tree.
    GradBatch {
        /// Tree index.
        tree: u32,
        /// First row covered by this batch.
        start_row: u32,
        /// Encrypted gradients.
        g: Vec<Ciphertext>,
        /// Encrypted hessians.
        h: Vec<Ciphertext>,
        /// True on the final batch of the tree.
        last: bool,
    },
    /// guest → host: one blaster batch of GH-packed gradient statistics —
    /// a single cipher per row holding both `g` and `h`. The forward path
    /// of every Paillier run with `pack_histograms`; the mock suite and the
    /// raw-histogram ablation rows keep [`Msg::GradBatch`].
    PackedGradBatch {
        /// Tree index.
        tree: u32,
        /// First row covered by this batch.
        start_row: u32,
        /// Encrypted GH pairs, one cipher per row.
        gh: Vec<Ciphertext>,
        /// True on the final batch of the tree.
        last: bool,
    },
    /// guest → host: build histograms for a node (the host replies with
    /// [`Msg::NodeHistograms`] echoing the epoch).
    NodeTask {
        /// Tree index.
        tree: u32,
        /// Heap node id.
        node: u32,
        /// Guest materialization epoch; stale replies are discarded.
        epoch: u32,
    },
    /// host → guest: encrypted histograms of one node.
    NodeHistograms {
        /// Tree index.
        tree: u32,
        /// Heap node id.
        node: u32,
        /// Epoch echoed from the task.
        epoch: u32,
        /// The histogram payload.
        payload: HistPayload,
    },
    /// guest → host: split this node's rows by the given placement
    /// (`true` = left child). Sent for guest-won splits and relayed for
    /// splits won by *other* hosts.
    ApplyPlacement {
        /// Tree index.
        tree: u32,
        /// Heap node id.
        node: u32,
        /// The guest's optimistic split, not validated yet (§4.2): the host
        /// holds its histograms of the node's children until
        /// [`Msg::SplitValidated`] or a re-placement of the node decides
        /// them.
        speculative: bool,
        /// Placement over the node's rows, in row-list order.
        placement: Vec<bool>,
    },
    /// guest → host: the guest's optimistic split of `node` won its
    /// validation; the histograms held for the node's children may ship.
    SplitValidated {
        /// Tree index.
        tree: u32,
        /// Heap node id.
        node: u32,
    },
    /// guest → host: this host's feature `feature` at bin `bin` won the
    /// node's split; recover the split, apply it, and reply with
    /// [`Msg::Placement`].
    HostSplitChosen {
        /// Tree index.
        tree: u32,
        /// Heap node id.
        node: u32,
        /// Host-local feature index.
        feature: u32,
        /// Winning bin index.
        bin: u16,
    },
    /// host → guest: the placement induced by a host-owned split.
    Placement {
        /// Tree index.
        tree: u32,
        /// Heap node id.
        node: u32,
        /// Placement over the node's rows (`true` = left).
        placement: Vec<bool>,
    },
    /// guest → host: the tree is complete; release per-tree state.
    TreeDone {
        /// Tree index.
        tree: u32,
    },
    /// guest → host: training is over.
    Shutdown,
    /// host → guest, the very first message of a (re)started run: the
    /// host's view of the resumable session. `durable` lists the tree
    /// counts of the host's valid on-disk checkpoints; the guest intersects
    /// them with its own to pick the resume point.
    SessionHello {
        /// Session identifier the host was started with (0 = none).
        session_id: u64,
        /// Tree counts of the host's durable checkpoints, ascending.
        durable: Vec<u32>,
    },
    /// guest → host, right after the hello exchange: the agreed resume
    /// point. `tree_count == 0` means a fresh start; otherwise both
    /// parties load their checkpoint at exactly `tree_count` trees and
    /// training continues from tree `tree_count`.
    Resume {
        /// Session identifier the guest was started with (0 = none).
        session_id: u64,
        /// The last mutually durable tree count.
        tree_count: u32,
    },
}

impl Msg {
    /// Wire kind tag (stable across versions of the wire format). Tag 8
    /// was the leaf notice no party read, tag 13 the liveness beacon and
    /// tags 15 / 16 the mid-run rewind and its ack; all four are retired
    /// and never reused.
    pub fn kind(&self) -> u16 {
        match self {
            Msg::FeatureMeta(_) => 1,
            Msg::GradBatch { .. } => 2,
            Msg::NodeTask { .. } => 3,
            Msg::NodeHistograms { .. } => 4,
            Msg::ApplyPlacement { .. } => 5,
            Msg::HostSplitChosen { .. } => 6,
            Msg::Placement { .. } => 7,
            Msg::TreeDone { .. } => 9,
            Msg::Shutdown => 10,
            Msg::SessionHello { .. } => 11,
            Msg::Resume { .. } => 12,
            Msg::PackedGradBatch { .. } => 14,
            Msg::SplitValidated { .. } => 17,
        }
    }
}
