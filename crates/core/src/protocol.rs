//! Protocol configuration: which of the paper's techniques are active.

/// Selects the training protocol and the individual optimizations.
///
/// The paper's systems map onto this struct as:
///
/// | system | config |
/// |---|---|
/// | VF-GBDT (baseline) | [`ProtocolConfig::baseline`] |
/// | VF²Boost | [`ProtocolConfig::vf2boost`] |
/// | +BlasterEnc only | baseline + `blaster_batch: Some(..)` |
/// | +Re-ordered only | baseline + `reordered_accumulation: true` |
/// | +OptimSplit only | baseline + `optimistic: true` |
/// | +HistPack only | baseline + `pack_histograms: true` |
///
/// Every row runs through the guest's one tree loop (DESIGN.md §3.13);
/// `optimistic` only selects when that loop commits the histogram answers
/// it has admitted — as they arrive, or held until the whole layer is in
/// (the baseline's "BuildHistA fully precedes FindSplitA"). The toggle
/// changes *when* answers are decrypted, never *which* split wins
/// (admission and the index-ordered winner scan decide that).
///
/// These four fields are the whole contract. What both presets share —
/// one host task per split with the larger child derived by the guest
/// (DESIGN.md §3.6), CRT decryption, the Montgomery core — is substrate,
/// not an ablation row, and has no toggle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Optimistic node-splitting with dirty-node rollback (§4.2). When
    /// false, the guest is phase-sequential per layer: it never speculates
    /// and decrypts a layer's histograms only once all of them arrived.
    pub optimistic: bool,
    /// Blaster-style encryption batch size in rows (§4.1): the guest
    /// encrypts a batch, hands it to the gateway and encrypts the next
    /// while it is on the wire, and each host folds a batch into the root
    /// histogram as it lands. `None` encrypts and ships all gradient
    /// statistics in one bulk message (the baseline). A batch at least as
    /// large as a tree's rows is the bulk message under another name, so
    /// the default is small enough to cut every shape into several
    /// batches (see [`ProtocolConfig::vf2boost`]).
    pub blaster_batch: Option<usize>,
    /// Re-ordered histogram accumulation: per-exponent workspaces merged
    /// once at the end (§5.1). When false, ciphers are accumulated
    /// naively with on-the-fly exponent scaling.
    pub reordered_accumulation: bool,
    /// Polynomial-based histogram packing (§5.2). When false, hosts ship
    /// raw per-bin ciphers. Under a Paillier suite this also selects the
    /// forward path ([`crate::config::TrainConfig::gh_plan`]): packed runs
    /// ship one `(g, h)` cipher per instance and pack GH-pair bins;
    /// unpacked runs, and the mock suite always, keep two gradient streams
    /// and (when packing) prefix sums.
    pub pack_histograms: bool,
}

impl ProtocolConfig {
    /// The unoptimized SecureBoost-style baseline (the paper's VF-GBDT).
    pub fn baseline() -> ProtocolConfig {
        ProtocolConfig {
            optimistic: false,
            blaster_batch: None,
            reordered_accumulation: false,
            pack_histograms: false,
        }
    }

    /// Everything on (the paper's VF²Boost).
    ///
    /// Gradients stream in 128-row batches: a 160-row tree is already two
    /// batches, and on a 5 Mbps link a 1 250-row tree's per-host frame of
    /// ≈ 170 KB becomes ten ≈ 17 KB frames, so Enc, the wire and the
    /// host's root accumulation overlap and a lost frame re-sends ≈ 27 ms
    /// of wire instead of ≈ 270 ms. Smaller batches gain nothing more on a
    /// slow link and only add per-message overhead where compute bounds
    /// the tree; at 400 000 rows 128-row batches cost +0.35 % bytes.
    pub fn vf2boost() -> ProtocolConfig {
        ProtocolConfig {
            optimistic: true,
            blaster_batch: Some(128),
            reordered_accumulation: true,
            pack_histograms: true,
        }
    }
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self::vf2boost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_no_optimizations() {
        let b = ProtocolConfig::baseline();
        assert!(!b.optimistic && !b.reordered_accumulation && !b.pack_histograms);
        assert!(b.blaster_batch.is_none());
    }

    #[test]
    fn vf2boost_enables_all_four() {
        let v = ProtocolConfig::vf2boost();
        assert!(v.optimistic && v.reordered_accumulation && v.pack_histograms);
        assert!(v.blaster_batch.is_some());
    }

    /// The default pipelines (§4.1) at the smallest benchmark shape: a
    /// batch as large as the tree would ship it as one bulk frame.
    #[test]
    fn vf2boost_cuts_a_160_row_tree_into_batches() {
        let batch = ProtocolConfig::vf2boost().blaster_batch.expect("vf2boost batches");
        assert!(batch >= 1 && 160usize.div_ceil(batch) >= 2, "{batch} rows per batch");
    }
}
