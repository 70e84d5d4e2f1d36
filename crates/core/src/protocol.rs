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
    /// Blaster-style encryption batch size (§4.1). `None` encrypts and
    /// ships all gradient statistics in one bulk message (the baseline).
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
    pub fn vf2boost() -> ProtocolConfig {
        ProtocolConfig {
            optimistic: true,
            blaster_batch: Some(4096),
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
}
