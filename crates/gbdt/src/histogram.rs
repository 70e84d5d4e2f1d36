//! Plaintext gradient histograms — the core GBDT data structure (§2.1).
//!
//! A histogram summarizes a feature on a tree node: bin `b` holds the sum
//! of gradients and hessians of the node's instances whose feature value
//! falls in bin `b`. Split gains are then computed from prefix sums.
//!
//! Construction sweeps each binned column's stored (non-zero) entries once
//! per layer and routes each entry to its row's node — `O(N·d)` per layer.
//! For sparse columns the zero bin is reconstructed afterwards as
//! `node_total − Σ stored bins` (zero-bin correction), so implicit zeros
//! are never iterated.

use crate::binning::{BinnedDataset, BinnedEntries};

/// A gradient/hessian pair (the paper's `(g, h)`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GradPair {
    /// Sum (or value) of gradients.
    pub g: f64,
    /// Sum (or value) of hessians.
    pub h: f64,
}

impl GradPair {
    /// A zero pair.
    pub const ZERO: GradPair = GradPair { g: 0.0, h: 0.0 };
}

impl std::ops::Add for GradPair {
    type Output = GradPair;

    fn add(self, o: GradPair) -> GradPair {
        GradPair { g: self.g + o.g, h: self.h + o.h }
    }
}

impl std::ops::Sub for GradPair {
    type Output = GradPair;

    fn sub(self, o: GradPair) -> GradPair {
        GradPair { g: self.g - o.g, h: self.h - o.h }
    }
}

impl std::ops::AddAssign for GradPair {
    fn add_assign(&mut self, o: GradPair) {
        self.g += o.g;
        self.h += o.h;
    }
}

/// A per-feature, per-node gradient histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// One gradient pair per bin.
    pub bins: Vec<GradPair>,
}

impl Histogram {
    /// An all-zero histogram with `num_bins` bins.
    pub fn zeros(num_bins: usize) -> Histogram {
        Histogram { bins: vec![GradPair::ZERO; num_bins] }
    }

    /// Sum over all bins.
    pub fn total(&self) -> GradPair {
        self.bins.iter().fold(GradPair::ZERO, |acc, &b| acc + b)
    }

    /// Prefix sums: entry `b` is the sum of bins `0..=b` (the left-child
    /// statistics of a split at bin `b`).
    pub fn prefix_sums(&self) -> Vec<GradPair> {
        let mut acc = GradPair::ZERO;
        self.bins
            .iter()
            .map(|&b| {
                acc += b;
                acc
            })
            .collect()
    }
}

/// Histograms for every (feature, node) pair of one tree layer, stored
/// per-feature so that features build independently in parallel.
#[derive(Debug, Clone)]
pub struct LayerHistograms {
    /// `per_feature[f][slot]` is feature `f`'s histogram on layer slot
    /// `slot`.
    pub per_feature: Vec<Vec<Histogram>>,
}

impl LayerHistograms {
    /// The histogram of feature `f` on node slot `slot`.
    pub fn hist(&self, f: usize, slot: usize) -> &Histogram {
        &self.per_feature[f][slot]
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.per_feature.len()
    }
}

/// Builds the histograms of one tree layer for every feature.
///
/// * `node_of_row[row]` is the row's layer-local node slot, or `-1` if the
///   row sits in an already-finalized leaf.
/// * `node_totals[slot]` is the total gradient pair of each slot, used for
///   the sparse zero-bin correction.
///
/// Features are processed one after another, on the calling thread.
pub fn build_layer_histograms(
    binned: &BinnedDataset,
    grads: &[GradPair],
    node_of_row: &[i32],
    node_totals: &[GradPair],
) -> LayerHistograms {
    let num_slots = node_totals.len();
    let per_feature: Vec<Vec<Histogram>> = binned
        .columns()
        .iter()
        .map(|col| {
            let mut hists = vec![Histogram::zeros(col.num_bins()); num_slots];
            for (row, bin) in col.iter_nonzero() {
                let slot = node_of_row[row as usize];
                if slot >= 0 {
                    hists[slot as usize].bins[bin as usize] += grads[row as usize];
                }
            }
            // Zero-bin correction for sparse columns: implicit zeros carry
            // node_total − Σ(stored bins).
            if matches!(col.entries, BinnedEntries::Sparse { .. }) {
                for (slot, hist) in hists.iter_mut().enumerate() {
                    let stored = hist.total();
                    hist.bins[col.zero_bin as usize] += node_totals[slot] - stored;
                }
            }
            hists
        })
        .collect();
    LayerHistograms { per_feature }
}

/// Sums the gradient pairs of each node slot (`node_of_row` semantics as in
/// [`build_layer_histograms`]).
pub fn node_totals(grads: &[GradPair], node_of_row: &[i32], num_slots: usize) -> Vec<GradPair> {
    let mut totals = vec![GradPair::ZERO; num_slots];
    for (row, &slot) in node_of_row.iter().enumerate() {
        if slot >= 0 {
            totals[slot as usize] += grads[row];
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::{BinnedDataset, BinningConfig};
    use crate::data::{Dataset, FeatureColumn};

    fn unit_grads(n: usize) -> Vec<GradPair> {
        (0..n).map(|i| GradPair { g: (i + 1) as f64, h: 1.0 }).collect()
    }

    #[test]
    fn dense_histogram_accumulates_by_bin() {
        let d =
            Dataset::new(6, vec![FeatureColumn::Dense(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0])], None);
        let binned = BinnedDataset::bin(&d, &BinningConfig { num_bins: 3, max_samples: 1 << 16 });
        let grads = unit_grads(6);
        let node_of_row = vec![0i32; 6];
        let totals = node_totals(&grads, &node_of_row, 1);
        let hists = build_layer_histograms(&binned, &grads, &node_of_row, &totals);
        let hist = hists.hist(0, 0);
        let total = hist.total();
        assert!((total.g - 21.0).abs() < 1e-12);
        assert!((total.h - 6.0).abs() < 1e-12);
        // Three distinct values → three bins with two rows each.
        assert_eq!(hist.bins.len(), 3);
        assert!(hist.bins.iter().all(|b| (b.h - 2.0).abs() < 1e-12));
    }

    #[test]
    fn rows_in_finished_leaves_are_skipped() {
        let d = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 0.0, 1.0])], None);
        let binned = BinnedDataset::bin(&d, &BinningConfig { num_bins: 2, max_samples: 1 << 16 });
        let grads = unit_grads(4);
        let node_of_row = vec![0, -1, 0, -1];
        let totals = node_totals(&grads, &node_of_row, 1);
        let hist = build_layer_histograms(&binned, &grads, &node_of_row, &totals);
        let total = hist.hist(0, 0).total();
        assert!((total.g - 4.0).abs() < 1e-12); // rows 0 and 2: g = 1 + 3
        assert!((total.h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_zero_bin_correction_recovers_zeros() {
        // 5 rows; only rows 1, 3 non-zero. Zero rows' mass must appear in
        // the zero bin without being iterated.
        let d = Dataset::new(
            5,
            vec![FeatureColumn::Sparse { rows: vec![1, 3], values: vec![10.0, 20.0] }],
            None,
        );
        let binned = BinnedDataset::bin(&d, &BinningConfig { num_bins: 4, max_samples: 1 << 16 });
        let grads = unit_grads(5); // g: 1,2,3,4,5  h: 1 each
        let node_of_row = vec![0i32; 5];
        let totals = node_totals(&grads, &node_of_row, 1);
        let hists = build_layer_histograms(&binned, &grads, &node_of_row, &totals);
        let col = binned.column(0);
        let hist = hists.hist(0, 0);
        // Zero bin holds rows 0, 2, 4: g = 1+3+5 = 9, h = 3.
        let zb = &hist.bins[col.zero_bin as usize];
        assert!((zb.g - 9.0).abs() < 1e-12, "{zb:?}");
        assert!((zb.h - 3.0).abs() < 1e-12);
        // Grand total matches all five rows.
        let total = hist.total();
        assert!((total.g - 15.0).abs() < 1e-12);
    }

    #[test]
    fn multi_node_layers_split_mass() {
        let d = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 0.0, 1.0])], None);
        let binned = BinnedDataset::bin(&d, &BinningConfig { num_bins: 2, max_samples: 1 << 16 });
        let grads = unit_grads(4);
        let node_of_row = vec![0, 0, 1, 1];
        let totals = node_totals(&grads, &node_of_row, 2);
        let hists = build_layer_histograms(&binned, &grads, &node_of_row, &totals);
        assert!((hists.hist(0, 0).total().g - 3.0).abs() < 1e-12);
        assert!((hists.hist(0, 1).total().g - 7.0).abs() < 1e-12);
    }

    #[test]
    fn subtraction_trick_matches_direct_build() {
        let d = Dataset::new(4, vec![FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 3.0])], None);
        let binned = BinnedDataset::bin(&d, &BinningConfig { num_bins: 4, max_samples: 1 << 16 });
        let grads = unit_grads(4);
        // Parent = all rows on slot 0.
        let parent_assign = vec![0i32; 4];
        let pt = node_totals(&grads, &parent_assign, 1);
        let parent = build_layer_histograms(&binned, &grads, &parent_assign, &pt);
        // Children: rows 0,1 left (slot 0), rows 2,3 right (slot 1).
        let child_assign = vec![0, 0, 1, 1];
        let ct = node_totals(&grads, &child_assign, 2);
        let children = build_layer_histograms(&binned, &grads, &child_assign, &ct);
        // The sibling's histogram is the parent's minus this child's.
        let (whole, child) = (parent.hist(0, 0), children.hist(0, 0));
        let sibling = whole.bins.iter().zip(&child.bins).map(|(&p, &c)| p - c).collect();
        assert_eq!(&Histogram { bins: sibling }, children.hist(0, 1));
    }

    #[test]
    fn prefix_sums_are_monotone_partials() {
        let hist = Histogram {
            bins: vec![
                GradPair { g: 1.0, h: 0.5 },
                GradPair { g: -2.0, h: 0.25 },
                GradPair { g: 4.0, h: 1.0 },
            ],
        };
        let p = hist.prefix_sums();
        assert!((p[0].g - 1.0).abs() < 1e-12);
        assert!((p[1].g + 1.0).abs() < 1e-12);
        assert!((p[2].g - 3.0).abs() < 1e-12);
        assert!((p[2].h - 1.75).abs() < 1e-12);
    }
}
