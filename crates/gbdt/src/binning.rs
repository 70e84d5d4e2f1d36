//! Quantile binning: turning raw feature columns into candidate splits.
//!
//! At initialization GBDT proposes `s` candidate splits per feature from the
//! percentiles of the feature column (paper §2.1, Fig. 2). Each column is
//! discretized into bin codes once; histogram construction then only touches
//! bin codes, never raw values.
//!
//! Zeros participate in the quantiles (a sparse column's implicit zeros are
//! accounted for analytically), and each column records which bin contains
//! the value `0.0` — the **zero bin** — so that sparse histogram
//! construction can reconstruct the zero bin's mass as
//! `node_total − Σ non-zero bins` without ever iterating zeros.

use crate::data::{Dataset, FeatureColumn};

/// Binning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinningConfig {
    /// Number of histogram bins per feature (the paper's `s`, default 20).
    pub num_bins: usize,
    /// Maximum column samples used to estimate quantiles.
    pub max_samples: usize,
}

impl Default for BinningConfig {
    fn default() -> Self {
        BinningConfig { num_bins: 20, max_samples: 1 << 16 }
    }
}

/// Bin codes for the stored entries of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum BinnedEntries {
    /// A bin code per row.
    Dense(Vec<u16>),
    /// Bin codes for the non-zero rows only (parallel to `rows`).
    Sparse {
        /// Row indices, strictly increasing.
        rows: Vec<u32>,
        /// Bin code per stored row.
        bins: Vec<u16>,
    },
}

/// A feature column after quantile discretization.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedColumn {
    /// Increasing cut points; value `v` falls in bin
    /// `#{c ∈ cuts : c < v}`. There are `cuts.len() + 1` bins.
    pub cuts: Vec<f32>,
    /// The bin containing the value `0.0`.
    pub zero_bin: u16,
    /// Discretized entries.
    pub entries: BinnedEntries,
}

impl BinnedColumn {
    /// Number of bins (`cuts.len() + 1`).
    pub fn num_bins(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Bin code of a row (zero bin for rows absent from a sparse column).
    pub fn bin_of_row(&self, row: usize) -> u16 {
        match &self.entries {
            BinnedEntries::Dense(bins) => bins[row],
            BinnedEntries::Sparse { rows, bins } => match rows.binary_search(&(row as u32)) {
                Ok(i) => bins[i],
                Err(_) => self.zero_bin,
            },
        }
    }

    /// The split threshold of bin `b`: going left means `value ≤ cuts[b]`.
    /// Only bins `b < cuts.len()` are valid split points.
    pub fn threshold(&self, b: u16) -> f32 {
        self.cuts[b as usize]
    }

    /// Iterates `(row, bin)` over the stored (non-zero) entries.
    pub fn iter_nonzero(&self) -> Box<dyn Iterator<Item = (u32, u16)> + '_> {
        match &self.entries {
            BinnedEntries::Dense(bins) => {
                Box::new(bins.iter().enumerate().map(|(i, &b)| (i as u32, b)))
            }
            BinnedEntries::Sparse { rows, bins } => {
                Box::new(rows.iter().copied().zip(bins.iter().copied()))
            }
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        match &self.entries {
            BinnedEntries::Dense(bins) => bins.len(),
            BinnedEntries::Sparse { rows, .. } => rows.len(),
        }
    }
}

/// A dataset after binning: bin codes plus the per-column cut tables.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    num_rows: usize,
    columns: Vec<BinnedColumn>,
}

impl BinnedDataset {
    /// Discretizes every column of `data`.
    pub fn bin(data: &Dataset, cfg: &BinningConfig) -> BinnedDataset {
        let columns: Vec<BinnedColumn> =
            data.columns().iter().map(|col| bin_column(col, data.num_rows(), cfg)).collect();
        BinnedDataset { num_rows: data.num_rows(), columns }
    }

    /// Number of instances.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// The binned columns.
    pub fn columns(&self) -> &[BinnedColumn] {
        &self.columns
    }

    /// One binned column.
    pub fn column(&self, f: usize) -> &BinnedColumn {
        &self.columns[f]
    }
}

/// The bin of value `v` under increasing cut points `cuts`:
/// `#{c ∈ cuts : c < v}`. The value `0.0` falls in the column's zero bin.
pub fn bin_of_value(cuts: &[f32], v: f32) -> u16 {
    cuts.partition_point(|&c| c < v) as u16
}

/// Computes quantile cuts and discretizes one column.
fn bin_column(col: &FeatureColumn, num_rows: usize, cfg: &BinningConfig) -> BinnedColumn {
    let cuts = quantile_cuts(col, num_rows, cfg);
    let bin = |values: &[f32]| values.iter().map(|&v| bin_of_value(&cuts, v)).collect();
    let entries = match col {
        FeatureColumn::Dense(values) => BinnedEntries::Dense(bin(values)),
        FeatureColumn::Sparse { rows, values } => {
            BinnedEntries::Sparse { rows: rows.clone(), bins: bin(values) }
        }
    };
    BinnedColumn { zero_bin: bin_of_value(&cuts, 0.0), cuts, entries }
}

/// Estimates up to `num_bins - 1` quantile cut points for a column of
/// `num_rows` rows, counting a sparse column's implicit zeros: the cuts
/// [`BinnedDataset::bin`] gives the column, for a caller that bins the
/// raw values itself ([`bin_of_value`]).
pub fn quantile_cuts(col: &FeatureColumn, num_rows: usize, cfg: &BinningConfig) -> Vec<f32> {
    if num_rows == 0 || cfg.num_bins < 2 {
        return Vec::new();
    }
    // Sample values: either the full (conceptual) column or a uniform
    // stride over rows.
    let mut samples: Vec<f32> = if num_rows <= cfg.max_samples {
        match col {
            FeatureColumn::Dense(values) => values.clone(),
            FeatureColumn::Sparse { rows, values } => {
                let mut v = vec![0.0f32; num_rows];
                for (&r, &x) in rows.iter().zip(values) {
                    v[r as usize] = x;
                }
                v
            }
        }
    } else {
        let stride = num_rows.div_ceil(cfg.max_samples).max(1);
        (0..num_rows).step_by(stride).map(|r| col.value(r)).collect()
    };
    samples.retain(|v| v.is_finite());
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = samples.len();
    // Low-cardinality columns: use the distinct values directly so that
    // every value gets its own bin (quantile ranks would merge them).
    let mut distinct: Vec<f32> = Vec::new();
    for &v in &samples {
        if distinct.last() != Some(&v) {
            distinct.push(v);
            if distinct.len() > cfg.num_bins {
                break;
            }
        }
    }
    if distinct.len() <= cfg.num_bins {
        distinct.pop(); // the max needs no cut
        return distinct;
    }
    let mut cuts = Vec::with_capacity(cfg.num_bins - 1);
    for k in 1..cfg.num_bins {
        let rank = (k * n / cfg.num_bins).min(n - 1);
        let c = samples[rank];
        if cuts.last() != Some(&c) {
            cuts.push(c);
        }
    }
    // A cut equal to the maximum sends everything left — drop it.
    if cuts.last() == Some(&samples[n - 1]) {
        cuts.pop();
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn dense_col(values: Vec<f32>) -> Dataset {
        let n = values.len();
        Dataset::new(n, vec![FeatureColumn::Dense(values)], None)
    }

    #[test]
    fn uniform_column_gets_even_cuts() {
        let values: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let d = dense_col(values);
        let b = BinnedDataset::bin(&d, &BinningConfig { num_bins: 10, max_samples: 1 << 16 });
        let col = b.column(0);
        assert_eq!(col.num_bins(), 10);
        // Bins should be roughly balanced.
        let mut counts = vec![0usize; col.num_bins()];
        for (_, bin) in col.iter_nonzero() {
            counts[bin as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c >= 5), "{counts:?}");
    }

    #[test]
    fn constant_column_yields_single_bin() {
        let d = dense_col(vec![7.0; 50]);
        let b = BinnedDataset::bin(&d, &BinningConfig::default());
        assert_eq!(b.column(0).num_bins(), 1);
    }

    #[test]
    fn bin_of_value_consistent_with_thresholds() {
        let values: Vec<f32> = (0..100).map(|i| (i % 10) as f32).collect();
        let d = dense_col(values);
        let b = BinnedDataset::bin(&d, &BinningConfig { num_bins: 5, max_samples: 1 << 16 });
        let col = b.column(0);
        for v in [0.0f32, 3.0, 9.0, -1.0, 100.0] {
            let bin = bin_of_value(&col.cuts, v);
            // All cuts below the bin are < v; the bin's own cut (if any) is >= v.
            for (i, &c) in col.cuts.iter().enumerate() {
                if (i as u16) < bin {
                    assert!(c < v);
                } else {
                    assert!(c >= v);
                }
            }
        }
    }

    #[test]
    fn sparse_zero_rows_fall_in_zero_bin() {
        // 10 rows, only two non-zero.
        let d = Dataset::new(
            10,
            vec![FeatureColumn::Sparse { rows: vec![2, 7], values: vec![5.0, -3.0] }],
            None,
        );
        let b = BinnedDataset::bin(&d, &BinningConfig { num_bins: 4, max_samples: 1 << 16 });
        let col = b.column(0);
        assert_eq!(col.bin_of_row(0), col.zero_bin);
        assert_eq!(col.bin_of_row(2), bin_of_value(&col.cuts, 5.0));
        assert_eq!(col.bin_of_row(7), bin_of_value(&col.cuts, -3.0));
        // Negative values bin strictly below the zero bin.
        assert!(bin_of_value(&col.cuts, -3.0) <= col.zero_bin);
        assert!(bin_of_value(&col.cuts, 5.0) >= col.zero_bin);
    }

    #[test]
    fn quantiles_account_for_implicit_zeros() {
        // 90% zeros: most cuts collapse onto 0, so few bins survive and the
        // zero bin exists.
        let rows: Vec<u32> = (0..10).collect();
        let values: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let d = Dataset::new(100, vec![FeatureColumn::Sparse { rows, values }], None);
        let b = BinnedDataset::bin(&d, &BinningConfig { num_bins: 10, max_samples: 1 << 16 });
        let col = b.column(0);
        assert_eq!(col.zero_bin, 0, "zeros dominate the low quantiles");
        assert!(col.num_bins() <= 3, "dedup collapses repeated zero cuts: {:?}", col.cuts);
    }

    #[test]
    fn sampled_binning_still_reasonable() {
        let values: Vec<f32> = (0..10_000).map(|i| (i % 100) as f32).collect();
        let d = dense_col(values);
        let b = BinnedDataset::bin(&d, &BinningConfig { num_bins: 10, max_samples: 1000 });
        assert!(b.column(0).num_bins() >= 8);
    }

    #[test]
    fn max_cut_dropped() {
        let d = dense_col(vec![1.0, 1.0, 1.0, 2.0]);
        let b = BinnedDataset::bin(&d, &BinningConfig { num_bins: 4, max_samples: 1 << 16 });
        // A cut at 2.0 (the max) would be useless; only the cut at 1.0 stays.
        assert_eq!(b.column(0).cuts, vec![1.0]);
    }
}
