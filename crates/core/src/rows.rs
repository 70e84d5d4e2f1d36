//! Row-major binned views and per-node row bookkeeping.
//!
//! Histogram construction for a *single* tree node wants to iterate "every
//! non-zero feature of every row in the node", which a column-major store
//! cannot do without scanning all columns. [`RowMajorBins`] is the CSR
//! transpose of a [`BinnedDataset`]: per row, the `(feature, bin)` pairs of
//! its stored entries, plus each column's cut points. It is built once per
//! party, shared by every tree, and is the party's only binned form: its
//! walks, its placements ([`RowMajorBins::placement`]) and its thresholds
//! ([`RowMajorBins::cuts`]) all read it.
//!
//! An entry is two `u16`s, four bytes with no padding: both parties'
//! histogram walks (the guest's [`RowMajorBins::node_histograms`], the
//! host's `EncHistBuilder::add_rows`) stream these entries, so their width
//! is the bytes each walk reads per row-feature. A bin index already fits
//! in 16 bits ([`ColMeta::num_bins`]); a feature index does because no
//! party may hold more than [`MAX_FEATURES`] columns, the same cap the wire
//! puts on a host's `FeatureMeta`, and `check_width` refuses a wider
//! party before anything is built.
//!
//! [`NodeRows`] tracks which rows sit on which tree node. Parent row lists
//! are retained after a split so that the optimistic protocol can *re-split*
//! a dirty node from the same list (§4.2's roll-back-and-re-do).

use vf2_gbdt::binning::{BinnedDataset, BinningConfig};
use vf2_gbdt::data::Dataset;
use vf2_gbdt::histogram::{GradPair, Histogram};
use vf2_gbdt::tree::{left_child, right_child, NodeId};

use crate::error::{PartyId, TrainError};
use crate::wire::limits::MAX_FEATURES;

/// One stored entry of a row: `(feature, bin)`.
type Entry = (u16, u16);

// Both histogram walks read one entry per row-feature: keep it at four
// bytes.
const _: () = assert!(std::mem::size_of::<Entry>() == 4);

/// Refuses a party holding more than [`MAX_FEATURES`] columns, whose
/// features a row-major entry could not index: a typed error before any
/// view is built.
pub(crate) fn check_width(party: PartyId, features: usize) -> Result<(), TrainError> {
    if features > MAX_FEATURES {
        return Err(TrainError::InvalidInput(format!(
            "{party} holds {features} features, more than the {MAX_FEATURES} a party may hold"
        )));
    }
    Ok(())
}

/// Per-column metadata needed when reconstructing zero bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColMeta {
    /// Number of bins of the column.
    pub num_bins: u16,
    /// The bin containing the value 0.0.
    pub zero_bin: u16,
    /// Whether the column stores every row (no zero-bin correction needed).
    pub dense: bool,
}

/// Row-major (CSR) view of a binned dataset.
#[derive(Debug, Clone)]
pub struct RowMajorBins {
    /// `entries[offsets[r]..offsets[r+1]]` are row `r`'s stored entries.
    offsets: Vec<u32>,
    /// `(feature, bin)` pairs.
    entries: Vec<Entry>,
    /// Per-column metadata.
    pub col_meta: Vec<ColMeta>,
    /// Per-column cut points: bin `b < cuts[f].len()` splits at
    /// `value ≤ cuts[f][b]`.
    cuts: Vec<Vec<f32>>,
    num_rows: usize,
    /// Whether every column stores every row: row `r`'s entry for feature
    /// `f` is then `entries[r × features + f]`.
    dense: bool,
}

impl RowMajorBins {
    /// Bins `data` and keeps only the row-major form: the column-major
    /// codes are dropped once transposed.
    ///
    /// # Panics
    /// As [`RowMajorBins::from_binned`].
    pub fn bin(data: &Dataset, cfg: &BinningConfig) -> RowMajorBins {
        RowMajorBins::from_binned(&BinnedDataset::bin(data, cfg))
    }

    /// Transposes a binned dataset into row-major form. Each row's entries
    /// are in feature order.
    ///
    /// # Panics
    /// If the dataset has more than [`MAX_FEATURES`] columns, whose indices
    /// an entry cannot hold; the trainer refuses such a party first.
    pub fn from_binned(binned: &BinnedDataset) -> RowMajorBins {
        let features = binned.num_features();
        assert!(features <= MAX_FEATURES, "{features} columns exceed {MAX_FEATURES}");
        let n = binned.num_rows();
        let mut counts = vec![0u32; n + 1];
        for col in binned.columns() {
            for (row, _) in col.iter_nonzero() {
                counts[row as usize + 1] += 1;
            }
        }
        let mut offsets = counts;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![(0, 0); offsets[n] as usize];
        let mut col_meta = Vec::with_capacity(features);
        let cuts = binned.columns().iter().map(|col| col.cuts.clone()).collect();
        // `MAX_FEATURES` is 2^16: every index below it is a `u16`.
        for (f, col) in (0..=u16::MAX).zip(binned.columns()) {
            col_meta.push(ColMeta {
                num_bins: col.num_bins() as u16,
                zero_bin: col.zero_bin,
                dense: col.nnz() == n,
            });
            for (row, bin) in col.iter_nonzero() {
                let at = cursor[row as usize];
                entries[at as usize] = (f, bin);
                cursor[row as usize] += 1;
            }
        }
        let dense = col_meta.iter().all(|m| m.dense);
        RowMajorBins { offsets, entries, col_meta, cuts, num_rows: n, dense }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.col_meta.len()
    }

    /// The stored `(feature, bin)` entries of one row.
    pub fn row(&self, r: usize) -> &[(u16, u16)] {
        &self.entries[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Feature `feature`'s cut points, increasing: bin `b` of a split sends
    /// left every value `≤ cuts[b]`, and the last bin is no split point.
    pub fn cuts(&self, feature: usize) -> &[f32] {
        &self.cuts[feature]
    }

    /// The bin of `row` in column `feature`: its stored entry, or the
    /// column's zero bin for a row that stores none. A dense table indexes
    /// the entry directly; otherwise the row's feature-sorted entries are
    /// binary-searched.
    pub fn bin_of(&self, row: usize, feature: usize) -> u16 {
        if self.dense {
            return self.entries[row * self.col_meta.len() + feature].1;
        }
        let entries = self.row(row);
        match entries.binary_search_by_key(&feature, |&(f, _)| usize::from(f)) {
            Ok(i) => entries[i].1,
            Err(_) => self.col_meta[feature].zero_bin,
        }
    }

    /// Splits `rows` on bin `bin` of column `feature`: `true` (left) for
    /// each row whose bin is at most `bin`, in list order.
    pub fn placement(&self, rows: &[u32], feature: usize, bin: u16) -> Vec<bool> {
        rows.iter().map(|&r| self.bin_of(r as usize, feature) <= bin).collect()
    }

    /// Builds one node's plaintext histograms over all features from its
    /// row list, including sparse zero-bin correction.
    pub fn node_histograms(&self, rows: &[u32], grads: &[GradPair]) -> Vec<Histogram> {
        let mut hists: Vec<Histogram> =
            self.col_meta.iter().map(|m| Histogram::zeros(m.num_bins as usize)).collect();
        let mut total = GradPair::ZERO;
        for &r in rows {
            let gp = grads[r as usize];
            total += gp;
            for &(f, bin) in self.row(r as usize) {
                hists[f as usize].bins[bin as usize] += gp;
            }
        }
        for (hist, meta) in hists.iter_mut().zip(&self.col_meta) {
            if !meta.dense {
                let stored = hist.total();
                hist.bins[meta.zero_bin as usize] += total - stored;
            }
        }
        hists
    }

    /// Sums the gradient pairs of a row list.
    pub fn rows_total(rows: &[u32], grads: &[GradPair]) -> GradPair {
        rows.iter().fold(GradPair::ZERO, |acc, &r| acc + grads[r as usize])
    }
}

/// Per-node row lists for one tree, heap-indexed.
///
/// Lists are *retained* after splitting so a dirty node can be re-split.
#[derive(Debug, Clone, Default)]
pub struct NodeRows {
    lists: Vec<Option<Vec<u32>>>,
}

impl NodeRows {
    /// Starts a tree: the root owns every row.
    pub fn new_tree(num_rows: usize, max_layers: usize) -> NodeRows {
        let n = (1 << max_layers) - 1;
        let mut lists = vec![None; n];
        lists[0] = Some((0..num_rows as u32).collect());
        NodeRows { lists }
    }

    /// The rows of a node (panics if the node never materialized).
    pub fn rows(&self, id: NodeId) -> &[u32] {
        self.lists[id].as_deref().unwrap_or_else(|| panic!("node {id} has no rows"))
    }

    /// Whether the node has a row list.
    pub fn has(&self, id: NodeId) -> bool {
        self.lists.get(id).is_some_and(Option::is_some)
    }

    /// Applies a placement bitmap (`true` = left) to `id`, creating (or
    /// replacing — the re-split path) both children's lists. The parent
    /// list is retained.
    ///
    /// # Panics
    /// If the bitmap length differs from the node's row count.
    pub fn apply_placement(&mut self, id: NodeId, placement: &[bool]) {
        let rows = self.lists[id].as_ref().unwrap_or_else(|| panic!("node {id} has no rows"));
        assert_eq!(rows.len(), placement.len(), "placement length mismatch on node {id}");
        let left_count = placement.iter().filter(|&&b| b).count();
        let mut left = Vec::with_capacity(left_count);
        let mut right = Vec::with_capacity(rows.len() - left_count);
        for (&r, &go_left) in rows.iter().zip(placement) {
            if go_left {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        self.lists[left_child(id)] = Some(left);
        self.lists[right_child(id)] = Some(right);
    }

    /// Drops the lists of every strict descendant of `id` (dirty-node
    /// rollback).
    pub fn clear_descendants(&mut self, id: NodeId) {
        let mut stack = vec![left_child(id), right_child(id)];
        while let Some(x) = stack.pop() {
            if x < self.lists.len() && self.lists[x].is_some() {
                self.lists[x] = None;
                stack.push(left_child(x));
                stack.push(right_child(x));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf2_gbdt::binning::{BinnedDataset, BinningConfig};
    use vf2_gbdt::data::{Dataset, FeatureColumn};

    fn binned() -> BinnedDataset {
        let d = Dataset::new(
            6,
            vec![
                FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
                FeatureColumn::Sparse { rows: vec![1, 4], values: vec![5.0, -5.0] },
            ],
            None,
        );
        BinnedDataset::bin(&d, &BinningConfig { num_bins: 4, max_samples: 1 << 16 })
    }

    fn grads(n: usize) -> Vec<GradPair> {
        (0..n).map(|i| GradPair { g: i as f64, h: 1.0 }).collect()
    }

    #[test]
    fn csr_rows_match_columns() {
        let b = binned();
        let csr = RowMajorBins::from_binned(&b);
        assert_eq!(csr.num_rows(), 6);
        assert_eq!(csr.num_features(), 2);
        // Row 1 has entries in both columns.
        let row1: Vec<u16> = csr.row(1).iter().map(|&(f, _)| f).collect();
        assert_eq!(row1, vec![0, 1]);
        // Row 0 only in the dense column.
        assert_eq!(csr.row(0).len(), 1);
    }

    /// The widest table a party may hold: its last column is feature
    /// 65 535, not a wrapped 0, and a wider one is refused.
    #[test]
    fn the_widest_table_indexes_its_last_column() {
        let column = FeatureColumn::Dense(vec![0.0, 1.0]);
        let data = Dataset::new(2, vec![column; MAX_FEATURES], None);
        let b = BinnedDataset::bin(&data, &BinningConfig { num_bins: 4, max_samples: 1 << 16 });
        let csr = RowMajorBins::from_binned(&b);
        assert_eq!(csr.num_features(), MAX_FEATURES);
        for r in 0..2 {
            let row = csr.row(r);
            assert_eq!(row.len(), MAX_FEATURES);
            assert_eq!(row.last().map(|&(f, _)| f), Some(65_535));
        }
        assert!(check_width(PartyId::Guest, MAX_FEATURES).is_ok());
        let err = check_width(PartyId::Host(0), MAX_FEATURES + 1).unwrap_err();
        assert!(matches!(err, TrainError::InvalidInput(_)), "{err}");
    }

    /// A placement reads each row's bin from the CSR, and agrees with the
    /// column-major form on a dense party (the direct index), a sparse one
    /// and a mixed one (the binary search), at every feature, the first and
    /// the last included; a row that stores no entry reads its column's
    /// zero bin.
    #[test]
    fn placement_lookup_agrees_with_the_column_major_form() {
        let dense = |k: usize| FeatureColumn::Dense((0..8).map(|r| ((r * k) % 5) as f32).collect());
        let sparse = |rows: &[u32]| FeatureColumn::Sparse {
            rows: rows.to_vec(),
            values: rows.iter().map(|&r| r as f32 - 3.5).collect(),
        };
        let parties = [
            vec![dense(1), dense(3), dense(7)],
            vec![sparse(&[1, 4]), sparse(&[0, 2, 7]), sparse(&[5, 6])],
            vec![sparse(&[3]), dense(2), sparse(&[0, 6, 7])],
        ];
        let cfg = BinningConfig { num_bins: 4, max_samples: 1 << 16 };
        for (party, columns) in parties.into_iter().enumerate() {
            let b = BinnedDataset::bin(&Dataset::new(8, columns, None), &cfg);
            let csr = RowMajorBins::from_binned(&b);
            assert_eq!(csr.dense, party == 0, "party {party}");
            let rows: Vec<u32> = vec![7, 0, 3, 5, 1];
            for (f, col) in b.columns().iter().enumerate() {
                for r in 0..8 {
                    assert_eq!(csr.bin_of(r, f), col.bin_of_row(r), "party {party} ({r}, {f})");
                }
                for bin in 0..col.num_bins() as u16 {
                    let want: Vec<bool> =
                        rows.iter().map(|&r| col.bin_of_row(r as usize) <= bin).collect();
                    assert_eq!(csr.placement(&rows, f, bin), want, "party {party} ({f}, {bin})");
                }
            }
        }
        // Row 3 of the sparse party stores nothing: every column reads its
        // zero bin, which is not bin 0 for a column with negative values.
        let b = BinnedDataset::bin(
            &Dataset::new(8, vec![sparse(&[1, 4]), sparse(&[0, 2, 7]), sparse(&[5, 6])], None),
            &cfg,
        );
        let csr = RowMajorBins::from_binned(&b);
        assert!(csr.row(3).is_empty());
        assert!(csr.col_meta.iter().any(|m| m.zero_bin > 0));
        for (f, meta) in csr.col_meta.iter().enumerate() {
            assert_eq!(csr.bin_of(3, f), meta.zero_bin, "feature {f}");
        }
    }

    #[test]
    fn node_histograms_match_full_layer_build() {
        let b = binned();
        let csr = RowMajorBins::from_binned(&b);
        let g = grads(6);
        let rows: Vec<u32> = (0..6).collect();
        let hists = csr.node_histograms(&rows, &g);
        let node_of_row = vec![0i32; 6];
        let totals = vf2_gbdt::histogram::node_totals(&g, &node_of_row, 1);
        let expected = vf2_gbdt::histogram::build_layer_histograms(&b, &g, &node_of_row, &totals);
        for (f, h) in hists.iter().enumerate() {
            assert_eq!(h, expected.hist(f, 0), "feature {f}");
        }
    }

    #[test]
    fn node_histograms_on_subset() {
        let b = binned();
        let csr = RowMajorBins::from_binned(&b);
        let g = grads(6);
        let hists = csr.node_histograms(&[1, 4], &g);
        let total = hists[0].total();
        assert!((total.g - 5.0).abs() < 1e-12); // rows 1 and 4
        assert!((total.h - 2.0).abs() < 1e-12);
        // Sparse column total also covers both rows (one +, one −, plus the
        // zero-bin correction is zero here since both rows are stored).
        assert!((hists[1].total().h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn placement_partitions_in_order() {
        let mut nr = NodeRows::new_tree(5, 3);
        nr.apply_placement(0, &[true, false, true, false, true]);
        assert_eq!(nr.rows(1), &[0, 2, 4]);
        assert_eq!(nr.rows(2), &[1, 3]);
        // Parent retained for potential re-splitting.
        assert_eq!(nr.rows(0).len(), 5);
    }

    #[test]
    fn resplit_replaces_children() {
        let mut nr = NodeRows::new_tree(4, 3);
        nr.apply_placement(0, &[true, true, false, false]);
        assert_eq!(nr.rows(1), &[0, 1]);
        nr.apply_placement(0, &[false, true, false, true]);
        assert_eq!(nr.rows(1), &[1, 3]);
        assert_eq!(nr.rows(2), &[0, 2]);
    }

    #[test]
    fn clear_descendants_removes_subtree_only() {
        let mut nr = NodeRows::new_tree(4, 4);
        nr.apply_placement(0, &[true, true, false, false]);
        nr.apply_placement(1, &[true, false]);
        nr.apply_placement(2, &[true, false]);
        nr.clear_descendants(1);
        assert!(nr.has(1));
        assert!(!nr.has(3) && !nr.has(4));
        assert!(nr.has(5) && nr.has(6)); // node 2's children untouched
    }

    #[test]
    fn rows_total_sums() {
        let g = grads(5);
        let t = RowMajorBins::rows_total(&[0, 2, 4], &g);
        assert!((t.g - 6.0).abs() < 1e-12);
        assert!((t.h - 3.0).abs() < 1e-12);
    }
}
