//! Row-major binned views and per-node row bookkeeping.
//!
//! A node's histogram wants "every stored feature of every row in the
//! node", which a column-major store cannot give without scanning all
//! columns. [`RowMajorBins`] keeps a party's binned table by row, in two
//! parts, either of which may be empty: the **bins block**, one `u16` bin
//! per row for every column that stores every row ([`ColMeta::dense`]),
//! row-major in feature order; and the **sparse tail**, each row's
//! `(feature, bin)` entries in the other columns, CSR. Every reader (both
//! parties' histogram walks, [`RowMajorBins::placement`]) runs one body
//! over a row's block cells, then its tail entries. The table is built
//! once per party straight from the raw columns, keeps each column's cut
//! points, and is the party's only binned form. A bin fits a `u16` because
//! `TrainConfig::validate` refuses more bins; a feature does because
//! `check_width` refuses a party wider than [`MAX_FEATURES`] columns, the
//! cap the wire puts on a host's `FeatureMeta`.
//!
//! [`NodeRows`] is one row permutation per tree, each node a span of it
//! that a split partitions in place, and that a re-split (§4.2's
//! roll-back-and-re-do) reads back.

use std::borrow::Cow;

use vf2_gbdt::binning::{bin_of_value, quantile_cuts, BinnedDataset, BinnedEntries, BinningConfig};
use vf2_gbdt::data::{Dataset, FeatureColumn};
use vf2_gbdt::histogram::{GradPair, Histogram};
use vf2_gbdt::tree::{left_child, right_child, NodeId};

use crate::error::{PartyId, TrainError};
use crate::wire::limits::MAX_FEATURES;

/// One stored entry of a row: `(feature, bin)`.
type Entry = (u16, u16);

// A tail entry is four bytes and a block cell two: both histogram walks
// read one per row-feature.
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
    /// Whether the column stores every row (no zero-bin correction needed):
    /// its bins are in the block.
    pub dense: bool,
}

/// A party's binned table by row: the bins block and the sparse tail.
#[derive(Debug, Clone)]
pub struct RowMajorBins {
    /// `block[r × width + k]` is row `r`'s bin in block column `k`.
    block: Vec<u16>,
    /// The feature of each block column, increasing.
    pub(crate) block_features: Vec<u16>,
    /// `tail[offsets[r]..offsets[r + 1]]` are row `r`'s entries, in feature
    /// order; no offsets when the tail is empty.
    offsets: Vec<u32>,
    tail: Vec<Entry>,
    /// Per-column metadata.
    pub col_meta: Vec<ColMeta>,
    /// Per-column cut points: bin `b < cuts[f].len()` splits at
    /// `value ≤ cuts[f][b]`.
    cuts: Vec<Vec<f32>>,
    /// `cells[k][b]` is `(block_features[k], b)`, lent by
    /// [`RowMajorBins::row`] for a block cell: fewer entries than one
    /// histogram builder has bins.
    cells: Vec<Vec<Entry>>,
    num_rows: usize,
}

impl RowMajorBins {
    /// Bins `data` straight into row-major form: each column's cut points
    /// come from [`quantile_cuts`], and each raw value is coded into the
    /// block or the tail in place. No column-major copy is made.
    ///
    /// # Panics
    /// As [`RowMajorBins::from_binned`].
    pub fn bin(data: &Dataset, cfg: &BinningConfig) -> RowMajorBins {
        use rayon::prelude::*;
        let n = data.num_rows();
        let cuts: Vec<Vec<f32>> =
            data.columns().par_iter().map(|c| quantile_cuts(c, n, cfg)).collect();
        let columns = cuts.into_iter().zip(data.columns()).map(|(cuts, col)| match col {
            FeatureColumn::Dense(values) => (cuts, &[][..], &values[..]),
            FeatureColumn::Sparse { rows, values } => (cuts, &rows[..], &values[..]),
        });
        RowMajorBins::assemble(n, columns.collect(), bin_of_value)
    }

    /// Lays a binned dataset out row-major, as [`RowMajorBins::bin`] lays
    /// out the table it was binned from.
    ///
    /// # Panics
    /// If the dataset has more than [`MAX_FEATURES`] columns, or a column
    /// more than `u16::MAX` bins; the trainer refuses such a party or
    /// config first.
    pub fn from_binned(binned: &BinnedDataset) -> RowMajorBins {
        let columns = binned.columns().iter().map(|col| match &col.entries {
            BinnedEntries::Dense(bins) => (col.cuts.clone(), &[][..], &bins[..]),
            BinnedEntries::Sparse { rows, bins } => (col.cuts.clone(), &rows[..], &bins[..]),
        });
        RowMajorBins::assemble(binned.num_rows(), columns.collect(), |_, bin| bin)
    }

    /// The layout behind both constructors, over each column's cut points,
    /// the rows it stores (ignored when it stores every row) and their
    /// values: `code` turns a value into its bin under the column's cuts.
    fn assemble<T: Copy>(
        n: usize,
        columns: Vec<(Vec<f32>, &[u32], &[T])>,
        code: impl Fn(&[f32], T) -> u16,
    ) -> RowMajorBins {
        assert!(columns.len() <= MAX_FEATURES, "{} columns exceed {MAX_FEATURES}", columns.len());
        let col_meta: Vec<ColMeta> = columns
            .iter()
            .map(|(cuts, _, values)| {
                assert!(cuts.len() < usize::from(u16::MAX), "{} cuts exceed a u16", cuts.len());
                let (num_bins, dense) = (cuts.len() as u16 + 1, values.len() == n);
                ColMeta { num_bins, zero_bin: bin_of_value(cuts, 0.0), dense }
            })
            .collect();
        // `MAX_FEATURES` is 2^16: every index below it is a `u16`.
        let (dense, sparse): (Vec<_>, Vec<_>) =
            (0..=u16::MAX).zip(&columns).partition(|(_, (_, _, values))| values.len() == n);
        let width = dense.len();
        let mut block = vec![0u16; n * width];
        for (k, (_, (cuts, _, values))) in dense.iter().enumerate() {
            for (cell, &v) in block[k..].iter_mut().step_by(width).zip(*values) {
                *cell = code(cuts, v);
            }
        }
        // Each row's count; `offsets[r]` is then row `r`'s cursor while the
        // columns place their entries, and ends as row `r + 1`'s start.
        let (mut offsets, mut tail) = (Vec::new(), Vec::new());
        if sparse.iter().any(|(_, (_, rows, _))| !rows.is_empty()) {
            offsets = vec![0u32; n + 1];
            for &r in sparse.iter().flat_map(|(_, (_, rows, _))| rows.iter()) {
                offsets[r as usize + 1] += 1;
            }
            for r in 1..=n {
                offsets[r] += offsets[r - 1];
            }
            tail = vec![(0, 0); offsets[n] as usize];
            for (f, (cuts, rows, values)) in &sparse {
                for (&r, &v) in rows.iter().zip(*values) {
                    tail[offsets[r as usize] as usize] = (*f, code(cuts, v));
                    offsets[r as usize] += 1;
                }
            }
            offsets.rotate_right(1);
            offsets[0] = 0;
        }
        let block_features: Vec<u16> = dense.iter().map(|&(f, _)| f).collect();
        let bins = |f: u16| col_meta[usize::from(f)].num_bins;
        let cells =
            block_features.iter().map(|&f| (0..bins(f)).map(|b| (f, b)).collect()).collect();
        let cuts = columns.into_iter().map(|(cuts, ..)| cuts).collect();
        RowMajorBins { block, block_features, offsets, tail, col_meta, cuts, cells, num_rows: n }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.col_meta.len()
    }

    /// Row `r`'s block cells (one per block column) and tail entries.
    pub(crate) fn parts(&self, r: usize) -> (&[u16], &[Entry]) {
        let width = self.block_features.len();
        let tail = match self.offsets.get(r..r + 2) {
            Some(&[start, end]) => &self.tail[start as usize..end as usize],
            _ => &[],
        };
        (&self.block[r * width..(r + 1) * width], tail)
    }

    /// The stored `(feature, bin)` entries of one row: its block cells,
    /// then its tail entries.
    pub fn row(&self, r: usize) -> impl Iterator<Item = &(u16, u16)> + '_ {
        let (cells, tail) = self.parts(r);
        self.cells.iter().zip(cells).map(|(column, &bin)| &column[usize::from(bin)]).chain(tail)
    }

    /// Feature `feature`'s cut points, increasing: bin `b` of a split sends
    /// left every value `≤ cuts[b]`, and the last bin is no split point.
    pub fn cuts(&self, feature: usize) -> &[f32] {
        &self.cuts[feature]
    }

    /// Column `feature`'s bin by row: the row's block cell, or its tail
    /// entry (binary-searched), or the column's zero bin for a row that
    /// stores none.
    fn column(&self, feature: usize) -> impl Fn(usize) -> u16 + '_ {
        let zero_bin = self.col_meta[feature].zero_bin;
        let cell = self.block_features.binary_search(&(feature as u16));
        move |row| {
            let (cells, tail) = self.parts(row);
            match cell {
                Ok(k) => cells[k],
                Err(_) => match tail.binary_search_by_key(&feature, |&(f, _)| usize::from(f)) {
                    Ok(i) => tail[i].1,
                    Err(_) => zero_bin,
                },
            }
        }
    }

    /// Splits `rows` on bin `bin` of column `feature`: `true` (left) for
    /// each row whose bin is at most `bin`, in list order.
    pub fn placement(&self, rows: &[u32], feature: usize, bin: u16) -> Vec<bool> {
        let bin_of = self.column(feature);
        rows.iter().map(|&r| bin_of(r as usize) <= bin).collect()
    }

    /// Builds one node's plaintext histograms over all features from its
    /// row list, including sparse zero-bin correction; every bin sums its
    /// rows in list order.
    pub fn node_histograms(&self, rows: &[u32], grads: &[GradPair]) -> Vec<Histogram> {
        // One flat arena: feature `f`'s bins are `starts[f]..starts[f + 1]`.
        let bins = self.col_meta.iter().scan(0, |end, m| {
            *end += usize::from(m.num_bins);
            Some(*end)
        });
        let starts: Vec<usize> = std::iter::once(0).chain(bins).collect();
        let block_starts: Vec<usize> =
            self.block_features.iter().map(|&f| starts[usize::from(f)]).collect();
        let mut arena = vec![GradPair::ZERO; starts[self.col_meta.len()]];
        let mut total = GradPair::ZERO;
        for &r in rows {
            let gp = grads[r as usize];
            total += gp;
            let (cells, tail) = self.parts(r as usize);
            for (&start, &bin) in block_starts.iter().zip(cells) {
                arena[start + usize::from(bin)] += gp;
            }
            for &(f, bin) in tail {
                arena[starts[usize::from(f)] + usize::from(bin)] += gp;
            }
        }
        let mut hists: Vec<Histogram> =
            starts.windows(2).map(|w| Histogram { bins: arena[w[0]..w[1]].to_vec() }).collect();
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

/// A node's run of the tree's row permutation, and whether a split has
/// partitioned it into its children's runs (each ascending).
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
    split: bool,
}

/// Per-node rows for one tree: every row once, and one span of them per
/// heap node (`None` until the node materializes, and after a rollback or
/// a re-split above it takes it). A split stable-partitions its node's
/// span in place, left rows first and each side ascending, so an unsplit
/// node's rows are ascending; the parent's span is retained for a
/// re-split.
#[derive(Debug, Clone, Default)]
pub struct NodeRows {
    order: Vec<u32>,
    spans: Vec<Option<Span>>,
    /// The right side of the span being partitioned.
    scratch: Vec<u32>,
}

impl NodeRows {
    /// Starts a tree: the root owns every row.
    pub fn new_tree(num_rows: usize, max_layers: usize) -> NodeRows {
        let mut spans = vec![None; (1 << max_layers) - 1];
        spans[0] = Some(Span { start: 0, end: num_rows as u32, split: false });
        NodeRows { order: (0..num_rows as u32).collect(), spans, scratch: Vec::new() }
    }

    /// The span of a node (panics if the node never materialized).
    fn span(&self, id: NodeId) -> Span {
        self.spans[id].unwrap_or_else(|| panic!("node {id} has no rows"))
    }

    /// The rows of a node, ascending: its span while unsplit, a sorted copy
    /// once a split has partitioned it.
    pub fn rows(&self, id: NodeId) -> Cow<'_, [u32]> {
        let span = self.span(id);
        let run = &self.order[span.start as usize..span.end as usize];
        if !span.split {
            return Cow::Borrowed(run);
        }
        let mut sorted = run.to_vec();
        sorted.sort();
        Cow::Owned(sorted)
    }

    /// The number of rows of a node.
    pub fn count(&self, id: NodeId) -> usize {
        let span = self.span(id);
        (span.end - span.start) as usize
    }

    /// Whether the node has rows.
    pub fn has(&self, id: NodeId) -> bool {
        self.spans.get(id).is_some_and(Option::is_some)
    }

    /// Applies a placement bitmap (`true` = left, one per row of the node,
    /// ascending) to `id`, creating both children's spans. A re-split
    /// first drops the old split's subtree ([`NodeRows::clear_descendants`]).
    ///
    /// # Panics
    /// If the bitmap length differs from the node's row count.
    pub fn apply_placement(&mut self, id: NodeId, placement: &[bool]) {
        assert_eq!(self.count(id), placement.len(), "placement length mismatch on node {id}");
        self.clear_descendants(id);
        let span = self.span(id);
        let run = &mut self.order[span.start as usize..span.end as usize];
        self.scratch.clear();
        let mut left = 0;
        for i in 0..run.len() {
            if placement[i] {
                run[left] = run[i];
                left += 1;
            } else {
                self.scratch.push(run[i]);
            }
        }
        run[left..].copy_from_slice(&self.scratch);
        let mid = span.start + left as u32;
        self.spans[id] = Some(Span { split: true, ..span });
        self.spans[left_child(id)] = Some(Span { end: mid, split: false, ..span });
        self.spans[right_child(id)] = Some(Span { start: mid, split: false, ..span });
    }

    /// Drops the spans of every strict descendant of `id` and sorts its
    /// span back to ascending: `id` is unsplit again (a dirty node's
    /// rollback, and the start of every re-split). A stale descendant then
    /// has no rows, so no message for it can reorder a live node's span.
    pub fn clear_descendants(&mut self, id: NodeId) {
        let mut stack = vec![left_child(id), right_child(id)];
        while let Some(x) = stack.pop() {
            if x < self.spans.len() && self.spans[x].is_some() {
                self.spans[x] = None;
                stack.push(left_child(x));
                stack.push(right_child(x));
            }
        }
        if let Some(span) = self.spans[id].filter(|span| span.split) {
            self.order[span.start as usize..span.end as usize].sort();
            self.spans[id] = Some(Span { split: false, ..span });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> BinningConfig {
        BinningConfig { num_bins: 4, max_samples: 1 << 16 }
    }

    fn data() -> Dataset {
        Dataset::new(
            6,
            vec![
                FeatureColumn::Dense(vec![0.0, 1.0, 2.0, 0.0, 1.0, 2.0]),
                FeatureColumn::Sparse { rows: vec![1, 4], values: vec![5.0, -5.0] },
            ],
            None,
        )
    }

    fn grads(n: usize) -> Vec<GradPair> {
        (0..n).map(|i| GradPair { g: i as f64, h: 1.0 }).collect()
    }

    /// 8 rows: a dense column of multiplier `k`, a sparse one storing
    /// `rows`.
    fn dense(k: usize) -> FeatureColumn {
        FeatureColumn::Dense((0..8).map(|r| ((r * k) % 5) as f32).collect())
    }

    fn sparse(rows: &[u32]) -> FeatureColumn {
        FeatureColumn::Sparse {
            rows: rows.to_vec(),
            values: rows.iter().map(|&r| r as f32 - 3.5).collect(),
        }
    }

    /// Parties of every layout: all dense, all sparse, dense columns
    /// first, last and interleaved with sparse ones, a sparse column that
    /// stores every row (a block column), a column no row stores, and no
    /// column at all.
    fn parties() -> Vec<Vec<FeatureColumn>> {
        vec![
            vec![dense(1), dense(3), dense(7)],
            vec![sparse(&[1, 4]), sparse(&[0, 2, 7]), sparse(&[5, 6])],
            vec![dense(2), dense(3), sparse(&[0, 6, 7]), sparse(&[3])],
            vec![sparse(&[0, 6, 7]), sparse(&[2]), dense(2), dense(4)],
            vec![sparse(&[3]), dense(2), sparse(&[0, 6, 7]), dense(1), sparse(&[]), dense(3)],
            vec![sparse(&[0, 1, 2, 3, 4, 5, 6, 7]), sparse(&[5]), dense(6)],
            vec![],
        ]
    }

    #[test]
    fn rows_match_columns() {
        let csr = RowMajorBins::bin(&data(), &cfg());
        assert_eq!(csr.num_rows(), 6);
        assert_eq!(csr.num_features(), 2);
        // Row 1 has entries in both columns.
        let row1: Vec<u16> = csr.row(1).map(|&(f, _)| f).collect();
        assert_eq!(row1, vec![0, 1]);
        // Row 0 only in the dense column.
        assert_eq!(csr.row(0).count(), 1);
    }

    /// The widest table a party may hold: its last column is feature
    /// 65 535, not a wrapped 0, and a wider one is refused.
    #[test]
    fn the_widest_table_indexes_its_last_column() {
        let column = FeatureColumn::Dense(vec![0.0, 1.0]);
        let data = Dataset::new(2, vec![column; MAX_FEATURES], None);
        let csr = RowMajorBins::bin(&data, &cfg());
        assert_eq!(csr.num_features(), MAX_FEATURES);
        for r in 0..2 {
            let row: Vec<_> = csr.row(r).collect();
            assert_eq!(row.len(), MAX_FEATURES);
            assert_eq!(row.last(), Some(&&(65_535, r as u16)));
        }
        assert!(check_width(PartyId::Guest, MAX_FEATURES).is_ok());
        let err = check_width(PartyId::Host(0), MAX_FEATURES + 1).unwrap_err();
        assert!(matches!(err, TrainError::InvalidInput(_)), "{err}");
    }

    /// Both constructors lay a party out the same way, dense columns in
    /// the block and the rest in the tail; a party without tail entries
    /// keeps no tail offsets.
    #[test]
    fn binning_raw_columns_equals_laying_out_the_binned_form() {
        for (party, columns) in parties().into_iter().enumerate() {
            let data = Dataset::new(8, columns, None);
            let raw = RowMajorBins::bin(&data, &cfg());
            let binned = RowMajorBins::from_binned(&BinnedDataset::bin(&data, &cfg()));
            assert_eq!(raw.col_meta, binned.col_meta, "party {party}");
            assert_eq!(raw.cuts, binned.cuts, "party {party}");
            assert_eq!((&raw.block, &raw.tail), (&binned.block, &binned.tail), "party {party}");
            assert_eq!(raw.offsets, binned.offsets, "party {party}");
            let dense = raw.col_meta.iter().filter(|m| m.dense).count();
            assert_eq!(raw.block.len(), 8 * dense, "party {party}");
            assert_eq!(raw.offsets.is_empty(), raw.tail.is_empty(), "party {party}");
        }
    }

    /// On every layout, each row's bin at every feature, every placement
    /// (in list order, the list unsorted) and every node's histograms equal
    /// the column-major form's; a row that stores no entry reads its
    /// column's zero bin. The gradients are small integers, so every sum is
    /// exact in any order.
    #[test]
    fn every_layout_agrees_with_the_column_major_form() {
        let g = grads(8);
        for (party, columns) in parties().into_iter().enumerate() {
            let data = Dataset::new(8, columns, None);
            let b = BinnedDataset::bin(&data, &cfg());
            let csr = RowMajorBins::bin(&data, &cfg());
            let rows: Vec<u32> = vec![7, 0, 3, 5, 1];
            for (f, col) in b.columns().iter().enumerate() {
                for r in 0..8 {
                    assert_eq!(csr.column(f)(r), col.bin_of_row(r), "party {party} ({r}, {f})");
                }
                for bin in 0..col.num_bins() as u16 {
                    let want: Vec<bool> =
                        rows.iter().map(|&r| col.bin_of_row(r as usize) <= bin).collect();
                    assert_eq!(csr.placement(&rows, f, bin), want, "party {party} ({f}, {bin})");
                }
            }
            let lists: [&[u32]; 4] = [&rows, &[2, 4, 6], &[], &[0, 1, 2, 3, 4, 5, 6, 7]];
            for node_rows in lists {
                let hists = csr.node_histograms(node_rows, &g);
                let mut node_of_row = vec![-1i32; 8];
                for &r in node_rows {
                    node_of_row[r as usize] = 0;
                }
                let totals = vf2_gbdt::histogram::node_totals(&g, &node_of_row, 1);
                let want =
                    vf2_gbdt::histogram::build_layer_histograms(&b, &g, &node_of_row, &totals);
                assert_eq!(hists.len(), b.num_features());
                for (f, h) in hists.iter().enumerate() {
                    assert_eq!(h, want.hist(f, 0), "party {party} feature {f} {node_rows:?}");
                }
            }
        }
        // Row 3 of the sparse party stores nothing: every column reads its
        // zero bin, which is not bin 0 for a column with negative values.
        let csr = RowMajorBins::bin(&Dataset::new(8, parties().swap_remove(1), None), &cfg());
        assert_eq!(csr.row(3).count(), 0);
        assert!(csr.col_meta.iter().any(|m| m.zero_bin > 0));
        for (f, meta) in csr.col_meta.iter().enumerate() {
            assert_eq!(csr.column(f)(3), meta.zero_bin, "feature {f}");
        }
    }

    #[test]
    fn node_histograms_on_subset() {
        let csr = RowMajorBins::bin(&data(), &cfg());
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
        assert_eq!(&*nr.rows(1), &[0, 2, 4]);
        assert_eq!(&*nr.rows(2), &[1, 3]);
        // Parent retained for potential re-splitting, still ascending.
        assert_eq!(&*nr.rows(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn resplit_replaces_children() {
        let mut nr = NodeRows::new_tree(4, 3);
        nr.apply_placement(0, &[true, true, false, false]);
        assert_eq!(&*nr.rows(1), &[0, 1]);
        nr.apply_placement(0, &[false, true, false, true]);
        assert_eq!(&*nr.rows(1), &[1, 3]);
        assert_eq!(&*nr.rows(2), &[0, 2]);
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

    /// The per-node lists `NodeRows` replaced: every list retained,
    /// ascending, the reference the permutation must read back. A re-split
    /// drops the old split's subtree first, as `NodeRows` does.
    struct Lists(Vec<Option<Vec<u32>>>);

    impl Lists {
        fn apply_placement(&mut self, id: NodeId, placement: &[bool]) {
            let rows = self.0[id].clone().unwrap();
            self.clear_descendants(id);
            let side = |left: bool| {
                rows.iter().zip(placement).filter(|&(_, &p)| p == left).map(|(&r, _)| r).collect()
            };
            self.0[left_child(id)] = Some(side(true));
            self.0[right_child(id)] = Some(side(false));
        }

        fn clear_descendants(&mut self, id: NodeId) {
            let mut stack = vec![left_child(id), right_child(id)];
            while let Some(x) = stack.pop() {
                if x < self.0.len() && self.0[x].take().is_some() {
                    stack.push(left_child(x));
                    stack.push(right_child(x));
                }
            }
        }
    }

    /// Random splits, re-splits (of nodes whose children were split further
    /// too) and rollbacks, against the retained lists: every live node —
    /// the root, and each child of a live node's latest split — reads the
    /// same rows in the same order, and every node has rows, and as many,
    /// exactly when the lists hold one.
    #[test]
    fn the_permutation_reads_back_the_retained_lists() {
        let (rows, layers) = (40, 5);
        let heap = (1 << layers) - 1;
        let inner = heap / 2;
        let mut deep = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nr = NodeRows::new_tree(rows, layers);
            let mut lists = Lists(vec![None; heap]);
            lists.0[0] = Some((0..rows as u32).collect());
            // Which children each inner node's latest split made live.
            let mut split = vec![false; heap];
            let mut resplits = 0;
            for step in 0..60 {
                // The honest parties split and roll back live nodes only.
                let (mut live, mut stack) = (Vec::new(), vec![0]);
                while let Some(x) = stack.pop() {
                    live.push(x);
                    if x < inner && split[x] {
                        stack.extend([left_child(x), right_child(x)]);
                    }
                }
                live.retain(|&x| x < inner);
                let id = live[rng.gen_range(0..live.len())];
                // `id` and its subtree are no live splits once rolled back;
                // a (re-)split's children are new, so theirs are not either.
                let unsplit = |split: &mut Vec<bool>, from: NodeId| {
                    let mut stack = vec![from];
                    while let Some(x) = stack.pop().filter(|&x| x < inner) {
                        split[x] = false;
                        stack.extend([left_child(x), right_child(x)]);
                    }
                };
                if rng.gen_bool(0.15) {
                    nr.clear_descendants(id);
                    lists.clear_descendants(id);
                    unsplit(&mut split, id);
                } else {
                    let placement: Vec<bool> =
                        (0..nr.count(id)).map(|_| rng.gen_bool(0.5)).collect();
                    if split[id] {
                        resplits += 1;
                        let grown = |c: NodeId| c < inner && split[c];
                        deep += usize::from(grown(left_child(id)) || grown(right_child(id)));
                    }
                    nr.apply_placement(id, &placement);
                    lists.apply_placement(id, &placement);
                    unsplit(&mut split, left_child(id));
                    unsplit(&mut split, right_child(id));
                    split[id] = true;
                }
                let mut stack = vec![0];
                while let Some(x) = stack.pop() {
                    let want = lists.0[x].as_deref().unwrap();
                    assert_eq!(&*nr.rows(x), want, "seed {seed} step {step} node {x}");
                    if x < inner && split[x] {
                        stack.extend([left_child(x), right_child(x)]);
                    }
                }
                for x in 0..heap {
                    assert_eq!(nr.has(x), lists.0[x].is_some(), "seed {seed} step {step} {x}");
                    if let Some(list) = &lists.0[x] {
                        assert_eq!(nr.count(x), list.len(), "seed {seed} step {step} {x}");
                    }
                }
            }
            assert!(resplits > 0, "seed {seed} re-split nothing");
        }
        assert!(deep > 10, "only {deep} re-splits of a node whose children were split");
    }

    #[test]
    fn rows_total_sums() {
        let g = grads(5);
        let t = RowMajorBins::rows_total(&[0, 2, 4], &g);
        assert!((t.g - 6.0).abs() < 1e-12);
        assert!((t.h - 3.0).abs() < 1e-12);
    }
}
