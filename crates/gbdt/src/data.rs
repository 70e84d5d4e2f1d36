//! Column-major datasets with dense and sparse feature columns.
//!
//! GBDT histogram construction sweeps feature *columns*, so features are
//! stored column-major. Sparse columns store only non-zero entries (the
//! paper's datasets go down to 0.03% density); zeros are implicit and are
//! reconstructed arithmetically during histogram building (`node_total −
//! Σ non-zero bins`, see `vf2boost-core`).

/// One feature column.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureColumn {
    /// A value for every row.
    Dense(Vec<f32>),
    /// Sorted non-zero entries; absent rows hold 0.0.
    Sparse {
        /// Row indices of the non-zero entries, strictly increasing.
        rows: Vec<u32>,
        /// The corresponding values (same length as `rows`).
        values: Vec<f32>,
    },
}

impl FeatureColumn {
    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        match self {
            FeatureColumn::Dense(v) => v.len(),
            FeatureColumn::Sparse { rows, .. } => rows.len(),
        }
    }

    /// The value at `row` (0.0 for rows absent from a sparse column).
    pub fn value(&self, row: usize) -> f32 {
        match self {
            FeatureColumn::Dense(v) => v[row],
            FeatureColumn::Sparse { rows, values } => match rows.binary_search(&(row as u32)) {
                Ok(i) => values[i],
                Err(_) => 0.0,
            },
        }
    }

    /// Iterates `(row, value)` over explicitly stored entries.
    pub fn iter_nonzero(&self) -> Box<dyn Iterator<Item = (u32, f32)> + '_> {
        match self {
            FeatureColumn::Dense(v) => Box::new(v.iter().enumerate().map(|(i, &x)| (i as u32, x))),
            FeatureColumn::Sparse { rows, values } => {
                Box::new(rows.iter().copied().zip(values.iter().copied()))
            }
        }
    }
}

/// A column-major dataset with optional labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    num_rows: usize,
    columns: Vec<FeatureColumn>,
    labels: Option<Vec<f32>>,
}

impl Dataset {
    /// Builds a dataset, validating column lengths and sparse invariants.
    ///
    /// # Panics
    /// If a dense column's length differs from `num_rows`, a sparse
    /// column's indices are unsorted/duplicated/out of range, or labels are
    /// present with the wrong length.
    pub fn new(num_rows: usize, columns: Vec<FeatureColumn>, labels: Option<Vec<f32>>) -> Self {
        for (f, col) in columns.iter().enumerate() {
            match col {
                FeatureColumn::Dense(v) => {
                    assert_eq!(v.len(), num_rows, "dense column {f} length mismatch");
                }
                FeatureColumn::Sparse { rows, values } => {
                    assert_eq!(rows.len(), values.len(), "sparse column {f} shape mismatch");
                    assert!(
                        rows.windows(2).all(|w| w[0] < w[1]),
                        "sparse column {f} indices must be strictly increasing"
                    );
                    if let Some(&last) = rows.last() {
                        assert!((last as usize) < num_rows, "sparse column {f} row out of range");
                    }
                }
            }
        }
        if let Some(y) = &labels {
            assert_eq!(y.len(), num_rows, "label length mismatch");
        }
        Dataset { num_rows, columns, labels }
    }

    /// Number of instances `N`.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of features `D`.
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// Total non-zero entries across all columns.
    pub fn nnz(&self) -> usize {
        self.columns.iter().map(FeatureColumn::nnz).sum()
    }

    /// Fraction of explicitly stored entries (1.0 for fully dense).
    pub fn density(&self) -> f64 {
        if self.num_rows == 0 || self.columns.is_empty() {
            return 0.0;
        }
        self.nnz() as f64 / (self.num_rows as f64 * self.columns.len() as f64)
    }

    /// The feature columns.
    pub fn columns(&self) -> &[FeatureColumn] {
        &self.columns
    }

    /// One feature column.
    pub fn column(&self, f: usize) -> &FeatureColumn {
        &self.columns[f]
    }

    /// The labels, if present.
    pub fn labels(&self) -> Option<&[f32]> {
        self.labels.as_deref()
    }

    /// Materializes one row as a dense vector (for row-wise prediction).
    pub fn row_dense(&self, row: usize) -> Vec<f32> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Splits rows into `(first, rest)` where `first` keeps rows
    /// `[0, at)` — used for train/validation splits after shuffling at
    /// generation time.
    pub fn split_rows(&self, at: usize) -> (Dataset, Dataset) {
        assert!(at <= self.num_rows);
        let take = |lo: usize, hi: usize| -> Dataset {
            let columns = self
                .columns
                .iter()
                .map(|c| match c {
                    FeatureColumn::Dense(v) => FeatureColumn::Dense(v[lo..hi].to_vec()),
                    FeatureColumn::Sparse { rows, values } => {
                        let start = rows.partition_point(|&r| (r as usize) < lo);
                        let end = rows.partition_point(|&r| (r as usize) < hi);
                        FeatureColumn::Sparse {
                            rows: rows[start..end].iter().map(|&r| r - lo as u32).collect(),
                            values: values[start..end].to_vec(),
                        }
                    }
                })
                .collect();
            let labels = self.labels.as_ref().map(|y| y[lo..hi].to_vec());
            Dataset::new(hi - lo, columns, labels)
        };
        (take(0, at), take(at, self.num_rows))
    }

    /// Projects a subset of feature columns into a new dataset (labels are
    /// carried along if `keep_labels`). This is how a co-located dataset is
    /// partitioned *vertically* between parties.
    pub fn select_features(&self, features: &[usize], keep_labels: bool) -> Dataset {
        let columns = features.iter().map(|&f| self.columns[f].clone()).collect();
        let labels = if keep_labels { self.labels.clone() } else { None };
        Dataset::new(self.num_rows, columns, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::new(
            4,
            vec![
                FeatureColumn::Dense(vec![1.0, 2.0, 3.0, 4.0]),
                FeatureColumn::Sparse { rows: vec![1, 3], values: vec![5.0, -6.0] },
            ],
            Some(vec![0.0, 1.0, 0.0, 1.0]),
        )
    }

    #[test]
    fn shape_accessors() {
        let d = sample();
        assert_eq!(d.num_rows(), 4);
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.nnz(), 6);
        assert!((d.density() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sparse_value_lookup() {
        let d = sample();
        assert_eq!(d.column(1).value(0), 0.0);
        assert_eq!(d.column(1).value(1), 5.0);
        assert_eq!(d.column(1).value(3), -6.0);
    }

    #[test]
    fn row_dense_materializes_zeros() {
        let d = sample();
        assert_eq!(d.row_dense(0), vec![1.0, 0.0]);
        assert_eq!(d.row_dense(3), vec![4.0, -6.0]);
    }

    #[test]
    fn dense_columns_read_back_by_row() {
        let columns =
            vec![FeatureColumn::Dense(vec![1.0, 3.0]), FeatureColumn::Dense(vec![2.0, 4.0])];
        let d = Dataset::new(2, columns, None);
        assert_eq!(d.row_dense(1), vec![3.0, 4.0]);
    }

    #[test]
    fn split_rows_rebases_sparse_indices() {
        let d = sample();
        let (head, tail) = d.split_rows(2);
        assert_eq!(head.num_rows(), 2);
        assert_eq!(tail.num_rows(), 2);
        assert_eq!(head.column(1).value(1), 5.0);
        assert_eq!(tail.column(1).value(1), -6.0); // was global row 3
        assert_eq!(tail.labels().unwrap(), &[0.0, 1.0]);
    }

    #[test]
    fn select_features_drops_labels_when_asked() {
        let d = sample();
        let a = d.select_features(&[1], false);
        assert_eq!(a.num_features(), 1);
        assert!(a.labels().is_none());
        let b = d.select_features(&[0], true);
        assert!(b.labels().is_some());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_sparse_rejected() {
        Dataset::new(
            4,
            vec![FeatureColumn::Sparse { rows: vec![3, 1], values: vec![1.0, 2.0] }],
            None,
        );
    }

    #[test]
    fn iter_nonzero_visits_stored_entries() {
        let d = sample();
        let entries: Vec<_> = d.column(1).iter_nonzero().collect();
        assert_eq!(entries, vec![(1, 5.0), (3, -6.0)]);
    }
}
