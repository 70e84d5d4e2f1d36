//! The boosting driver: layer-wise tree growth and prediction.
//!
//! [`Trainer`] implements non-federated GBDT over a single (co-located)
//! dataset — the paper's XGBoost baseline. The layer-wise growth loop here
//! is the plaintext twin of the federated loop in `vf2boost-core`; the two
//! must agree on identical bins (that equivalence is the "lossless"
//! property of the protocol and is asserted by integration tests).

use std::time::{Duration, Instant};

use crate::binning::{BinnedDataset, BinningConfig};
use crate::data::Dataset;
use crate::histogram::{build_layer_histograms, node_totals, GradPair};
use crate::loss::LossKind;
use crate::metrics::{auc, logloss};
use crate::split::{best_of, find_best_split, SplitParams};
use crate::tree::{layer_of, layer_start, left_child, right_child, NodeId, NodeSplit, Tree};

/// Hyper-parameters for GBDT training. Defaults follow the paper's
/// protocol: `T = 20` trees, `η = 0.1`, `L = 7` layers, `s = 20` bins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Number of boosted trees (`T`).
    pub num_trees: usize,
    /// Learning rate (`η`).
    pub learning_rate: f64,
    /// Maximum tree layers (`L`), root inclusive.
    pub max_layers: usize,
    /// Histogram binning configuration (`s` bins).
    pub binning: BinningConfig,
    /// Split-search regularization (`λ`, `γ`, thresholds).
    pub split: SplitParams,
    /// Loss function.
    pub loss: LossKind,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            num_trees: 20,
            learning_rate: 0.1,
            max_layers: 7,
            binning: BinningConfig::default(),
            split: SplitParams::default(),
            loss: LossKind::Logistic,
        }
    }
}

/// A trained GBDT model.
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtModel {
    /// The boosted trees, in training order.
    pub trees: Vec<Tree>,
    /// Learning rate applied to every tree's output.
    pub learning_rate: f64,
    /// Initial margin.
    pub base_score: f64,
    /// Loss the model was trained with (determines the output transform).
    pub loss: LossKind,
}

impl GbdtModel {
    /// Raw margin prediction for a dense feature vector.
    pub fn predict_margin_row(&self, row: &[f32]) -> f64 {
        self.base_score
            + self.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Raw margins for every row of a dataset.
    pub fn predict_margin(&self, data: &Dataset) -> Vec<f64> {
        (0..data.num_rows()).map(|r| self.predict_margin_row(&data.row_dense(r))).collect()
    }

    /// Transformed predictions (probabilities for logistic loss).
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        self.predict_margin(data).into_iter().map(|m| self.loss.transform(m)).collect()
    }
}

/// Per-tree evaluation record (feeds the paper's Fig. 10 convergence plot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRecord {
    /// Tree index (0-based; the record is taken after this tree).
    pub tree: usize,
    /// Wall time elapsed since training started.
    pub elapsed: Duration,
    /// Mean training loss.
    pub train_loss: f64,
    /// Mean validation loss, if a validation set was supplied.
    pub valid_loss: Option<f64>,
    /// Validation AUC, if a validation set was supplied.
    pub valid_auc: Option<f64>,
}

/// The GBDT trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    /// Hyper-parameters.
    pub params: GbdtParams,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(params: GbdtParams) -> Trainer {
        Trainer { params }
    }

    /// Trains on `data` (labels required).
    pub fn fit(&self, data: &Dataset) -> GbdtModel {
        self.fit_with_eval(data, None).0
    }

    /// Trains on `data`, optionally evaluating on `valid` after each tree.
    pub fn fit_with_eval(
        &self,
        data: &Dataset,
        valid: Option<&Dataset>,
    ) -> (GbdtModel, Vec<EvalRecord>) {
        let labels = data.labels().expect("training data must carry labels");
        let p = &self.params;
        let binned = BinnedDataset::bin(data, &p.binning);
        let n = data.num_rows();
        let mut preds = vec![p.loss.base_score(); n];

        let valid_rows: Option<Vec<Vec<f32>>> =
            valid.map(|v| (0..v.num_rows()).map(|r| v.row_dense(r)).collect());
        let mut valid_preds: Vec<f64> =
            valid.map_or_else(Vec::new, |v| vec![p.loss.base_score(); v.num_rows()]);

        let start = Instant::now();
        let mut trees = Vec::with_capacity(p.num_trees);
        let mut history = Vec::with_capacity(p.num_trees);
        for t in 0..p.num_trees {
            let grads = p.loss.grad_hess_all(labels, &preds);
            let (tree, row_weights) = grow_tree(&binned, &grads, p);
            for (pred, w) in preds.iter_mut().zip(&row_weights) {
                *pred += p.learning_rate * w;
            }
            if let (Some(v), Some(rows)) = (valid, &valid_rows) {
                for (vp, row) in valid_preds.iter_mut().zip(rows) {
                    *vp += p.learning_rate * tree.predict_row(row);
                }
                let vy = v.labels().expect("validation labels");
                let probs: Vec<f64> = valid_preds.iter().map(|&m| p.loss.transform(m)).collect();
                history.push(EvalRecord {
                    tree: t,
                    elapsed: start.elapsed(),
                    train_loss: p.loss.mean_loss(labels, &preds),
                    valid_loss: Some(match p.loss {
                        LossKind::Logistic => logloss(vy, &probs),
                        LossKind::Squared { .. } => p.loss.mean_loss(vy, &valid_preds),
                    }),
                    valid_auc: Some(auc(vy, &valid_preds)),
                });
            } else {
                history.push(EvalRecord {
                    tree: t,
                    elapsed: start.elapsed(),
                    train_loss: p.loss.mean_loss(labels, &preds),
                    valid_loss: None,
                    valid_auc: None,
                });
            }
            trees.push(tree);
        }
        (
            GbdtModel {
                trees,
                learning_rate: p.learning_rate,
                base_score: p.loss.base_score(),
                loss: p.loss,
            },
            history,
        )
    }
}

/// Grows one tree layer-wise and returns it together with each row's leaf
/// weight (so the caller can update predictions without re-routing).
pub fn grow_tree(
    binned: &BinnedDataset,
    grads: &[GradPair],
    params: &GbdtParams,
) -> (Tree, Vec<f64>) {
    let n = binned.num_rows();
    debug_assert_eq!(grads.len(), n);
    let mut tree = Tree::new(params.max_layers);
    // Current heap node of every row; rows whose node became a leaf keep
    // pointing at it.
    let mut assign: Vec<NodeId> = vec![0; n];
    // Each row's weight, recorded where its node becomes a leaf.
    let mut row_weights = vec![0.0; n];
    let mut active: Vec<NodeId> = vec![0];

    for layer in 0..params.max_layers {
        if active.is_empty() {
            break;
        }
        let start_id = layer_start(layer);
        let num_slots = active.len();
        // Map heap ids of active nodes to dense layer slots.
        let width = 1 << layer;
        let mut slot_of = vec![-1i32; width];
        for (slot, &id) in active.iter().enumerate() {
            slot_of[id - start_id] = slot as i32;
        }
        let node_of_row: Vec<i32> = assign
            .iter()
            .map(|&id| if layer_of(id) == layer { slot_of[id - start_id] } else { -1 })
            .collect();
        let totals = node_totals(grads, &node_of_row, num_slots);

        let last_layer = layer + 1 == params.max_layers;
        if last_layer {
            let weights: Vec<f64> = totals.iter().map(|&t| params.split.leaf_weight(t)).collect();
            for (&id, &w) in active.iter().zip(&weights) {
                tree.set_leaf(id, w);
            }
            for (row_w, &slot) in row_weights.iter_mut().zip(&node_of_row) {
                if slot >= 0 {
                    *row_w = weights[slot as usize];
                }
            }
            break;
        }

        let hists = build_layer_histograms(binned, grads, &node_of_row, &totals);
        let mut next_active = Vec::new();
        let mut split_of = vec![None; width];
        let mut leaf_of = vec![None; width];
        for (slot, &id) in active.iter().enumerate() {
            let best = best_of((0..binned.num_features()).filter_map(|f| {
                find_best_split(f, hists.hist(f, slot), totals[slot], &params.split)
            }));
            match best {
                Some(c) => {
                    let col = binned.column(c.feature);
                    tree.set_split(
                        id,
                        NodeSplit {
                            feature: c.feature,
                            bin: c.bin,
                            threshold: col.threshold(c.bin),
                        },
                    );
                    split_of[id - start_id] = Some((c.feature, c.bin));
                    next_active.push(left_child(id));
                    next_active.push(right_child(id));
                }
                None => {
                    let w = params.split.leaf_weight(totals[slot]);
                    tree.set_leaf(id, w);
                    leaf_of[id - start_id] = Some(w);
                }
            }
        }
        // Route rows of split nodes to their children; rows of new leaves
        // take their weight.
        for (row, id) in assign.iter_mut().enumerate() {
            if layer_of(*id) != layer {
                continue;
            }
            if let Some((feature, bin)) = split_of[*id - start_id] {
                let b = binned.column(feature).bin_of_row(row);
                *id = if b <= bin { left_child(*id) } else { right_child(*id) };
            } else if let Some(w) = leaf_of[*id - start_id] {
                row_weights[row] = w;
            }
        }
        active = next_active;
    }
    (tree, row_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::FeatureColumn;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// y = 1 iff x0 > 0.5, with x1 pure noise.
    fn threshold_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let x0: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
        let x1: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
        let y: Vec<f32> = x0.iter().map(|&v| if v > 0.5 { 1.0 } else { 0.0 }).collect();
        Dataset::new(n, vec![FeatureColumn::Dense(x0), FeatureColumn::Dense(x1)], Some(y))
    }

    #[test]
    fn learns_a_simple_threshold() {
        let data = threshold_dataset(500, 1);
        let params = GbdtParams { num_trees: 5, ..Default::default() };
        let model = Trainer::new(params).fit(&data);
        let probs = model.predict(&data);
        let acc = crate::metrics::accuracy(data.labels().unwrap(), &probs);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn training_loss_decreases_monotonically_early() {
        let data = threshold_dataset(500, 2);
        let params = GbdtParams { num_trees: 10, ..Default::default() };
        let (_, history) = Trainer::new(params).fit_with_eval(&data, None);
        for w in history.windows(2) {
            assert!(
                w[1].train_loss <= w[0].train_loss + 1e-9,
                "loss must not increase: {} -> {}",
                w[0].train_loss,
                w[1].train_loss
            );
        }
    }

    #[test]
    fn validation_history_recorded() {
        let data = threshold_dataset(600, 3);
        let (train, valid) = data.split_rows(480);
        let params = GbdtParams { num_trees: 3, ..Default::default() };
        let (_, history) = Trainer::new(params).fit_with_eval(&train, Some(&valid));
        assert_eq!(history.len(), 3);
        assert!(history.iter().all(|r| r.valid_loss.is_some() && r.valid_auc.is_some()));
        assert!(history.last().unwrap().valid_auc.unwrap() > 0.9);
    }

    #[test]
    fn trees_are_structurally_valid() {
        let data = threshold_dataset(300, 4);
        let model = Trainer::new(GbdtParams { num_trees: 4, ..Default::default() }).fit(&data);
        for t in &model.trees {
            t.validate().expect("valid tree");
        }
    }

    #[test]
    fn max_layers_bounds_depth() {
        let data = threshold_dataset(300, 5);
        let params = GbdtParams { num_trees: 1, max_layers: 2, ..Default::default() };
        let model = Trainer::new(params).fit(&data);
        // A 2-layer tree is a stump: one split, two leaves.
        assert!(model.trees[0].num_splits() <= 1);
        assert!(model.trees[0].num_leaves() <= 2);
    }

    #[test]
    fn squared_loss_regression_fits_mean_structure() {
        let n = 400;
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
        let y: Vec<f32> = x.iter().map(|&v| if v > 0.5 { 10.0 } else { -10.0 }).collect();
        let data = Dataset::new(n, vec![FeatureColumn::Dense(x)], Some(y));
        let params = GbdtParams {
            num_trees: 30,
            learning_rate: 0.3,
            loss: LossKind::squared(),
            ..Default::default()
        };
        let model = Trainer::new(params).fit(&data);
        let preds = model.predict(&data);
        let err = crate::metrics::rmse(data.labels().unwrap(), &preds);
        // The residual floor is set by the quantile bin straddling x = 0.5:
        // rows inside that bin cannot be separated.
        assert!(err < 3.0, "rmse {err}");
    }

    #[test]
    fn grow_tree_row_weights_match_tree_routing() {
        let data = threshold_dataset(200, 7);
        let binned = BinnedDataset::bin(&data, &BinningConfig::default());
        let params = GbdtParams::default();
        let labels = data.labels().unwrap();
        let preds = vec![0.0; data.num_rows()];
        let grads = params.loss.grad_hess_all(labels, &preds);
        let (tree, weights) = grow_tree(&binned, &grads, &params);
        for (r, &w) in weights.iter().enumerate() {
            let routed = tree.predict_row(&data.row_dense(r));
            assert!((routed - w).abs() < 1e-12, "row {r}");
        }
    }

    #[test]
    fn pure_node_stops_early() {
        // All labels identical: no split can gain, the tree is a single leaf.
        let n = 100;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let data = Dataset::new(n, vec![FeatureColumn::Dense(x)], Some(vec![1.0; n]));
        let model = Trainer::new(GbdtParams { num_trees: 1, ..Default::default() }).fit(&data);
        assert_eq!(model.trees[0].num_leaves(), 1);
    }
}
