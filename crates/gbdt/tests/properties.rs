//! Property-style tests over the GBDT engine's core invariants, exercised
//! over deterministic seeded sweeps of random cases (the offline stand-in
//! for a proptest strategy).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vf2_gbdt::binning::{bin_of_value, BinnedDataset, BinningConfig};
use vf2_gbdt::data::{Dataset, FeatureColumn};
use vf2_gbdt::histogram::{build_layer_histograms, node_totals, GradPair, Histogram};
use vf2_gbdt::metrics::auc;
use vf2_gbdt::split::{find_best_split, SplitParams};
use vf2_gbdt::train::{grow_tree, GbdtParams, Trainer};

const CASES: usize = 64;

fn finite_f32(rng: &mut StdRng) -> f32 {
    let v = rng.gen_range(-1.0e3f32..1.0e3);
    if v == -0.0 {
        0.0
    } else {
        v
    }
}

/// Binning is monotone: larger values never land in smaller bins, and
/// bin codes agree with the recorded cut thresholds.
#[test]
fn binning_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0xB14);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..200);
        let bins = rng.gen_range(2usize..32);
        let values: Vec<f32> = (0..n).map(|_| finite_f32(&mut rng)).collect();
        let data = Dataset::new(n, vec![FeatureColumn::Dense(values.clone())], None);
        let binned =
            BinnedDataset::bin(&data, &BinningConfig { num_bins: bins, max_samples: 1 << 16 });
        let col = binned.column(0);
        assert!(col.num_bins() <= bins);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in sorted.windows(2) {
            assert!(bin_of_value(&col.cuts, w[0]) <= bin_of_value(&col.cuts, w[1]));
        }
        // Threshold semantics: v goes left of bin b iff v <= cuts[b].
        for &v in &values {
            let b = bin_of_value(&col.cuts, v);
            if (b as usize) < col.cuts.len() {
                assert!(v <= col.threshold(b));
            }
            if b > 0 {
                assert!(v > col.threshold(b - 1));
            }
        }
    }
}

/// Histogram mass conservation: the total over all bins equals the sum
/// of gradients of the node's rows, for any node partition.
#[test]
fn histogram_mass_is_conserved() {
    let mut rng = StdRng::seed_from_u64(0x4157);
    for _ in 0..CASES {
        let n = rng.gen_range(4usize..100);
        let values: Vec<f32> = (0..n).map(|_| finite_f32(&mut rng)).collect();
        let data = Dataset::new(n, vec![FeatureColumn::Dense(values)], None);
        let binned = BinnedDataset::bin(&data, &BinningConfig::default());
        let grads: Vec<GradPair> =
            (0..n).map(|i| GradPair { g: (i as f64 * 0.37).sin(), h: 0.25 }).collect();
        let node_of_row: Vec<i32> = (0..n).map(|_| if rng.gen::<bool>() { 1 } else { 0 }).collect();
        let totals = node_totals(&grads, &node_of_row, 2);
        let hists = build_layer_histograms(&binned, &grads, &node_of_row, &totals);
        for (slot, expected) in totals.iter().enumerate() {
            let t = hists.hist(0, slot).total();
            assert!((t.g - expected.g).abs() < 1e-9);
            assert!((t.h - expected.h).abs() < 1e-9);
        }
    }
}

/// The reported best split's gain really is maximal over all bins.
#[test]
fn best_split_gain_is_maximal() {
    let mut rng = StdRng::seed_from_u64(0x5717);
    for _ in 0..CASES {
        let len = rng.gen_range(2usize..24);
        let gs: Vec<f64> = (0..len).map(|_| rng.gen_range(-10.0f64..10.0)).collect();
        let hist = Histogram { bins: gs.iter().map(|&g| GradPair { g, h: 1.0 }).collect() };
        let total = hist.total();
        let params = SplitParams::default();
        if let Some(best) = find_best_split(0, &hist, total, &params) {
            let prefix = hist.prefix_sums();
            for (b, &left) in prefix.iter().enumerate().take(prefix.len() - 1) {
                let gain = params.gain(left, total);
                assert!(best.gain >= gain - 1e-12, "bin {b} gain {gain} beats best {}", best.gain);
            }
            // Reported children must partition the total.
            let rebuilt = best.left + best.right;
            assert!((rebuilt.g - total.g).abs() < 1e-9);
            assert!((rebuilt.h - total.h).abs() < 1e-9);
        }
    }
}

/// Leaf weight minimizes the node objective: any perturbation scores
/// worse under `G·w + ½(H+λ)w²`.
#[test]
fn leaf_weight_is_the_minimizer() {
    let mut rng = StdRng::seed_from_u64(0x1EAF);
    for _ in 0..CASES {
        let g = rng.gen_range(-100.0f64..100.0);
        let h = rng.gen_range(0.01f64..100.0);
        let params = SplitParams { lambda: 1.0, ..Default::default() };
        let sum = GradPair { g, h };
        let w = params.leaf_weight(sum);
        let obj = |w: f64| g * w + 0.5 * (h + params.lambda) * w * w;
        for delta in [-0.1, -1e-3, 1e-3, 0.1] {
            assert!(obj(w) <= obj(w + delta) + 1e-12);
        }
    }
}

/// Grown trees are structurally valid and their row weights match
/// re-routing each row through the tree.
#[test]
fn grown_trees_are_consistent() {
    let mut gen = StdRng::seed_from_u64(0x72EE);
    for _ in 0..CASES {
        let seed: u64 = gen.gen();
        let layers = gen.gen_range(2usize..6);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 80;
        let x: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
        let y: Vec<f32> = x.iter().map(|&v| if v > 0.5 { 1.0 } else { 0.0 }).collect();
        let data = Dataset::new(n, vec![FeatureColumn::Dense(x)], Some(y));
        let binned = BinnedDataset::bin(&data, &BinningConfig::default());
        let params = GbdtParams { max_layers: layers, ..Default::default() };
        let grads = params.loss.grad_hess_all(data.labels().unwrap(), &vec![0.0; n]);
        let (tree, weights) = grow_tree(&binned, &grads, &params);
        assert!(tree.validate().is_ok());
        for (r, &w) in weights.iter().enumerate() {
            let routed = tree.predict_row(&data.row_dense(r));
            assert!((routed - w).abs() < 1e-12);
        }
    }
}

/// Every tree `Trainer::fit` grows passes `Tree::validate`, and each
/// boosting round's `grow_tree` row weights are what routing the training
/// rows through that round's tree predicts — over several features (dense,
/// sparse, constant, duplicated values), depths from one layer up, and
/// later rounds whose gradients no longer split cleanly.
#[test]
fn fitted_trees_validate_and_row_weights_match_routing() {
    let mut gen = StdRng::seed_from_u64(0xF17);
    for _ in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(gen.gen());
        let n = rng.gen_range(2usize..120);
        let informative: Vec<f32> = (0..n).map(|_| rng.gen::<f32>()).collect();
        let duplicated: Vec<f32> = (0..n).map(|_| rng.gen_range(0..3) as f32).collect();
        let sparse_rows: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.2)).collect();
        let sparse_values = sparse_rows.iter().map(|_| finite_f32(&mut rng)).collect();
        let labels = informative
            .iter()
            .map(|&v| if v > 0.5 || rng.gen_bool(0.1) { 1.0 } else { 0.0 })
            .collect();
        let data = Dataset::new(
            n,
            vec![
                FeatureColumn::Dense(informative),
                FeatureColumn::Dense(duplicated),
                FeatureColumn::Dense(vec![1.0; n]),
                FeatureColumn::Sparse { rows: sparse_rows, values: sparse_values },
            ],
            Some(labels),
        );
        let params =
            GbdtParams { num_trees: 3, max_layers: rng.gen_range(1usize..6), ..Default::default() };
        let model = Trainer::new(params).fit(&data);
        for (t, tree) in model.trees.iter().enumerate() {
            assert_eq!(tree.validate(), Ok(()), "tree {t}");
        }

        let binned = BinnedDataset::bin(&data, &params.binning);
        let mut preds = vec![params.loss.base_score(); n];
        for fitted in &model.trees {
            let grads = params.loss.grad_hess_all(data.labels().unwrap(), &preds);
            let (tree, weights) = grow_tree(&binned, &grads, &params);
            assert_eq!(&tree, fitted);
            for (r, &w) in weights.iter().enumerate() {
                assert_eq!(tree.predict_row(&data.row_dense(r)).to_bits(), w.to_bits(), "row {r}");
                preds[r] += params.learning_rate * w;
            }
        }
    }
}

/// AUC is invariant under strictly monotone score transforms and
/// complements under negation.
#[test]
fn auc_invariances() {
    let mut rng = StdRng::seed_from_u64(0xA0C);
    for _ in 0..CASES {
        let n = rng.gen_range(4usize..64);
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0f64..10.0)).collect();
        let labels: Vec<f32> = (0..n).map(|_| if rng.gen::<bool>() { 1.0 } else { 0.0 }).collect();
        let a = auc(&labels, &scores);
        assert!((0.0..=1.0).contains(&a));
        // Monotone transform (x -> e^x) preserves ranking.
        let transformed: Vec<f64> = scores.iter().map(|&s| s.exp()).collect();
        assert!((auc(&labels, &transformed) - a).abs() < 1e-12);
        // Negation complements (when both classes are present).
        let pos = labels.iter().filter(|&&y| y > 0.5).count();
        if pos > 0 && pos < n {
            let negated: Vec<f64> = scores.iter().map(|&s| -s).collect();
            assert!((auc(&labels, &negated) - (1.0 - a)).abs() < 1e-12);
        }
    }
}
