//! # vf2-gbdt
//!
//! A histogram-based gradient boosting decision tree engine. This crate is
//! the **non-federated substrate** of the VF²Boost reproduction:
//!
//! * It implements everything GBDT needs that is orthogonal to federation —
//!   column-major datasets, quantile binning, gradient/hessian computation,
//!   plaintext gradient histograms, split finding (paper §2.1, Eq. 1), tree
//!   growth, prediction, and evaluation metrics.
//! * Trained standalone it plays the role of the paper's **XGBoost**
//!   baseline (Table 4: co-located and Party-B-only training).
//! * The federated engine in `vf2boost-core` reuses its binning, histogram,
//!   and split-finding primitives on each party's feature slice.
//!
//! Trees are grown **layer-wise** (all nodes of a depth together), exactly
//! as the paper requires: layer-wise growth is what lets the federated
//! protocol aggregate histograms for many nodes into one message and apply
//! the histogram-subtraction trick (§7, "Related Works").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod data;
pub mod histogram;
pub mod loss;
pub mod metrics;
pub mod split;
pub mod train;
pub mod tree;

pub use binning::{BinnedColumn, BinnedDataset, BinningConfig};
pub use data::{Dataset, FeatureColumn};
pub use histogram::{GradPair, Histogram, LayerHistograms};
pub use loss::LossKind;
pub use metrics::{accuracy, auc, logloss, rmse};
pub use split::{find_best_split, SplitCandidate, SplitParams};
pub use train::{GbdtModel, GbdtParams, Trainer};
pub use tree::{Node, NodeId, NodeSplit, Tree};
