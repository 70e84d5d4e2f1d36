//! # vf2-datagen
//!
//! Synthetic datasets and vertical partitioning for the VF²Boost
//! experiments.
//!
//! The paper evaluates on five public datasets, one synthetic dataset, and
//! one industrial dataset (Table 3). None of the raw data ships with this
//! reproduction; instead [`presets`] provides seeded generators matched to
//! each dataset's *shape* — instance count, per-party feature counts,
//! density, and a label signal spread across both parties' features so that
//! federation genuinely improves AUC (the property Tables 4 and 6 measure).
//!
//! [`vertical`] splits a co-located dataset by columns into per-party
//! views, mirroring the private-set-intersection preprocessing the paper
//! assumes has already aligned the instances (§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;
pub mod synthetic;
pub mod vertical;

pub use presets::{preset, DatasetPreset, ALL_PRESETS};
pub use synthetic::{generate_classification, generate_regression, SyntheticConfig};
pub use vertical::{split_even, split_vertical, VerticalScenario};
