//! Generator presets matched to the shapes of the paper's seven datasets
//! (Table 3).
//!
//! | name | paper N | paper #features (A/B) | density |
//! |---|---|---|---|
//! | census | 22K | 78/70 | 8.78% |
//! | a9a | 32K | 73/50 | 11.28% |
//! | susy | 5M | 9/9 | 100% |
//! | epsilon | 400K | 1K/1K | 100% |
//! | rcv1 | 697K | 23K/23K | 0.15% |
//! | synthesis | 10M | 25K/25K | 0.20% |
//! | industry | 55M | 50K/50K | 0.03% |
//!
//! The raw data is proprietary or too large for this environment, so each
//! preset is a seeded synthetic generator with the same shape parameters.
//! [`DatasetPreset::scaled`] shrinks `rows` (and, for the very wide
//! datasets, features proportionally) while preserving density and the
//! A:B feature ratio — the quantities the evaluation's behaviour depends
//! on.

use crate::synthetic::{generate_classification, SyntheticConfig};
use vf2_gbdt::data::Dataset;

/// A dataset shape from the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetPreset {
    /// Dataset name as in the paper.
    pub name: &'static str,
    /// Instances `N`.
    pub rows: usize,
    /// Party A's feature count `D_A`.
    pub features_a: usize,
    /// Party B's feature count `D_B`.
    pub features_b: usize,
    /// Fraction of non-zero entries.
    pub density: f64,
}

/// All seven presets at paper scale.
pub const ALL_PRESETS: [DatasetPreset; 7] = [
    DatasetPreset { name: "census", rows: 22_000, features_a: 78, features_b: 70, density: 0.0878 },
    DatasetPreset { name: "a9a", rows: 32_000, features_a: 73, features_b: 50, density: 0.1128 },
    DatasetPreset { name: "susy", rows: 5_000_000, features_a: 9, features_b: 9, density: 1.0 },
    DatasetPreset {
        name: "epsilon",
        rows: 400_000,
        features_a: 1_000,
        features_b: 1_000,
        density: 1.0,
    },
    DatasetPreset {
        name: "rcv1",
        rows: 697_000,
        features_a: 23_000,
        features_b: 23_000,
        density: 0.0015,
    },
    DatasetPreset {
        name: "synthesis",
        rows: 10_000_000,
        features_a: 25_000,
        features_b: 25_000,
        density: 0.002,
    },
    DatasetPreset {
        name: "industry",
        rows: 55_000_000,
        features_a: 50_000,
        features_b: 50_000,
        density: 0.0003,
    },
];

/// Looks up a preset by name.
pub fn preset(name: &str) -> Option<DatasetPreset> {
    ALL_PRESETS.iter().copied().find(|p| p.name == name)
}

impl DatasetPreset {
    /// Total feature count `D`.
    pub fn features(&self) -> usize {
        self.features_a + self.features_b
    }

    /// Scales the preset down by `factor` (e.g. `0.01` for 1% of the paper
    /// scale). Rows always scale; features scale only above 64 per party
    /// (the narrow datasets keep their exact width), and never below 8.
    ///
    /// When the feature count shrinks, density is raised by the same
    /// factor so that the **average non-zeros per row** (`d`, the quantity
    /// the paper's histogram-cost model `O(N·d·T_HADD)` depends on, scaled
    /// to the narrower width) is preserved — otherwise ultra-sparse
    /// presets would degenerate to near-empty columns at laptop scale.
    pub fn scaled(&self, factor: f64) -> DatasetPreset {
        assert!(factor > 0.0 && factor <= 1.0, "scale factor in (0, 1]");
        let scale_feats = |f: usize| -> usize {
            if f <= 64 {
                f
            } else {
                ((f as f64 * factor.sqrt()).round() as usize).max(8)
            }
        };
        let features_a = scale_feats(self.features_a);
        let features_b = scale_feats(self.features_b);
        let feat_shrink =
            (features_a + features_b) as f64 / (self.features_a + self.features_b) as f64;
        DatasetPreset {
            name: self.name,
            rows: ((self.rows as f64 * factor).round() as usize).max(64),
            features_a,
            features_b,
            density: (self.density / feat_shrink).min(1.0),
        }
    }

    /// Generates the co-located labeled dataset for this shape.
    pub fn generate(&self, seed: u64) -> Dataset {
        generate_classification(&SyntheticConfig {
            rows: self.rows,
            features: self.features(),
            density: self.density,
            // Sparser, wider datasets carry proportionally fewer informative
            // features, like text/CTR data.
            informative_frac: if self.features() > 1000 {
                0.05
            } else if self.density < 0.5 {
                0.15
            } else {
                0.3
            },
            label_noise: 0.05,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertical::split_vertical;

    #[test]
    fn all_presets_resolvable_by_name() {
        for p in ALL_PRESETS {
            assert_eq!(preset(p.name), Some(p));
        }
        assert!(preset("nonexistent").is_none());
    }

    #[test]
    fn scaling_preserves_nnz_per_row_and_ratio() {
        let p = preset("synthesis").unwrap().scaled(0.001);
        assert_eq!(p.features_a, p.features_b);
        assert_eq!(p.rows, 10_000);
        assert!(p.features_a < 25_000 && p.features_a >= 8);
        // Density rises by the feature-shrink factor so that the expected
        // non-zeros per row stays proportional: D' · ρ' == D · ρ.
        let original = preset("synthesis").unwrap();
        let d_orig = original.features() as f64 * original.density;
        let d_scaled = p.features() as f64 * p.density;
        assert!((d_orig - d_scaled).abs() / d_orig < 0.05, "{d_orig} vs {d_scaled}");
    }

    #[test]
    fn dense_presets_stay_dense_under_scaling() {
        let p = preset("epsilon").unwrap().scaled(0.01);
        assert_eq!(p.density, 1.0);
    }

    #[test]
    fn narrow_presets_keep_their_width() {
        let p = preset("susy").unwrap().scaled(0.001);
        assert_eq!(p.features_a, 9);
        assert_eq!(p.features_b, 9);
        assert_eq!(p.rows, 5_000);
    }

    #[test]
    fn generated_shape_matches_preset() {
        let p = preset("census").unwrap().scaled(0.1);
        let d = p.generate(42);
        assert_eq!(d.num_rows(), p.rows);
        assert_eq!(d.num_features(), p.features());
        assert!((d.density() - p.density).abs() < 0.03, "density {}", d.density());
    }

    #[test]
    fn two_party_scenario_shapes() {
        let p = preset("a9a").unwrap().scaled(0.1);
        // A features first, then B's — matching Table 3's A/B counts.
        let s = split_vertical(&p.generate(42), &[p.features_a]);
        assert_eq!(s.hosts[0].num_features(), p.features_a);
        assert_eq!(s.guest.num_features(), p.features_b);
        assert_eq!(s.guest.num_rows(), p.rows);
    }
}
