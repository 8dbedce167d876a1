//! Dataset profiles matching Table III of the GCoD paper.
//!
//! The paper evaluates on six graph datasets. This reproduction cannot ship
//! the original data, so each dataset is described by a [`DatasetProfile`]
//! capturing the statistics that drive both the algorithm behaviour
//! (size, sparsity, degree distribution, community structure) and the
//! accelerator behaviour (feature width, number of classes, storage). The
//! [`crate::GraphGenerator`] turns a profile into a synthetic [`crate::Graph`]
//! exercising the same code paths as the real data.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Summary statistics of a dataset, as reported in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Node feature dimension.
    pub features: usize,
    /// Number of label classes.
    pub classes: usize,
    /// Storage of the dataset as reported by the paper, in megabytes.
    pub storage_mb: f64,
}

/// A generative profile for one of the paper's datasets (or a custom graph).
///
/// `power_law_exponent` and `community_mixing` control the degree skew and
/// the fraction of inter-community edges of the synthetic graph; they do not
/// appear in Table III but follow the well-known structure of these datasets
/// (citation graphs are sparse and modular, Reddit is dense and hub-heavy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Dataset name, lowercase (e.g. "cora").
    pub name: String,
    /// Number of nodes to generate.
    pub nodes: usize,
    /// Number of undirected edges to generate.
    pub edges: usize,
    /// Node feature dimension.
    pub feature_dim: usize,
    /// Number of label classes; also used as the number of planted
    /// communities.
    pub classes: usize,
    /// Exponent of the power-law degree tail (larger = less skewed).
    pub power_law_exponent: f64,
    /// Fraction of edges that cross community boundaries (0 = perfectly
    /// modular, 1 = no community structure).
    pub community_mixing: f64,
    /// Fraction of nodes placed in the training split.
    pub train_fraction: f64,
    /// Fraction of nodes placed in the validation split.
    pub val_fraction: f64,
    /// Fraction of nodes placed in the test split.
    pub test_fraction: f64,
}

impl DatasetProfile {
    /// Builds a custom profile with sensible split fractions.
    pub fn custom(
        name: impl Into<String>,
        nodes: usize,
        edges: usize,
        feature_dim: usize,
        classes: usize,
    ) -> Self {
        Self {
            name: name.into(),
            nodes,
            edges,
            feature_dim,
            classes,
            power_law_exponent: 2.5,
            community_mixing: 0.15,
            train_fraction: 0.4,
            val_fraction: 0.2,
            test_fraction: 0.4,
        }
    }

    /// The Cora citation graph profile (2,708 nodes / 5,429 edges / 1,433
    /// features / 7 classes).
    pub fn cora() -> Self {
        Self {
            power_law_exponent: 2.7,
            community_mixing: 0.19,
            ..Self::custom("cora", 2_708, 5_429, 1_433, 7)
        }
    }

    /// The CiteSeer citation graph profile (3,312 / 4,372 / 3,703 / 6).
    pub fn citeseer() -> Self {
        Self {
            power_law_exponent: 2.9,
            community_mixing: 0.26,
            ..Self::custom("citeseer", 3_312, 4_372, 3_703, 6)
        }
    }

    /// The Pubmed citation graph profile (19,717 / 44,338 / 500 / 3).
    pub fn pubmed() -> Self {
        Self {
            power_law_exponent: 2.4,
            community_mixing: 0.2,
            ..Self::custom("pubmed", 19_717, 44_338, 500, 3)
        }
    }

    /// The NELL knowledge graph profile (65,755 / 266,144 / 5,414 / 210).
    pub(crate) fn nell() -> Self {
        Self {
            power_law_exponent: 2.1,
            community_mixing: 0.3,
            ..Self::custom("nell", 65_755, 266_144, 5_414, 210)
        }
    }

    /// The ogbn-arxiv profile (169,343 / 1,166,243 / 128 / 40).
    pub(crate) fn ogbn_arxiv() -> Self {
        Self {
            power_law_exponent: 2.2,
            community_mixing: 0.34,
            ..Self::custom("ogbn-arxiv", 169_343, 1_166_243, 128, 40)
        }
    }

    /// The Reddit post graph profile (232,965 / 114,615,892 / 602 / 41).
    pub fn reddit() -> Self {
        Self {
            power_law_exponent: 1.9,
            community_mixing: 0.4,
            ..Self::custom("reddit", 232_965, 114_615_892, 602, 41)
        }
    }

    /// A Reddit-scale profile that can actually be materialised: the full
    /// node count and feature/class widths of [`DatasetProfile::reddit`],
    /// with the edge count reduced to an average degree of 20 (the full
    /// 114.6M-edge graph is a workload *model* only — synthesising it would
    /// need tens of GB). This is the sharded-serving profile: at full size
    /// its ~560 MB feature matrix plus adjacency will not fit comfortably in
    /// one serving process, which is exactly what `gcod-shard` exists for.
    ///
    /// Not part of [`KNOWN_DATASETS`] (those are the paper's Table III
    /// datasets) but resolvable through [`DatasetProfile::by_name`].
    pub(crate) fn reddit_lite() -> Self {
        Self {
            power_law_exponent: 1.9,
            community_mixing: 0.4,
            ..Self::custom("reddit-lite", 232_965, 2_329_650, 602, 41)
        }
    }

    /// Looks a profile up by (case-insensitive) name.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownDataset`] — whose message lists the
    /// valid names — when `name` is none of the paper's six datasets.
    pub fn by_name(name: &str) -> crate::Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cora" => Ok(Self::cora()),
            "citeseer" => Ok(Self::citeseer()),
            "pubmed" => Ok(Self::pubmed()),
            "nell" => Ok(Self::nell()),
            "ogbn-arxiv" | "arxiv" | "obgn-arxiv" => Ok(Self::ogbn_arxiv()),
            "reddit" => Ok(Self::reddit()),
            "reddit-lite" => Ok(Self::reddit_lite()),
            _ => Err(GraphError::UnknownDataset {
                name: name.to_string(),
            }),
        }
    }

    /// Returns a copy scaled to `factor` of the original size (nodes, edges
    /// and feature dimension), keeping at least two nodes per class.
    ///
    /// Scaling lets the CI-sized test-suite and the benchmark harness run the
    /// full pipeline on laptop-scale replicas of the large graphs while the
    /// analytical accelerator models are still fed the full-size statistics.
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.clamp(1e-6, 1.0);
        let nodes = ((self.nodes as f64 * factor) as usize)
            .max(self.classes * 2)
            .max(8);
        let avg_degree = 2.0 * self.edges as f64 / self.nodes as f64;
        let edges = ((nodes as f64 * avg_degree / 2.0) as usize).max(nodes);
        let feature_dim =
            ((self.feature_dim as f64 * factor.sqrt()) as usize).clamp(4, self.feature_dim);
        Self {
            name: self.name.clone(),
            nodes,
            edges,
            feature_dim,
            classes: self.classes,
            ..*self
        }
    }

    /// The [`DatasetProfile::scaled`] factor that brings this profile down to
    /// roughly `target_nodes` nodes (1.0 when the profile is already small
    /// enough).
    pub fn scale_for_nodes(&self, target_nodes: usize) -> f64 {
        (target_nodes as f64 / self.nodes.max(1) as f64).min(1.0)
    }

    /// Returns a replica profile scaled down to roughly `target_nodes` nodes
    /// (profiles already at or below the target are returned unchanged).
    ///
    /// This is the shared sizing heuristic for laptop-scale replicas: the
    /// algorithm half of an experiment runs on the replica while the
    /// analytical platform models are fed the full-size statistics.
    pub fn scaled_to_nodes(&self, target_nodes: usize) -> Self {
        self.scaled(self.scale_for_nodes(target_nodes))
    }

    /// Table III statistics implied by this profile. Storage is estimated as
    /// the dense feature matrix plus the CSR adjacency, matching the order of
    /// magnitude reported by the paper.
    pub fn stats(&self) -> DatasetStats {
        let feat_bytes = self.nodes * self.feature_dim * 4;
        let adj_bytes = self.edges * 2 * 8 + (self.nodes + 1) * 8;
        DatasetStats {
            nodes: self.nodes,
            edges: self.edges,
            features: self.feature_dim,
            classes: self.classes,
            storage_mb: (feat_bytes + adj_bytes) as f64 / 1.0e6,
        }
    }

    /// Average node degree implied by the profile (`2E/N`).
    #[cfg(test)]
    fn average_degree(&self) -> f64 {
        2.0 * self.edges as f64 / self.nodes as f64
    }

    /// Adjacency sparsity implied by the profile.
    pub fn sparsity(&self) -> f64 {
        1.0 - (2.0 * self.edges as f64) / (self.nodes as f64 * self.nodes as f64)
    }
}

/// Names of the six datasets used by the paper, in Table III order.
pub const KNOWN_DATASETS: [&str; 6] =
    ["cora", "citeseer", "pubmed", "nell", "ogbn-arxiv", "reddit"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_statistics_match_paper() {
        let cora = DatasetProfile::cora();
        assert_eq!(cora.nodes, 2_708);
        assert_eq!(cora.edges, 5_429);
        assert_eq!(cora.feature_dim, 1_433);
        assert_eq!(cora.classes, 7);

        let reddit = DatasetProfile::reddit();
        assert_eq!(reddit.nodes, 232_965);
        assert_eq!(reddit.edges, 114_615_892);
        assert_eq!(reddit.classes, 41);
    }

    #[test]
    fn all_known_datasets_resolve() {
        for name in KNOWN_DATASETS {
            assert!(DatasetProfile::by_name(name).is_ok(), "{name} missing");
        }
        match DatasetProfile::by_name("imagenet") {
            Err(GraphError::UnknownDataset { name }) => assert_eq!(name, "imagenet"),
            other => panic!("expected UnknownDataset, got {other:?}"),
        }
    }

    #[test]
    fn reddit_lite_is_materialisable_reddit() {
        let full = DatasetProfile::reddit();
        let lite = DatasetProfile::reddit_lite();
        assert_eq!(lite.nodes, full.nodes);
        assert_eq!(lite.feature_dim, full.feature_dim);
        assert_eq!(lite.classes, full.classes);
        assert!(lite.edges < full.edges / 10);
        assert!((lite.average_degree() - 20.0).abs() < 1e-9);
        assert_eq!(DatasetProfile::by_name("Reddit-Lite").unwrap(), lite);
        // The paper's Table III list is unchanged.
        assert!(!KNOWN_DATASETS.contains(&"reddit-lite"));
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(DatasetProfile::by_name("Cora").unwrap().name, "cora");
        assert_eq!(DatasetProfile::by_name("ArXiv").unwrap().name, "ogbn-arxiv");
    }

    #[test]
    fn pubmed_is_ultra_sparse() {
        // The paper quotes 99.989% sparsity for Pubmed.
        let pubmed = DatasetProfile::pubmed();
        assert!(pubmed.sparsity() > 0.9997);
    }

    #[test]
    fn scaling_preserves_average_degree() {
        let full = DatasetProfile::pubmed();
        let small = full.scaled(0.05);
        assert!(small.nodes < full.nodes);
        let ratio = small.average_degree() / full.average_degree();
        assert!(ratio > 0.8 && ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn scaled_to_nodes_matches_the_manual_heuristic() {
        let pubmed = DatasetProfile::pubmed();
        let factor = (2_000.0 / pubmed.nodes as f64).min(1.0);
        assert_eq!(pubmed.scaled_to_nodes(2_000), pubmed.scaled(factor));
        // Already-small profiles are untouched.
        let cora = DatasetProfile::cora();
        assert_eq!(cora.scale_for_nodes(10_000), 1.0);
        assert_eq!(cora.scaled_to_nodes(10_000).nodes, cora.nodes);
    }

    #[test]
    fn scaling_keeps_nodes_per_class() {
        let nell = DatasetProfile::nell().scaled(0.001);
        assert!(nell.nodes >= nell.classes * 2);
    }

    #[test]
    fn stats_storage_is_positive_and_ordered() {
        let cora = DatasetProfile::cora().stats();
        let reddit = DatasetProfile::reddit().stats();
        assert!(cora.storage_mb > 1.0);
        assert!(reddit.storage_mb > cora.storage_mb);
    }
}
