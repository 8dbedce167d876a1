//! Synthetic graph generation.
//!
//! Real-world GCN benchmark graphs share two structural features the GCoD
//! paper leans on: a power-law degree distribution (a few hub nodes, a long
//! tail of low-degree nodes) and community structure correlated with the node
//! labels. The generator here plants both: nodes receive a community (= class
//! label), edge endpoints are sampled with preferential attachment weights
//! and a configurable probability of staying inside the community, and node
//! features are noisy class centroids so that a GCN can actually learn the
//! labels.

use crate::{CooMatrix, DatasetProfile, Graph, GraphError, NodeMask, Result};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Low-level generator parameters, independent of a dataset profile.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GeneratorConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target number of undirected edges.
    pub edges: usize,
    /// Number of planted communities (also the number of classes).
    pub communities: usize,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Power-law exponent for the preferential-attachment weights.
    pub power_law_exponent: f64,
    /// Probability that an edge leaves its community.
    pub community_mixing: f64,
    /// Train/validation/test fractions (must sum to at most 1).
    pub splits: (f64, f64, f64),
    /// Standard deviation of the feature noise around the class centroid.
    pub feature_noise: f64,
}

impl GeneratorConfig {
    /// Derives the low-level configuration from a dataset profile.
    pub(crate) fn from_profile(profile: &DatasetProfile) -> Self {
        Self {
            nodes: profile.nodes,
            edges: profile.edges,
            communities: profile.classes,
            feature_dim: profile.feature_dim,
            power_law_exponent: profile.power_law_exponent,
            community_mixing: profile.community_mixing,
            splits: (
                profile.train_fraction,
                profile.val_fraction,
                profile.test_fraction,
            ),
            feature_noise: 0.6,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(GraphError::InvalidParameter {
                name: "nodes",
                reason: "must be positive".to_string(),
            });
        }
        if self.communities == 0 || self.communities > self.nodes {
            return Err(GraphError::InvalidParameter {
                name: "communities",
                reason: format!(
                    "must be in 1..={} (nodes), got {}",
                    self.nodes, self.communities
                ),
            });
        }
        if self.feature_dim == 0 {
            return Err(GraphError::InvalidParameter {
                name: "feature_dim",
                reason: "must be positive".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.community_mixing) {
            return Err(GraphError::InvalidParameter {
                name: "community_mixing",
                reason: "must lie in [0, 1]".to_string(),
            });
        }
        let (tr, va, te) = self.splits;
        if tr < 0.0 || va < 0.0 || te < 0.0 || tr + va + te > 1.0 + 1e-9 {
            return Err(GraphError::InvalidParameter {
                name: "splits",
                reason: "fractions must be non-negative and sum to at most 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Deterministic synthetic graph generator.
///
/// The generator is seeded so that every experiment in the benchmark harness
/// is reproducible run-to-run.
#[derive(Debug, Clone)]
pub struct GraphGenerator {
    seed: u64,
}

impl GraphGenerator {
    /// Creates a generator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates a graph from a dataset profile.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for inconsistent profiles.
    pub fn generate(&self, profile: &DatasetProfile) -> Result<Graph> {
        self.generate_with(&GeneratorConfig::from_profile(profile), &profile.name)
    }

    /// Generates a graph from low-level parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for inconsistent
    /// configurations.
    pub(crate) fn generate_with(&self, config: &GeneratorConfig, name: &str) -> Result<Graph> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = config.nodes;

        // 1. Assign communities round-robin with a random shuffle so classes
        //    are balanced but not index-contiguous (index-contiguity is what
        //    GCoD's reordering later creates on purpose).
        let mut labels: Vec<u32> = (0..n).map(|i| (i % config.communities) as u32).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            labels.swap(i, j);
        }

        // 2. Preferential-attachment weights w_i ~ (i+1)^(-1/(gamma-1)) give a
        //    power-law degree tail with exponent gamma.
        let gamma = config.power_law_exponent.max(1.5);
        let exponent = 1.0 / (gamma - 1.0);
        let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-exponent)).collect();

        // Per-community alias tables for intra-community sampling.
        let mut community_members: Vec<Vec<usize>> = vec![Vec::new(); config.communities];
        for (i, &l) in labels.iter().enumerate() {
            community_members[l as usize].push(i);
        }
        let global_dist = WeightedIndex::new(&weights).expect("weights are positive");
        let community_dists: Vec<Option<WeightedIndex<f64>>> = community_members
            .iter()
            .map(|members| {
                if members.len() < 2 {
                    None
                } else {
                    Some(
                        WeightedIndex::new(members.iter().map(|&m| weights[m]))
                            .expect("weights are positive"),
                    )
                }
            })
            .collect();

        // 3. Sample undirected edges. Self loops and duplicates are rejected
        //    via a hash set keyed on the ordered pair.
        let target_edges = config.edges.min(n * (n - 1) / 2);
        // gcod-check: allow(hash-container) — membership-only dedup; iteration order is never observed.
        let mut seen = std::collections::HashSet::with_capacity(target_edges * 2);
        let mut coo = CooMatrix::with_capacity(n, n, target_edges * 2);
        let mut attempts = 0usize;
        let max_attempts = target_edges.saturating_mul(30).max(1000);
        let mut accepted = 0usize;
        while accepted < target_edges && attempts < max_attempts {
            attempts += 1;
            let u = global_dist.sample(&mut rng);
            let v = if rng.gen_bool(1.0 - config.community_mixing) {
                // Stay inside u's community when it has other members.
                let c = labels[u] as usize;
                match &community_dists[c] {
                    Some(dist) => community_members[c][dist.sample(&mut rng)],
                    None => global_dist.sample(&mut rng),
                }
            } else {
                global_dist.sample(&mut rng)
            };
            if u == v {
                continue;
            }
            let key = (u.min(v) as u64) << 32 | (u.max(v) as u64);
            if !seen.insert(key) {
                continue;
            }
            coo.push(u, v, 1.0).expect("sampled indices are in range");
            coo.push(v, u, 1.0).expect("sampled indices are in range");
            accepted += 1;
        }
        // Guarantee no isolated node: attach any zero-degree node to a random
        // member of its community (or any node).
        let adj_probe = coo.to_csr();
        for (node, &label) in labels.iter().enumerate() {
            if adj_probe.row_nnz(node) == 0 {
                let c = label as usize;
                let partner = community_members[c]
                    .iter()
                    .copied()
                    .find(|&m| m != node)
                    .unwrap_or((node + 1) % n);
                coo.push(node, partner, 1.0).expect("in range");
                coo.push(partner, node, 1.0).expect("in range");
            }
        }
        let adjacency = coo.to_csr();

        // 4. Features: class centroid + Gaussian noise, so that the labels are
        //    learnable from features alone and even better with aggregation.
        let mut centroids = vec![0.0f32; config.communities * config.feature_dim];
        for c in 0..config.communities {
            for f in 0..config.feature_dim {
                centroids[c * config.feature_dim + f] = if (f % config.communities) == c {
                    1.0
                } else {
                    0.0
                };
            }
        }
        let mut features = vec![0.0f32; n * config.feature_dim];
        for i in 0..n {
            let c = labels[i] as usize;
            for f in 0..config.feature_dim {
                let noise: f64 = rng.gen::<f64>() - 0.5;
                features[i * config.feature_dim + f] = centroids[c * config.feature_dim + f]
                    + (noise * 2.0 * config.feature_noise) as f32;
            }
        }

        // 5. Splits: a random permutation carved into train/val/test.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let (tr, va, te) = config.splits;
        let n_train = ((n as f64 * tr) as usize).max(config.communities.min(n));
        let n_val = (n as f64 * va) as usize;
        let n_test = ((n as f64 * te) as usize).min(n - n_train.min(n) - n_val.min(n));
        let train_mask = NodeMask::from_indices(n, &order[..n_train.min(n)]);
        let val_mask = NodeMask::from_indices(n, &order[n_train.min(n)..(n_train + n_val).min(n)]);
        let test_mask = NodeMask::from_indices(
            n,
            &order[(n_train + n_val).min(n)..(n_train + n_val + n_test).min(n)],
        );

        Graph::new(
            name,
            adjacency,
            features,
            config.feature_dim,
            labels,
            config.communities,
            train_mask,
            val_mask,
            test_mask,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GeneratorConfig {
        GeneratorConfig {
            nodes: 200,
            edges: 600,
            communities: 4,
            feature_dim: 16,
            power_law_exponent: 2.5,
            community_mixing: 0.1,
            splits: (0.5, 0.2, 0.3),
            feature_noise: 0.3,
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = small_config();
        let a = GraphGenerator::new(7).generate_with(&cfg, "a").unwrap();
        let b = GraphGenerator::new(7).generate_with(&cfg, "a").unwrap();
        let c = GraphGenerator::new(8).generate_with(&cfg, "a").unwrap();
        assert_eq!(a, b);
        assert_ne!(a.adjacency(), c.adjacency());
    }

    #[test]
    fn generated_graph_matches_profile_size() {
        let profile = DatasetProfile::cora().scaled(0.1);
        let g = GraphGenerator::new(1).generate(&profile).unwrap();
        assert_eq!(g.num_nodes(), profile.nodes);
        assert_eq!(g.feature_dim(), profile.feature_dim);
        assert_eq!(g.num_classes(), profile.classes);
        // Directed edge count should be close to 2x the undirected target.
        let undirected = g.num_edges() / 2;
        assert!(undirected as f64 >= profile.edges as f64 * 0.8);
    }

    #[test]
    fn adjacency_is_symmetric_without_self_loops() {
        let g = GraphGenerator::new(3)
            .generate_with(&small_config(), "sym")
            .unwrap();
        let adj = g.adjacency();
        for (r, c, v) in adj.iter() {
            assert_ne!(r, c, "self loop found");
            assert_eq!(adj.get(c, r), v, "asymmetric entry at ({r},{c})");
        }
    }

    #[test]
    fn no_isolated_nodes() {
        let g = GraphGenerator::new(5)
            .generate_with(&small_config(), "iso")
            .unwrap();
        assert!(g.degrees().iter().all(|&d| d > 0));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let mut cfg = small_config();
        cfg.nodes = 1000;
        cfg.edges = 4000;
        let g = GraphGenerator::new(11).generate_with(&cfg, "skew").unwrap();
        let mut degrees = g.degrees();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = degrees[..100].iter().sum();
        let total: usize = degrees.iter().sum();
        // Hubs concentrate edges: the top 10% of nodes should hold well over
        // 10% of the degree mass.
        assert!(
            top_decile as f64 > 0.25 * total as f64,
            "top decile holds only {top_decile}/{total}"
        );
    }

    #[test]
    fn community_structure_dominates() {
        let g = GraphGenerator::new(13)
            .generate_with(&small_config(), "mod")
            .unwrap();
        let labels = g.labels();
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (r, c, _) in g.adjacency().iter() {
            if labels[r] == labels[c] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn splits_are_disjoint() {
        let g = GraphGenerator::new(17)
            .generate_with(&small_config(), "split")
            .unwrap();
        for i in 0..g.num_nodes() {
            let in_train = g.train_mask().contains(i) as u8;
            let in_val = g.val_mask().contains(i) as u8;
            let in_test = g.test_mask().contains(i) as u8;
            assert!(in_train + in_val + in_test <= 1);
        }
        assert!(g.train_mask().count() > 0);
        assert!(g.test_mask().count() > 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = small_config();
        cfg.communities = 0;
        assert!(GraphGenerator::new(0).generate_with(&cfg, "bad").is_err());
        let mut cfg = small_config();
        cfg.community_mixing = 1.5;
        assert!(GraphGenerator::new(0).generate_with(&cfg, "bad").is_err());
        let mut cfg = small_config();
        cfg.splits = (0.9, 0.9, 0.9);
        assert!(GraphGenerator::new(0).generate_with(&cfg, "bad").is_err());
    }
}
