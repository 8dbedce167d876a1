//! Shard planning: turn one graph + model into `k` self-contained
//! [`ShardSpec`]s plus the halo-exchange routing map.
//!
//! The plan is built once by the router and guarantees **bit-identical**
//! results versus the single-process forward pass:
//!
//! * The full-graph propagation matrix is computed once (symmetric
//!   normalisation needs whole-graph degrees) and its *rows* are sliced
//!   per shard — never renormalised per shard.
//! * A shard's local node ordering is `sorted(owned ∪ halo)` by global
//!   id. The global→local column remap is therefore monotone, so sliced
//!   CSR rows keep sorted columns and the f32 accumulation order inside
//!   each SpMM row is exactly the single-process order.
//! * Model weights are replicated to every shard; only node state is
//!   partitioned (the BNS-GCN decomposition).
//!
//! One GCN layer reads exactly the 1-hop neighbourhood, so the halo of a
//! shard is the set of out-of-shard propagation columns of its owned
//! rows — the ≤1-hop boundary closure, refreshed between layers by the
//! halo exchange.

use gcod_graph::{Graph, PartitionConfig, Partitioner, Partitioning};
use gcod_nn::models::GnnModel;
use gcod_nn::Tensor;

use crate::error::{Result, ShardError};
use crate::proto::ShardSpec;

/// Parameters for building a [`ShardPlan`].
#[derive(Debug, Clone)]
pub struct ShardPlanConfig {
    /// Number of shards (OS processes / worker threads) to plan for.
    pub shards: usize,
    /// Graph partitioner configuration; `parts` is overridden with
    /// `shards`.
    pub partition: PartitionConfig,
}

impl ShardPlanConfig {
    /// Plan for `shards` shards with default partitioner settings.
    pub fn new(shards: usize) -> Self {
        ShardPlanConfig {
            shards,
            partition: PartitionConfig::k_way(shards),
        }
    }
}

/// One shard's slice of the plan: the shippable spec plus the global-id
/// bookkeeping the router needs for halo exchange and result gathering.
#[derive(Debug, Clone)]
struct PlanShard {
    /// Ready-to-send worker payload.
    spec: ShardSpec,
    /// Global ids of owned nodes, ascending.
    owned: Vec<usize>,
    /// Global ids of halo nodes, ascending (= local order of halo rows).
    halo: Vec<usize>,
    /// Per halo node (in `halo` order): which shard owns it and the index
    /// of its row inside that shard's `LayerDone` export tensor.
    halo_sources: Vec<(u32, u32)>,
}

/// A complete sharding of one served model.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<PlanShard>,
    partitioning: Partitioning,
    num_layers: usize,
    num_nodes: usize,
    output_dim: usize,
}

impl ShardPlan {
    /// Build a plan sharding `model` over `graph` into
    /// `config.shards` pieces.
    ///
    /// # Errors
    ///
    /// * [`ShardError::Unsupported`] for feature-dependent propagation
    ///   (attention scores need whole-graph state per layer).
    /// * [`ShardError::InvalidConfig`] for zero shards, more shards than
    ///   nodes, or a partition that leaves a shard empty.
    /// * Graph/model errors are passed through.
    pub fn build(graph: &Graph, model: &GnnModel, config: &ShardPlanConfig) -> Result<ShardPlan> {
        let n = graph.num_nodes();
        if config.shards == 0 {
            return Err(ShardError::InvalidConfig {
                context: "shard count must be at least 1".to_string(),
            });
        }
        if config.shards > n {
            return Err(ShardError::InvalidConfig {
                context: format!("{} shards requested for {n} nodes", config.shards),
            });
        }
        let rule = model.config().propagation();
        if rule.is_feature_dependent() {
            return Err(ShardError::Unsupported {
                context: format!(
                    "propagation {rule:?} recomputes edge weights from whole-graph \
                     features every layer and cannot be row-sliced"
                ),
            });
        }

        let features = Tensor::from_vec(n, graph.feature_dim(), graph.features().to_vec())?;
        // Full-graph propagation, computed exactly as GnnModel::forward
        // does; shards receive row slices of this matrix.
        let full_prop = rule.matrix(graph, &features);

        let mut part_config = config.partition;
        part_config.parts = config.shards;
        let partitioning = Partitioner::new(part_config).partition(graph.adjacency())?;
        let assignment = partitioning.assignment();

        let k = config.shards;
        let mut owned_by_shard: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (node, &p) in assignment.iter().enumerate() {
            owned_by_shard[p as usize].push(node);
        }
        if let Some(empty) = owned_by_shard.iter().position(Vec::is_empty) {
            return Err(ShardError::InvalidConfig {
                context: format!("partition left shard {empty} empty; use fewer shards"),
            });
        }

        // Halo of shard s: out-of-shard columns referenced by its owned
        // propagation rows (the 1-hop boundary closure).
        let mut halo_by_shard: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut seen = vec![usize::MAX; n];
        for (s, owned) in owned_by_shard.iter().enumerate() {
            for &node in owned {
                let (cols, _) = full_prop.row(node);
                for &c in cols {
                    let c = c as usize;
                    if assignment[c] as usize != s && seen[c] != s {
                        seen[c] = s;
                        halo_by_shard[s].push(c);
                    }
                }
            }
            halo_by_shard[s].sort_unstable();
        }

        // Export set of shard s: owned nodes some other shard needs as
        // halo. `export_rows` are their ranks in the owned ordering.
        let mut is_export = vec![false; n];
        for halo in &halo_by_shard {
            for &g in halo {
                is_export[g] = true;
            }
        }
        let export_nodes_by_shard: Vec<Vec<usize>> = owned_by_shard
            .iter()
            .map(|owned| owned.iter().copied().filter(|&g| is_export[g]).collect())
            .collect();

        let mut shards = Vec::with_capacity(k);
        for s in 0..k {
            let owned = &owned_by_shard[s];
            let halo = &halo_by_shard[s];

            // Merge the two sorted, disjoint id sets into the local
            // ordering, recording each side's positions.
            let mut locals = Vec::with_capacity(owned.len() + halo.len());
            let mut owned_pos = Vec::with_capacity(owned.len());
            let mut halo_pos = Vec::with_capacity(halo.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < owned.len() || j < halo.len() {
                let take_owned = match (owned.get(i), halo.get(j)) {
                    (Some(&o), Some(&h)) => o < h,
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_owned {
                    owned_pos.push(locals.len() as u32);
                    locals.push(owned[i]);
                    i += 1;
                } else {
                    halo_pos.push(locals.len() as u32);
                    locals.push(halo[j]);
                    j += 1;
                }
            }

            let prop = full_prop.submatrix(owned, &locals);
            let shard_features = features.gather_rows(&locals)?;

            // Rank of each export node inside the owned ordering.
            let export_rows: Vec<u32> = export_nodes_by_shard[s]
                .iter()
                .map(|g| {
                    owned.binary_search(g).map(|rank| rank as u32).map_err(|_| {
                        ShardError::InvalidConfig {
                            context: format!("export node {g} not owned by shard {s}"),
                        }
                    })
                })
                .collect::<Result<_>>()?;

            // Where each halo row comes from: owning shard + its index in
            // that shard's export tensor.
            let halo_sources: Vec<(u32, u32)> = halo
                .iter()
                .map(|&g| {
                    let owner = assignment[g] as usize;
                    export_nodes_by_shard[owner]
                        .binary_search(&g)
                        .map(|idx| (owner as u32, idx as u32))
                        .map_err(|_| ShardError::InvalidConfig {
                            context: format!("halo node {g} missing from shard {owner} exports"),
                        })
                })
                .collect::<std::result::Result<_, _>>()?;

            shards.push(PlanShard {
                spec: ShardSpec {
                    shard_id: s as u32,
                    num_shards: k as u32,
                    layers: model.layers().to_vec(),
                    residual: model.config().residual,
                    prop,
                    features: shard_features,
                    owned_pos,
                    halo_pos,
                    export_rows,
                },
                owned: owned.clone(),
                halo: halo.clone(),
                halo_sources,
            });
        }

        let output_dim = model
            .config()
            .layer_dims()
            .last()
            .map(|&(_, out)| out)
            .unwrap_or(0);
        Ok(ShardPlan {
            shards,
            partitioning,
            num_layers: model.layers().len(),
            num_nodes: n,
            output_dim,
        })
    }

    /// Number of shards in the plan.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of model layers each worker runs.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Total nodes in the planned graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Output dimension of the final layer.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// The underlying graph partitioning.
    #[cfg(test)]
    fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Shippable spec of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    pub fn spec(&self, shard: usize) -> &ShardSpec {
        &self.shards[shard].spec
    }

    /// Global ids owned by one shard, ascending.
    pub fn owned(&self, shard: usize) -> &[usize] {
        &self.shards[shard].owned
    }

    /// Global ids of one shard's halo, ascending.
    pub fn halo(&self, shard: usize) -> &[usize] {
        &self.shards[shard].halo
    }

    /// Per halo row of `shard`: `(owner shard, index into the owner's
    /// export tensor)`.
    pub fn halo_sources(&self, shard: usize) -> &[(u32, u32)] {
        &self.shards[shard].halo_sources
    }

    /// Global ids one shard exports after every non-final layer.
    #[cfg(test)]
    fn export_nodes(&self, shard: usize) -> Vec<usize> {
        let s = &self.shards[shard];
        s.spec
            .export_rows
            .iter()
            .map(|&r| s.owned[r as usize])
            .collect()
    }

    /// Total halo nodes across all shards (replication overhead).
    pub fn total_halo_nodes(&self) -> usize {
        self.shards.iter().map(|s| s.halo.len()).sum()
    }

    /// Locate a global node: `(owning shard, rank in its owned
    /// ordering)`.
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidConfig`] if `node` is out of range.
    pub fn locate(&self, node: usize) -> Result<(usize, usize)> {
        if node >= self.num_nodes {
            return Err(ShardError::InvalidConfig {
                context: format!("node {node} out of range ({} nodes)", self.num_nodes),
            });
        }
        let shard = self.partitioning.part_of(node);
        let rank = self.shards[shard].owned.binary_search(&node).map_err(|_| {
            ShardError::InvalidConfig {
                context: format!("node {node} not found in shard {shard} owned set"),
            }
        })?;
        Ok((shard, rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;

    fn small_graph() -> Graph {
        GraphGenerator::new(11)
            .generate(&DatasetProfile::custom("plan", 160, 550, 12, 4))
            .expect("graph")
    }

    fn trained_model(graph: &Graph) -> GnnModel {
        GnnModel::new(ModelConfig::gcn(graph), 7).expect("model")
    }

    #[test]
    fn plan_covers_all_nodes_disjointly() {
        let graph = small_graph();
        let model = trained_model(&graph);
        let plan = ShardPlan::build(&graph, &model, &ShardPlanConfig::new(4)).expect("plan");
        assert_eq!(plan.shards(), 4);
        let mut owner_count = vec![0usize; graph.num_nodes()];
        for s in 0..plan.shards() {
            for &g in plan.owned(s) {
                owner_count[g] += 1;
            }
            assert!(plan.owned(s).windows(2).all(|w| w[0] < w[1]));
            assert!(plan.halo(s).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(owner_count.iter().all(|&c| c == 1), "every node owned once");
    }

    #[test]
    fn specs_are_consistent_with_bookkeeping() {
        let graph = small_graph();
        let model = trained_model(&graph);
        let plan = ShardPlan::build(&graph, &model, &ShardPlanConfig::new(2)).expect("plan");
        for s in 0..plan.shards() {
            let spec = plan.spec(s);
            assert_eq!(spec.shard_id as usize, s);
            assert_eq!(spec.owned_count(), plan.owned(s).len());
            assert_eq!(spec.halo_count(), plan.halo(s).len());
            assert_eq!(spec.prop.rows(), spec.owned_count());
            assert_eq!(spec.prop.cols(), spec.local_count());
            assert_eq!(spec.features.rows(), spec.local_count());
            assert_eq!(spec.features.cols(), graph.feature_dim());
            assert_eq!(spec.export_rows.len(), plan.export_nodes(s).len());
            // Halo sources point at real export slots of the owner.
            for (&g, &(owner, idx)) in plan.halo(s).iter().zip(plan.halo_sources(s)) {
                assert_eq!(plan.partitioning().part_of(g), owner as usize);
                assert_eq!(plan.export_nodes(owner as usize)[idx as usize], g);
            }
        }
    }

    #[test]
    fn sliced_features_match_global_rows() {
        let graph = small_graph();
        let model = trained_model(&graph);
        let plan = ShardPlan::build(&graph, &model, &ShardPlanConfig::new(2)).expect("plan");
        let f = graph.feature_dim();
        for s in 0..plan.shards() {
            let spec = plan.spec(s);
            // Reconstruct the local ordering from owned/halo positions.
            let mut locals = vec![usize::MAX; spec.local_count()];
            for (rank, &pos) in spec.owned_pos.iter().enumerate() {
                locals[pos as usize] = plan.owned(s)[rank];
            }
            for (rank, &pos) in spec.halo_pos.iter().enumerate() {
                locals[pos as usize] = plan.halo(s)[rank];
            }
            assert!(locals.windows(2).all(|w| w[0] < w[1]), "locals ascending");
            for (local, &g) in locals.iter().enumerate() {
                assert_eq!(
                    spec.features.row(local),
                    &graph.features()[g * f..(g + 1) * f],
                    "feature row of global node {g}"
                );
            }
        }
    }

    #[test]
    fn single_shard_plan_has_no_halo() {
        let graph = small_graph();
        let model = trained_model(&graph);
        let plan = ShardPlan::build(&graph, &model, &ShardPlanConfig::new(1)).expect("plan");
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.total_halo_nodes(), 0);
        assert!(plan.export_nodes(0).is_empty());
        assert_eq!(plan.owned(0).len(), graph.num_nodes());
    }

    #[test]
    fn halo_sizes_are_pinned_per_profile_and_shard_count() {
        // Exact replication overhead of two degree structures at k = 1, 2, 4.
        // At the 16-wide hidden layer each halo node relays one 64-byte row
        // per forward pass (cora: 0 / 6400 / 9984 bytes).
        for (dataset, expected) in [("cora", [0, 100, 156]), ("reddit-lite", [0, 276, 675])] {
            let profile = DatasetProfile::by_name(dataset)
                .expect("known profile")
                .scaled_to_nodes(300);
            let graph = GraphGenerator::new(1).generate(&profile).expect("graph");
            let model = GnnModel::new(ModelConfig::gcn(&graph), 1).expect("model");
            for (k, want) in [1, 2, 4].into_iter().zip(expected) {
                let plan =
                    ShardPlan::build(&graph, &model, &ShardPlanConfig::new(k)).expect("plan");
                assert_eq!(plan.total_halo_nodes(), want, "{dataset} k={k}");
            }
        }
    }

    #[test]
    fn locate_agrees_with_ownership() {
        let graph = small_graph();
        let model = trained_model(&graph);
        let plan = ShardPlan::build(&graph, &model, &ShardPlanConfig::new(2)).expect("plan");
        for node in 0..graph.num_nodes() {
            let (shard, rank) = plan.locate(node).expect("locate");
            assert_eq!(plan.owned(shard)[rank], node);
        }
        assert!(plan.locate(graph.num_nodes()).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let graph = small_graph();
        let model = trained_model(&graph);
        assert!(matches!(
            ShardPlan::build(&graph, &model, &ShardPlanConfig::new(0)),
            Err(ShardError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ShardPlan::build(&graph, &model, &ShardPlanConfig::new(graph.num_nodes() + 1)),
            Err(ShardError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn attention_models_are_unsupported() {
        let graph = small_graph();
        let model = GnnModel::new(ModelConfig::gat(&graph), 7).expect("model");
        assert!(matches!(
            ShardPlan::build(&graph, &model, &ShardPlanConfig::new(2)),
            Err(ShardError::Unsupported { .. })
        ));
    }
}
