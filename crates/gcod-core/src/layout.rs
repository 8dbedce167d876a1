//! Step 1b: subgraph partitioning, group distribution and node reordering.
//!
//! Within every degree class, the induced subgraph is split into
//! workload-balanced subgraphs (METIS in the paper, the multilevel
//! partitioner from `gcod-graph` here). The subgraphs of each class are then
//! distributed round-robin over `G` groups. Finally the nodes are laid out so
//! that groups are contiguous index ranges and, inside a group, the
//! subgraphs of class 0 come first, then class 1, … — the layout of Fig. 2,
//! which turns intra-subgraph edges into block-diagonal mass.

use crate::classify::DegreeClasses;
use crate::{GcodConfig, Result};
use gcod_graph::{CsrMatrix, Graph, PartitionConfig, Partitioner, Permutation};
use serde::{Deserialize, Serialize};

/// One subgraph produced by the split-and-conquer layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubgraphInfo {
    /// Degree class this subgraph belongs to (also the hardware chunk that
    /// will process it).
    pub class: usize,
    /// Group this subgraph is assigned to.
    pub group: usize,
    /// First node position (in the reordered graph) of this subgraph.
    pub start: usize,
    /// Number of nodes in this subgraph.
    pub len: usize,
    /// Number of intra-subgraph directed edges (the denser workload of this
    /// block).
    pub internal_nnz: usize,
}

impl SubgraphInfo {
    /// Node range of the subgraph in the reordered graph.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// The full split-and-conquer layout: node ordering plus subgraph metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubgraphLayout {
    permutation: Permutation,
    subgraphs: Vec<SubgraphInfo>,
    num_classes: usize,
    num_groups: usize,
}

impl SubgraphLayout {
    /// Builds the layout for `graph` under `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration and partitioning errors.
    pub fn build(graph: &Graph, config: &GcodConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let classes = DegreeClasses::compute(graph.adjacency(), config)?;
        Self::build_with_classes(graph.adjacency(), &classes, config, seed)
    }

    /// Builds the layout from an already-computed degree classification.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors.
    pub(crate) fn build_with_classes(
        adj: &CsrMatrix,
        classes: &DegreeClasses,
        config: &GcodConfig,
        seed: u64,
    ) -> Result<Self> {
        let per_class = config.subgraphs_per_class();
        let members = classes.members();

        // Partition each class into its share of subgraphs, balanced by edge
        // count (node weight = degree, which the partitioner's balance
        // constraint approximates through node weights of the induced
        // subgraph).
        let mut class_subgraphs: Vec<Vec<Vec<usize>>> = Vec::with_capacity(members.len());
        for (class_idx, class_nodes) in members.iter().enumerate() {
            let wanted = per_class[class_idx].max(1);
            if class_nodes.is_empty() {
                class_subgraphs.push(Vec::new());
                continue;
            }
            if class_nodes.len() <= wanted {
                // Degenerate: one node per subgraph.
                class_subgraphs.push(class_nodes.iter().map(|&n| vec![n]).collect());
                continue;
            }
            let induced = adj.submatrix(class_nodes, class_nodes);
            let parts = wanted.min(class_nodes.len());
            let partition = Partitioner::new(PartitionConfig {
                parts,
                seed,
                ..PartitionConfig::default()
            })
            .partition(&induced)?;
            let mut subgraphs: Vec<Vec<usize>> = vec![Vec::new(); parts];
            for (local, &part) in partition.assignment().iter().enumerate() {
                subgraphs[part as usize].push(class_nodes[local]);
            }
            subgraphs.retain(|s| !s.is_empty());
            class_subgraphs.push(subgraphs);
        }

        // Distribute the subgraphs of each class round-robin over the groups,
        // then lay the nodes out group-major, class-minor (Fig. 2 (a)).
        let num_groups = config.num_groups;
        // assignment[group][class] = list of subgraphs (each a node list)
        let mut assignment: Vec<Vec<Vec<Vec<usize>>>> =
            vec![vec![Vec::new(); classes.num_classes()]; num_groups];
        for (class_idx, subgraphs) in class_subgraphs.into_iter().enumerate() {
            for (i, subgraph) in subgraphs.into_iter().enumerate() {
                assignment[i % num_groups][class_idx].push(subgraph);
            }
        }

        let mut order: Vec<usize> = Vec::with_capacity(adj.rows());
        let mut infos: Vec<SubgraphInfo> = Vec::new();
        for (group_idx, group) in assignment.iter().enumerate() {
            for (class_idx, subgraphs) in group.iter().enumerate() {
                for subgraph in subgraphs {
                    let start = order.len();
                    order.extend_from_slice(subgraph);
                    infos.push(SubgraphInfo {
                        class: class_idx,
                        group: group_idx,
                        start,
                        len: subgraph.len(),
                        internal_nnz: 0,
                    });
                }
            }
        }
        let permutation = Permutation::from_order(&order)?;

        // Count intra-subgraph edges in the *reordered* matrix.
        let permuted = adj.permute_symmetric(&permutation);
        for info in &mut infos {
            info.internal_nnz = permuted.block_nnz(
                info.start,
                info.start + info.len,
                info.start,
                info.start + info.len,
            );
        }

        Ok(Self {
            permutation,
            subgraphs: infos,
            num_classes: classes.num_classes(),
            num_groups,
        })
    }

    /// The node permutation (old index → new index).
    pub fn permutation(&self) -> &Permutation {
        &self.permutation
    }

    /// The subgraphs in layout order.
    pub fn subgraphs(&self) -> &[SubgraphInfo] {
        &self.subgraphs
    }

    /// Number of degree classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Applies the layout's permutation to a graph.
    pub fn apply(&self, graph: &Graph) -> Graph {
        graph.permute(&self.permutation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator, GraphStats};

    fn graph() -> Graph {
        GraphGenerator::new(11)
            .generate(&DatasetProfile::custom("layout", 300, 1200, 8, 4))
            .unwrap()
    }

    fn config() -> GcodConfig {
        GcodConfig {
            num_classes: 2,
            num_subgraphs: 8,
            num_groups: 2,
            pretrain_epochs: 1,
            retrain_epochs: 1,
            ..GcodConfig::default()
        }
    }

    #[test]
    fn layout_covers_all_nodes_exactly_once() {
        let g = graph();
        let layout = SubgraphLayout::build(&g, &config(), 0).unwrap();
        let covered: usize = layout.subgraphs().iter().map(|s| s.len).sum();
        assert_eq!(covered, g.num_nodes());
        // Ranges must be contiguous and non-overlapping.
        let mut cursor = 0;
        for s in layout.subgraphs() {
            assert_eq!(s.start, cursor);
            cursor += s.len;
        }
        assert_eq!(cursor, g.num_nodes());
    }

    #[test]
    fn groups_and_classes_are_within_bounds() {
        let g = graph();
        let cfg = config();
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        for s in layout.subgraphs() {
            assert!(s.class < cfg.num_classes);
            assert!(s.group < cfg.num_groups);
        }
        assert_eq!(layout.num_classes(), cfg.num_classes);
        assert_eq!(layout.num_groups(), cfg.num_groups);
    }

    #[test]
    fn every_class_has_subgraphs() {
        let g = graph();
        let layout = SubgraphLayout::build(&g, &config(), 0).unwrap();
        for class in 0..layout.num_classes() {
            assert!(
                layout.subgraphs().iter().any(|s| s.class == class),
                "class {class} has no subgraphs"
            );
        }
    }

    #[test]
    fn reordering_increases_diagonal_mass() {
        let g = graph();
        let layout = SubgraphLayout::build(&g, &config(), 0).unwrap();
        let before = GraphStats::compute(g.adjacency()).diagonal_mass;
        let permuted = layout.apply(&g);
        let after = GraphStats::compute(permuted.adjacency()).diagonal_mass;
        assert!(
            after > before * 0.9,
            "diagonal mass should not collapse: {before} -> {after}"
        );
        // The block-diagonal (intra-subgraph) edges should be a substantial
        // share of the whole matrix for a community-structured graph.
        let diagonal_nnz: usize = layout.subgraphs().iter().map(|s| s.internal_nnz).sum();
        let frac = diagonal_nnz as f64 / g.num_edges() as f64;
        assert!(frac > 0.3, "block-diagonal fraction {frac}");
    }

    #[test]
    fn permutation_round_trips_labels() {
        let g = graph();
        let layout = SubgraphLayout::build(&g, &config(), 0).unwrap();
        let permuted = layout.apply(&g);
        let inv = layout.permutation().inverse();
        for new in 0..g.num_nodes() {
            let old = inv.apply(new);
            assert_eq!(permuted.labels()[new], g.labels()[old]);
        }
    }

    #[test]
    fn single_class_single_group_layout() {
        let g = graph();
        let cfg = GcodConfig {
            num_classes: 1,
            num_subgraphs: 4,
            num_groups: 1,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        assert!(layout.subgraphs().len() >= 2);
        assert!(layout
            .subgraphs()
            .iter()
            .all(|s| s.class == 0 && s.group == 0));
    }
}
