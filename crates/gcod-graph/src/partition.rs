//! Balanced edge-cut graph partitioning.
//!
//! The GCoD algorithm uses METIS to split each degree class into subgraphs
//! with a similar number of edges (Step 1, Sec. IV-B). This module provides a
//! from-scratch multilevel partitioner with the same interface obligations:
//! produce `k` parts of roughly equal weight while keeping the edge cut low.
//!
//! The implementation follows the classic multilevel recipe:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched node
//!    pairs until the graph is small,
//! 2. **Initial partitioning** — greedy growth of `k` regions balanced by
//!    node weight,
//! 3. **Uncoarsening + refinement** — the partition is projected back and a
//!    boundary Kernighan–Lin style pass moves nodes that reduce the cut
//!    without violating the balance constraint.

use crate::{CsrMatrix, GraphError, Result};
use serde::{Deserialize, Serialize};

/// Configuration of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Number of parts to produce.
    pub parts: usize,
    /// Allowed imbalance: a part may hold up to `(1 + imbalance)` times the
    /// average weight.
    pub imbalance: f64,
    /// Stop coarsening once the graph has at most this many nodes.
    pub coarsen_until: usize,
    /// Number of boundary refinement sweeps per uncoarsening level.
    pub refinement_passes: usize,
    /// RNG-free deterministic tie-breaking is always used; this seed only
    /// varies the initial growth order.
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            parts: 2,
            imbalance: 0.1,
            coarsen_until: 64,
            refinement_passes: 4,
            seed: 0,
        }
    }
}

impl PartitionConfig {
    /// Convenience constructor for a `k`-way partition with default knobs.
    pub fn k_way(parts: usize) -> Self {
        Self {
            parts,
            ..Self::default()
        }
    }
}

/// Result of a partitioning run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partitioning {
    assignment: Vec<u32>,
    parts: usize,
    edge_cut: usize,
}

impl Partitioning {
    /// Part id of every node.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of (undirected) edges whose endpoints fall in different parts.
    #[cfg(test)]
    fn edge_cut(&self) -> usize {
        self.edge_cut
    }

    /// Part id of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn part_of(&self, node: usize) -> usize {
        self.assignment[node] as usize
    }

    /// Node count per part.
    #[cfg(test)]
    fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Maximum part size divided by the average part size.
    #[cfg(test)]
    fn imbalance(&self) -> f64 {
        let sizes = self.sizes();
        let avg = self.assignment.len() as f64 / self.parts as f64;
        let max = sizes.into_iter().max().unwrap_or(0) as f64;
        if avg > 0.0 {
            max / avg
        } else {
            0.0
        }
    }
}

/// Multilevel balanced edge-cut partitioner (the METIS stand-in).
#[derive(Debug, Clone, Default)]
pub struct Partitioner {
    config: PartitionConfig,
}

struct Level {
    adj: CsrMatrix,
    node_weights: Vec<u64>,
    /// Mapping from this level's nodes to the next-coarser level's nodes.
    coarse_map: Vec<u32>,
}

impl Partitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: PartitionConfig) -> Self {
        Self { config }
    }

    /// Partitions the graph described by a (symmetric) adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] when `parts == 0` or exceeds
    /// the number of nodes, and [`GraphError::EmptyGraph`] for an empty graph.
    pub fn partition(&self, adj: &CsrMatrix) -> Result<Partitioning> {
        let n = adj.rows();
        if n == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if self.config.parts == 0 {
            return Err(GraphError::InvalidParameter {
                name: "parts",
                reason: "must be positive".to_string(),
            });
        }
        if self.config.parts > n {
            return Err(GraphError::InvalidParameter {
                name: "parts",
                reason: format!("cannot split {n} nodes into {} parts", self.config.parts),
            });
        }
        if self.config.parts == 1 {
            return Ok(Partitioning {
                assignment: vec![0; n],
                parts: 1,
                edge_cut: 0,
            });
        }

        // Coarsening phase.
        let mut levels: Vec<Level> = Vec::new();
        let mut current_adj = adj.clone();
        let mut current_weights: Vec<u64> = vec![1; n];
        while current_adj.rows() > self.config.coarsen_until.max(self.config.parts * 4) {
            let (coarse_adj, coarse_weights, map) =
                coarsen(&current_adj, &current_weights, self.config.seed);
            if coarse_adj.rows() as f64 > current_adj.rows() as f64 * 0.95 {
                // Matching stopped making progress; bail out of coarsening.
                break;
            }
            levels.push(Level {
                adj: current_adj,
                node_weights: current_weights,
                coarse_map: map,
            });
            current_adj = coarse_adj;
            current_weights = coarse_weights;
        }

        // Initial partition on the coarsest graph.
        let mut assignment = initial_partition(
            &current_adj,
            &current_weights,
            self.config.parts,
            self.config.seed,
        );
        refine(
            &current_adj,
            &current_weights,
            &mut assignment,
            self.config.parts,
            self.config.imbalance,
            self.config.refinement_passes,
        );

        // Uncoarsen and refine at each level.
        while let Some(level) = levels.pop() {
            let mut fine_assignment = vec![0u32; level.adj.rows()];
            for (fine, &coarse) in level.coarse_map.iter().enumerate() {
                fine_assignment[fine] = assignment[coarse as usize];
            }
            assignment = fine_assignment;
            refine(
                &level.adj,
                &level.node_weights,
                &mut assignment,
                self.config.parts,
                self.config.imbalance,
                self.config.refinement_passes,
            );
        }

        let edge_cut = edge_cut(adj, &assignment);
        Ok(Partitioning {
            assignment,
            parts: self.config.parts,
            edge_cut,
        })
    }
}

/// Heavy-edge matching coarsening: visits nodes in a pseudo-random order and
/// matches each unmatched node with its heaviest-edge unmatched neighbour.
fn coarsen(adj: &CsrMatrix, weights: &[u64], seed: u64) -> (CsrMatrix, Vec<u64>, Vec<u32>) {
    let n = adj.rows();
    let mut matched = vec![u32::MAX; n];
    let mut order: Vec<usize> = (0..n).collect();
    // Deterministic pseudo-shuffle driven by the seed.
    order.sort_unstable_by_key(|&i| {
        (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(seed)
            >> 33
    });

    let mut next_coarse = 0u32;
    let mut coarse_of = vec![u32::MAX; n];
    for &u in &order {
        if coarse_of[u] != u32::MAX {
            continue;
        }
        let (cols, vals) = adj.row(u);
        let mut best: Option<(usize, f32)> = None;
        for (&c, &w) in cols.iter().zip(vals) {
            let v = c as usize;
            if v != u && coarse_of[v] == u32::MAX && best.map(|(_, bw)| w > bw).unwrap_or(true) {
                best = Some((v, w));
            }
        }
        coarse_of[u] = next_coarse;
        if let Some((v, _)) = best {
            coarse_of[v] = next_coarse;
            matched[u] = v as u32;
            matched[v] = u as u32;
        }
        next_coarse += 1;
    }

    let coarse_n = next_coarse as usize;
    let mut coarse_weights = vec![0u64; coarse_n];
    for u in 0..n {
        coarse_weights[coarse_of[u] as usize] += weights[u];
    }
    let mut coo = crate::CooMatrix::with_capacity(coarse_n, coarse_n, adj.nnz());
    for (r, c, v) in adj.iter() {
        let cr = coarse_of[r] as usize;
        let cc = coarse_of[c] as usize;
        if cr != cc {
            coo.push(cr, cc, v).expect("coarse indices valid");
        }
    }
    (coo.to_csr(), coarse_weights, coarse_of)
}

/// Greedy graph-growing initial partition balanced by node weight.
fn initial_partition(adj: &CsrMatrix, weights: &[u64], parts: usize, seed: u64) -> Vec<u32> {
    let n = adj.rows();
    let total: u64 = weights.iter().sum();
    let target = (total as f64 / parts as f64).ceil() as u64;
    let mut assignment = vec![u32::MAX; n];
    let mut part_weight = vec![0u64; parts];

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| {
        (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(seed)
            >> 32
    });

    let mut current_part = 0usize;
    let mut frontier: Vec<usize> = Vec::new();
    let mut cursor = 0usize;
    while assignment.contains(&u32::MAX) {
        // Pick a seed node for the current part if the frontier is empty.
        if frontier.is_empty() {
            while cursor < n && assignment[order[cursor]] != u32::MAX {
                cursor += 1;
            }
            if cursor >= n {
                break;
            }
            frontier.push(order[cursor]);
        }
        let node = frontier.pop().expect("frontier non-empty");
        if assignment[node] != u32::MAX {
            continue;
        }
        assignment[node] = current_part as u32;
        part_weight[current_part] += weights[node];
        let (cols, _) = adj.row(node);
        for &c in cols {
            if assignment[c as usize] == u32::MAX {
                frontier.push(c as usize);
            }
        }
        if part_weight[current_part] >= target && current_part + 1 < parts {
            current_part += 1;
            frontier.clear();
        }
    }
    // Any stragglers (disconnected pieces) go to the lightest part.
    for node in 0..n {
        if assignment[node] == u32::MAX {
            let lightest = (0..parts).min_by_key(|&p| part_weight[p]).unwrap_or(0);
            assignment[node] = lightest as u32;
            part_weight[lightest] += weights[node];
        }
    }
    assignment
}

/// Boundary refinement: moves nodes to the neighbouring part with the largest
/// cut gain as long as the balance constraint stays satisfied.
fn refine(
    adj: &CsrMatrix,
    weights: &[u64],
    assignment: &mut [u32],
    parts: usize,
    imbalance: f64,
    passes: usize,
) {
    let n = adj.rows();
    let total: u64 = weights.iter().sum();
    let max_weight = ((total as f64 / parts as f64) * (1.0 + imbalance)).ceil() as u64;
    let mut part_weight = vec![0u64; parts];
    for (node, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += weights[node];
    }

    for _ in 0..passes {
        let mut moved = 0usize;
        for node in 0..n {
            let current = assignment[node] as usize;
            let (cols, vals) = adj.row(node);
            if cols.is_empty() {
                continue;
            }
            // Connectivity of this node to each neighbouring part.
            let mut conn: Vec<(usize, f32)> = Vec::with_capacity(4);
            for (&c, &w) in cols.iter().zip(vals) {
                let p = assignment[c as usize] as usize;
                match conn.iter_mut().find(|(pp, _)| *pp == p) {
                    Some((_, acc)) => *acc += w,
                    None => conn.push((p, w)),
                }
            }
            let here = conn
                .iter()
                .find(|(p, _)| *p == current)
                .map(|(_, w)| *w)
                .unwrap_or(0.0);
            let mut best: Option<(usize, f32)> = None;
            for &(p, w) in &conn {
                if p == current {
                    continue;
                }
                let gain = w - here;
                if gain > 0.0
                    && part_weight[p] + weights[node] <= max_weight
                    && best.map(|(_, g)| gain > g).unwrap_or(true)
                {
                    best = Some((p, gain));
                }
            }
            if let Some((p, _)) = best {
                part_weight[current] -= weights[node];
                part_weight[p] += weights[node];
                assignment[node] = p as u32;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Number of undirected edges crossing the partition.
fn edge_cut(adj: &CsrMatrix, assignment: &[u32]) -> usize {
    let mut cut = 0usize;
    for (r, c, _) in adj.iter() {
        if r < c && assignment[r] != assignment[c] {
            cut += 1;
        }
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::GeneratorConfig;
    use crate::{CooMatrix, GraphGenerator};

    fn two_cliques(k: usize) -> CsrMatrix {
        // Two k-cliques joined by a single bridge edge: the optimal bisection
        // cuts exactly one edge.
        let n = 2 * k;
        let mut coo = CooMatrix::new(n, n);
        for offset in [0, k] {
            for a in 0..k {
                for b in (a + 1)..k {
                    coo.push(offset + a, offset + b, 1.0).unwrap();
                    coo.push(offset + b, offset + a, 1.0).unwrap();
                }
            }
        }
        coo.push(0, k, 1.0).unwrap();
        coo.push(k, 0, 1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn bisection_of_two_cliques_cuts_the_bridge() {
        let adj = two_cliques(8);
        let result = Partitioner::new(PartitionConfig::k_way(2))
            .partition(&adj)
            .unwrap();
        assert_eq!(result.edge_cut(), 1, "should cut only the bridge");
        let sizes = result.sizes();
        assert_eq!(sizes[0], 8);
        assert_eq!(sizes[1], 8);
    }

    #[test]
    fn single_part_is_trivial() {
        let adj = two_cliques(4);
        let result = Partitioner::new(PartitionConfig::k_way(1))
            .partition(&adj)
            .unwrap();
        assert_eq!(result.edge_cut(), 0);
        assert!(result.assignment().iter().all(|&p| p == 0));
    }

    #[test]
    fn rejects_zero_or_too_many_parts() {
        let adj = two_cliques(3);
        assert!(Partitioner::new(PartitionConfig::k_way(0))
            .partition(&adj)
            .is_err());
        assert!(Partitioner::new(PartitionConfig::k_way(100))
            .partition(&adj)
            .is_err());
    }

    #[test]
    fn empty_graph_is_rejected() {
        let adj = CsrMatrix::zeros(0, 0);
        assert!(matches!(
            Partitioner::default().partition(&adj),
            Err(GraphError::EmptyGraph)
        ));
    }

    #[test]
    fn parts_cover_all_nodes_exactly_once() {
        let cfg = GeneratorConfig {
            nodes: 400,
            edges: 1500,
            communities: 4,
            feature_dim: 8,
            power_law_exponent: 2.5,
            community_mixing: 0.1,
            splits: (0.5, 0.2, 0.3),
            feature_noise: 0.3,
        };
        let g = GraphGenerator::new(21).generate_with(&cfg, "p").unwrap();
        let result = Partitioner::new(PartitionConfig::k_way(4))
            .partition(g.adjacency())
            .unwrap();
        assert_eq!(result.sizes().iter().sum::<usize>(), g.num_nodes());
        assert!(result.assignment().iter().all(|&p| (p as usize) < 4));
    }

    #[test]
    fn partition_is_reasonably_balanced() {
        let cfg = GeneratorConfig {
            nodes: 600,
            edges: 2500,
            communities: 6,
            feature_dim: 8,
            power_law_exponent: 2.3,
            community_mixing: 0.15,
            splits: (0.5, 0.2, 0.3),
            feature_noise: 0.3,
        };
        let g = GraphGenerator::new(33).generate_with(&cfg, "bal").unwrap();
        let result = Partitioner::new(PartitionConfig::k_way(6))
            .partition(g.adjacency())
            .unwrap();
        assert!(
            result.imbalance() < 1.6,
            "imbalance too high: {}",
            result.imbalance()
        );
    }

    #[test]
    fn cut_better_than_random_assignment() {
        let cfg = GeneratorConfig {
            nodes: 500,
            edges: 2000,
            communities: 4,
            feature_dim: 8,
            power_law_exponent: 2.4,
            community_mixing: 0.05,
            splits: (0.5, 0.2, 0.3),
            feature_noise: 0.3,
        };
        let g = GraphGenerator::new(55).generate_with(&cfg, "cut").unwrap();
        let result = Partitioner::new(PartitionConfig::k_way(4))
            .partition(g.adjacency())
            .unwrap();
        // Random 4-way assignment cuts ~75% of the edges in expectation.
        let random_cut: usize = g
            .adjacency()
            .iter()
            .filter(|&(r, c, _)| r < c && (r % 4) != (c % 4))
            .count();
        assert!(
            result.edge_cut() < random_cut,
            "partitioner cut {} not better than hash cut {}",
            result.edge_cut(),
            random_cut
        );
    }
}
