//! Step 1a: degree-based subgraph classification.
//!
//! "We cluster nodes with similar degrees into the same class" (Sec. IV-B1).
//! Classes are defined by a degree-partition list `0 = d̂_0 < … < d̂_C = ∞`;
//! node `i` falls into class `c` when `d̂_{c-1} ≤ d_i < d̂_c`. When no explicit
//! thresholds are given, quantiles of the degree distribution are used so the
//! classes are roughly node-balanced (hubs end up in the last class).

use crate::{GcodConfig, Result};
use gcod_graph::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Assignment of every node to a degree class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DegreeClasses {
    class_of: Vec<u32>,
    num_classes: usize,
}

impl DegreeClasses {
    /// Classifies the nodes of `adj` into `config.num_classes` degree
    /// classes.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub(crate) fn compute(adj: &CsrMatrix, config: &GcodConfig) -> Result<Self> {
        config.validate()?;
        let degrees = adj.row_degrees();
        let thresholds = match &config.degree_thresholds {
            Some(t) => t.clone(),
            None => quantile_thresholds(&degrees, config.num_classes),
        };
        let class_of = degrees
            .iter()
            .map(|&d| class_for_degree(d, &thresholds) as u32)
            .collect();
        Ok(Self {
            class_of,
            num_classes: config.num_classes,
        })
    }

    /// Number of classes.
    pub(crate) fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Class index of every node.
    #[cfg(test)]
    fn class_of(&self) -> &[u32] {
        &self.class_of
    }

    /// Class index of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[cfg(test)]
    fn class(&self, node: usize) -> usize {
        self.class_of[node] as usize
    }

    /// Node indices of each class, in ascending node order.
    pub(crate) fn members(&self) -> Vec<Vec<usize>> {
        let mut members = vec![Vec::new(); self.num_classes];
        for (node, &c) in self.class_of.iter().enumerate() {
            members[c as usize].push(node);
        }
        members
    }

    /// Node count per class.
    #[cfg(test)]
    fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_classes];
        for &c in &self.class_of {
            sizes[c as usize] += 1;
        }
        sizes
    }
}

/// Degree thresholds taken from quantiles of the degree distribution so the
/// classes hold a similar number of nodes.
fn quantile_thresholds(degrees: &[usize], num_classes: usize) -> Vec<usize> {
    if num_classes <= 1 || degrees.is_empty() {
        return Vec::new();
    }
    let mut sorted = degrees.to_vec();
    sorted.sort_unstable();
    let mut thresholds = Vec::with_capacity(num_classes - 1);
    for c in 1..num_classes {
        let idx = (c * sorted.len()) / num_classes;
        let mut t = sorted[idx.min(sorted.len() - 1)];
        // Thresholds must be strictly increasing; nudge duplicates upward so
        // heavily repeated degrees (very common in power-law graphs) do not
        // collapse two classes into one.
        if let Some(&last) = thresholds.last() {
            if t <= last {
                t = last + 1;
            }
        }
        thresholds.push(t);
    }
    thresholds
}

fn class_for_degree(degree: usize, thresholds: &[usize]) -> usize {
    for (c, &t) in thresholds.iter().enumerate() {
        if degree < t {
            return c;
        }
    }
    thresholds.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{CooMatrix, DatasetProfile, GraphGenerator};

    fn hub_graph() -> CsrMatrix {
        // Node 0 is a hub with degree 6, the rest have degree 1 or 2.
        let mut coo = CooMatrix::new(8, 8);
        for i in 1..7 {
            coo.push(0, i, 1.0).unwrap();
            coo.push(i, 0, 1.0).unwrap();
        }
        coo.push(6, 7, 1.0).unwrap();
        coo.push(7, 6, 1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn explicit_thresholds_are_respected() {
        let adj = hub_graph();
        let config = GcodConfig {
            num_classes: 2,
            degree_thresholds: Some(vec![3]),
            ..GcodConfig::default()
        };
        let classes = DegreeClasses::compute(&adj, &config).unwrap();
        assert_eq!(classes.class(0), 1, "the hub has degree 6 >= 3");
        assert_eq!(classes.class(1), 0, "leaf nodes fall below the threshold");
        assert_eq!(classes.num_classes(), 2);
    }

    #[test]
    fn quantile_thresholds_balance_class_sizes() {
        let g = GraphGenerator::new(2)
            .generate(&DatasetProfile::custom("c", 300, 900, 4, 4))
            .unwrap();
        let config = GcodConfig {
            num_classes: 3,
            ..GcodConfig::default()
        };
        let classes = DegreeClasses::compute(g.adjacency(), &config).unwrap();
        let sizes = classes.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 300);
        // No class should be empty and no class should dominate entirely.
        assert!(sizes.iter().all(|&s| s > 0), "sizes {sizes:?}");
        assert!(*sizes.iter().max().unwrap() < 280, "sizes {sizes:?}");
    }

    #[test]
    fn higher_class_means_higher_degree() {
        let g = GraphGenerator::new(3)
            .generate(&DatasetProfile::custom("d", 200, 800, 4, 4))
            .unwrap();
        let config = GcodConfig {
            num_classes: 2,
            ..GcodConfig::default()
        };
        let classes = DegreeClasses::compute(g.adjacency(), &config).unwrap();
        let degrees = g.degrees();
        let avg = |class: usize| {
            let members: Vec<usize> = classes.members().into_iter().nth(class).unwrap();
            members.iter().map(|&m| degrees[m]).sum::<usize>() as f64 / members.len().max(1) as f64
        };
        assert!(avg(1) > avg(0), "class 1 should contain the hubs");
    }

    #[test]
    fn single_class_puts_everything_together() {
        let adj = hub_graph();
        let config = GcodConfig {
            num_classes: 1,
            num_subgraphs: 2,
            num_groups: 1,
            ..GcodConfig::default()
        };
        let classes = DegreeClasses::compute(&adj, &config).unwrap();
        assert!(classes.class_of().iter().all(|&c| c == 0));
    }

    #[test]
    fn members_partition_the_nodes() {
        let adj = hub_graph();
        let config = GcodConfig {
            num_classes: 2,
            ..GcodConfig::default()
        };
        let classes = DegreeClasses::compute(&adj, &config).unwrap();
        let total: usize = classes.members().iter().map(Vec::len).sum();
        assert_eq!(total, adj.rows());
    }
}
