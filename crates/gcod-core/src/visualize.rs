//! Adjacency-matrix visualization (Fig. 4).
//!
//! The paper visualises the adjacency matrices before and after GCoD
//! training, with green lines separating subgraph classes and red lines
//! separating groups. Terminals don't do green and red dots well, so this
//! module renders a density heat-map with ASCII shades plus `|`/`+` rulers at
//! the class and group boundaries, which conveys the same structure (dense
//! diagonal blocks, sparse off-diagonal mass, vacancies after structural
//! pruning).

use crate::SubgraphLayout;
use gcod_graph::{CsrMatrix, PatchGrid};

/// Characters from empty to dense.
const SHADES: [char; 6] = [' ', '.', ':', '+', '#', '@'];

/// Renders an adjacency matrix as an ASCII density map of roughly
/// `resolution × resolution` characters. Pass the layout to draw subgraph
/// boundary rulers; pass `None` for a plain heat-map.
pub fn render_adjacency(
    adj: &CsrMatrix,
    layout: Option<&SubgraphLayout>,
    resolution: usize,
) -> String {
    let n = adj.rows().max(1);
    let resolution = resolution.clamp(4, 160).min(n);
    let cell = n.div_ceil(resolution);
    let grid = PatchGrid::compute(adj, cell);
    let max = grid.max_count().max(1) as f64;

    // Boundary positions (in node space) where a subgraph starts.
    let boundaries: Vec<usize> = layout
        .map(|l| {
            l.subgraphs()
                .iter()
                .map(|s| s.start)
                .filter(|&s| s > 0)
                .collect()
        })
        .unwrap_or_default();
    let is_boundary = |node: usize| boundaries.iter().any(|&b| b / cell == node / cell && b > 0);

    let mut out = String::with_capacity((grid.grid_rows() + 2) * (grid.grid_cols() + 2));
    for pr in 0..grid.grid_rows() {
        for pc in 0..grid.grid_cols() {
            let count = grid.count(pr, pc) as f64;
            let shade = if count == 0.0 {
                SHADES[0]
            } else {
                let level = ((count / max).sqrt() * (SHADES.len() - 1) as f64).ceil() as usize;
                SHADES[level.clamp(1, SHADES.len() - 1)]
            };
            // Overlay a ruler at subgraph boundaries.
            if is_boundary(pc * cell) && shade == ' ' {
                out.push('|');
            } else {
                out.push(shade);
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcodConfig, SubgraphLayout};
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn setup() -> (gcod_graph::Graph, SubgraphLayout) {
        let g = GraphGenerator::new(61)
            .generate(&DatasetProfile::custom("viz", 200, 800, 8, 4))
            .unwrap();
        let cfg = GcodConfig {
            num_classes: 2,
            num_subgraphs: 6,
            num_groups: 2,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&g, &cfg, 0).unwrap();
        (layout.apply(&g), layout)
    }

    #[test]
    fn render_produces_requested_resolution() {
        let (g, layout) = setup();
        let art = render_adjacency(g.adjacency(), Some(&layout), 40);
        let lines: Vec<&str> = art.lines().collect();
        assert!(!lines.is_empty());
        assert!(lines.len() <= 41);
        // All rows have equal width.
        let width = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == width));
    }

    #[test]
    fn denser_matrix_renders_darker() {
        let (g, _) = setup();
        let art_sparse = render_adjacency(g.adjacency(), None, 30);
        // A fully dense matrix of the same size.
        let mut coo = gcod_graph::CooMatrix::new(50, 50);
        for r in 0..50 {
            for c in 0..50 {
                if r != c {
                    coo.push(r, c, 1.0).unwrap();
                }
            }
        }
        let art_dense = render_adjacency(&coo.to_csr(), None, 30);
        let darkness = |s: &str| s.chars().filter(|&c| c == '@' || c == '#').count();
        assert!(darkness(&art_dense) > darkness(&art_sparse));
    }

    #[test]
    fn render_handles_tiny_matrices() {
        let adj = gcod_graph::CsrMatrix::identity(3);
        let art = render_adjacency(&adj, None, 80);
        assert!(!art.is_empty());
    }
}
