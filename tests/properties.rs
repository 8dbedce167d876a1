//! Property-based tests (proptest) on the cross-crate invariants: sparse
//! format round-trips, permutation safety, conservation of non-zeros through
//! the GCoD split, and monotonicity of the accelerator model.

use gcod::accel::config::AcceleratorConfig;
use gcod::accel::simulator::GcodAccelerator;
use gcod::core::{GcodConfig, Polarizer, SplitWorkload, SubgraphLayout};
use gcod::graph::{CooMatrix, DatasetProfile, GraphGenerator, Permutation};
use gcod::nn::models::ModelConfig;
use gcod::nn::quant::Precision;
use gcod::nn::sparse_ops::{spmm, spmm_csc};
use gcod::nn::workload::InferenceWorkload;
use gcod::nn::Tensor;
use gcod::platform::{Platform, SimRequest};
use proptest::prelude::*;

/// Strategy: a random small undirected graph as an edge list over `n` nodes.
fn arbitrary_graph(max_nodes: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (4..max_nodes).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 1..(n * 3));
        (Just(n), edges)
    })
}

fn build_adjacency(n: usize, edges: &[(usize, usize)]) -> gcod::graph::CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(a, b) in edges {
        if a != b {
            coo.push(a, b, 1.0).unwrap();
            coo.push(b, a, 1.0).unwrap();
        }
    }
    coo.sort_and_dedup();
    // Deduplicate by rebuilding with unit weights.
    let mut unit = CooMatrix::new(n, n);
    for (r, c, _) in coo.iter() {
        unit.push(r, c, 1.0).unwrap();
    }
    unit.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// COO -> CSR -> CSC -> COO keeps every entry.
    #[test]
    fn sparse_format_roundtrip((n, edges) in arbitrary_graph(40)) {
        let csr = build_adjacency(n, &edges);
        let csc = csr.to_csc();
        let back = csc.to_csr();
        prop_assert_eq!(csr.nnz(), back.nnz());
        for (r, c, v) in csr.iter() {
            prop_assert_eq!(back.get(r, c), v);
        }
    }

    /// Row-wise and column-wise SpMM agree on arbitrary graphs.
    #[test]
    fn spmm_orders_agree((n, edges) in arbitrary_graph(30)) {
        let csr = build_adjacency(n, &edges);
        let x = Tensor::from_vec(n, 3, (0..n * 3).map(|i| (i % 7) as f32 * 0.5).collect()).unwrap();
        let a = spmm(&csr, &x).unwrap();
        let b = spmm_csc(&csr.to_csc(), &x).unwrap();
        for (u, v) in a.data().iter().zip(b.data()) {
            prop_assert!((u - v).abs() < 1e-4);
        }
    }

    /// Symmetric permutation preserves the non-zero count and degree multiset.
    #[test]
    fn permutation_preserves_structure((n, edges) in arbitrary_graph(40), seed in 0u64..1000) {
        let csr = build_adjacency(n, &edges);
        // Derive a deterministic permutation from the seed.
        let mut order: Vec<usize> = (0..n).collect();
        order.rotate_left((seed as usize) % n.max(1));
        let perm = Permutation::from_order(&order).unwrap();
        let permuted = csr.permute_symmetric(&perm);
        prop_assert_eq!(csr.nnz(), permuted.nnz());
        let mut before = csr.row_degrees();
        let mut after = permuted.row_degrees();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }

    /// The GCoD workload split never loses or duplicates a non-zero, for any
    /// class/group configuration.
    #[test]
    fn split_conserves_nonzeros(
        seed in 0u64..100,
        classes in 1usize..4,
        groups in 1usize..4,
    ) {
        let profile = DatasetProfile::custom("prop", 150, 500, 8, 4);
        let graph = GraphGenerator::new(seed).generate(&profile).unwrap();
        let config = GcodConfig {
            num_classes: classes,
            num_subgraphs: classes * 3,
            num_groups: groups,
            ..GcodConfig::default()
        };
        let layout = SubgraphLayout::build(&graph, &config, seed).unwrap();
        let reordered = layout.apply(&graph);
        let split = SplitWorkload::extract(reordered.adjacency(), &layout);
        prop_assert_eq!(split.total_nnz(), graph.num_edges());
        prop_assert_eq!(split.num_classes, classes);
    }

    /// Pruning more edges never increases the polarized matrix's nnz, and the
    /// achieved ratio tracks the requested one.
    #[test]
    fn polarizer_prunes_monotonically(ratio in 0.0f64..0.6) {
        let profile = DatasetProfile::custom("prop2", 200, 800, 8, 4);
        let graph = GraphGenerator::new(3).generate(&profile).unwrap();
        let config = GcodConfig { prune_ratio: ratio, ..GcodConfig::default() };
        let layout = SubgraphLayout::build(&graph, &config, 0).unwrap();
        let reordered = layout.apply(&graph);
        let (tuned, report) = Polarizer::new(config).tune(reordered.adjacency(), &layout).unwrap();
        prop_assert!(tuned.nnz() <= graph.num_edges());
        prop_assert!(report.achieved_prune_ratio <= ratio + 0.05);
        prop_assert!(report.achieved_prune_ratio >= ratio * 0.7 - 0.01);
    }

    /// The accelerator model is monotone in work: more edges never simulate
    /// faster.
    #[test]
    fn accelerator_latency_monotone_in_edges(extra in 1usize..5) {
        let profile = DatasetProfile::custom("prop3", 200, 600, 16, 4);
        let graph = GraphGenerator::new(11).generate(&profile).unwrap();
        let config = GcodConfig::default();
        let layout = SubgraphLayout::build(&graph, &config, 0).unwrap();
        let reordered = layout.apply(&graph);
        let split = SplitWorkload::extract(reordered.adjacency(), &layout);
        let model_cfg = ModelConfig::gcn(&reordered);
        let accel = GcodAccelerator::new(AcceleratorConfig::small_test());
        let base_nnz = split.total_nnz();
        let simulate = |nnz| {
            let workload = InferenceWorkload::build_with_adjacency_nnz(&reordered, &model_cfg, Precision::Fp32, nnz);
            accel.simulate(&SimRequest::with_split(workload, split.clone())).unwrap()
        };
        let small = simulate(base_nnz);
        let large = simulate(base_nnz * extra);
        prop_assert!(large.cycles >= small.cycles);
    }
}
