//! End-to-end integration tests spanning every crate: synthetic dataset →
//! GCoD training pipeline → workload split → accelerator and baseline
//! simulation. These are the cross-crate claims of the paper, checked on
//! laptop-scale replicas.

use gcod::accel::config::AcceleratorConfig;
use gcod::accel::simulator::GcodAccelerator;
use gcod::baselines::{suite, Platform, SimRequest};
use gcod::core::{GcodConfig, GcodPipeline, Polarizer, SplitWorkload, SubgraphLayout};
use gcod::graph::{DatasetProfile, Graph, GraphGenerator, GraphStats, QuantWidth};
use gcod::nn::models::{GnnModel, ModelConfig, ModelKind};
use gcod::nn::quant::{Precision, QuantizedModel};
use gcod::nn::train::{TrainConfig, Trainer};
use gcod::nn::workload::InferenceWorkload;
use gcod::shard::{ShardPlan, ShardPlanConfig};

fn fast_config() -> GcodConfig {
    GcodConfig {
        num_classes: 2,
        num_subgraphs: 6,
        num_groups: 2,
        prune_ratio: 0.10,
        patch_size: 16,
        patch_threshold: 6,
        pretrain_epochs: 10,
        retrain_epochs: 8,
        ..GcodConfig::default()
    }
}

#[test]
fn full_codesign_flow_on_cora_replica() {
    // Algorithm: generate, train, tune.
    let profile = DatasetProfile::cora().scaled(0.06);
    let graph = GraphGenerator::new(1).generate(&profile).unwrap();
    let result = GcodPipeline::new(fast_config())
        .run(&graph, ModelKind::Gcn, 0)
        .unwrap();
    assert!(
        result.gcod_accuracy > 0.3,
        "accuracy collapsed: {}",
        result.gcod_accuracy
    );
    assert!(result.total_prune_ratio() > 0.05, "nothing was pruned");

    // Hardware: simulate the tuned workload on GCoD and the strongest
    // baselines; GCoD must win.
    let model_cfg = ModelConfig::gcn(&result.graph);
    let gcod_workload = InferenceWorkload::build_with_adjacency_nnz(
        &result.graph,
        &model_cfg,
        Precision::Fp32,
        result.split.total_nnz(),
    );
    let baseline_request = SimRequest::new(InferenceWorkload::build(
        &graph,
        &model_cfg,
        Precision::Fp32,
    ));
    // One `Platform::simulate` signature covers the accelerator and the
    // baselines.
    let gcod_report = GcodAccelerator::new(AcceleratorConfig::vcu128())
        .simulate(&SimRequest::with_split(gcod_workload, result.split.clone()))
        .unwrap();
    let awb_report = suite::by_name("awb-gcn")
        .unwrap()
        .simulate(&baseline_request)
        .unwrap();
    let hygcn_report = suite::by_name("hygcn")
        .unwrap()
        .simulate(&baseline_request)
        .unwrap();
    assert!(gcod_report.latency_ms < awb_report.latency_ms);
    assert!(gcod_report.latency_ms < hygcn_report.latency_ms);
    assert!(gcod_report.off_chip_bytes < hygcn_report.off_chip_bytes);
}

#[test]
fn polarization_preserves_trainability() {
    // Training on the tuned graph should stay close to training on the
    // original one (the central accuracy claim of the algorithm).
    let profile = DatasetProfile::custom("trainability", 220, 800, 16, 4);
    let graph = GraphGenerator::new(5).generate(&profile).unwrap();

    let mut baseline_model = GnnModel::new(ModelConfig::gcn(&graph), 0).unwrap();
    let baseline = Trainer::new(TrainConfig {
        epochs: 40,
        ..TrainConfig::default()
    })
    .fit(&mut baseline_model, &graph)
    .unwrap();

    let config = fast_config();
    let layout = SubgraphLayout::build(&graph, &config, 0).unwrap();
    let reordered = layout.apply(&graph);
    let (tuned, _) = Polarizer::new(config)
        .tune(reordered.adjacency(), &layout)
        .unwrap();
    let tuned_graph = reordered.with_adjacency(tuned).unwrap();
    let mut tuned_model = GnnModel::new(ModelConfig::gcn(&tuned_graph), 0).unwrap();
    let tuned_report = Trainer::new(TrainConfig {
        epochs: 40,
        ..TrainConfig::default()
    })
    .fit(&mut tuned_model, &tuned_graph)
    .unwrap();

    assert!(
        tuned_report.final_test_accuracy >= baseline.final_test_accuracy - 0.15,
        "tuned {} vs baseline {}",
        tuned_report.final_test_accuracy,
        baseline.final_test_accuracy
    );
}

#[test]
fn reordering_and_pruning_reduce_offchip_traffic_on_gcod() {
    let profile = DatasetProfile::pubmed().scaled(0.05);
    let graph = GraphGenerator::new(9).generate(&profile).unwrap();
    let config = GcodConfig {
        prune_ratio: 0.2,
        polarization_weight: 1.0,
        ..fast_config()
    };
    let layout = SubgraphLayout::build(&graph, &config, 0).unwrap();
    let reordered = layout.apply(&graph);
    let untouched_split = SplitWorkload::extract(reordered.adjacency(), &layout);
    let (tuned, _) = Polarizer::new(config)
        .tune(reordered.adjacency(), &layout)
        .unwrap();
    let tuned_split = SplitWorkload::extract(&tuned, &layout);

    let model_cfg = ModelConfig::gcn(&reordered);
    let accel = GcodAccelerator::new(AcceleratorConfig::vcu128());
    let before = accel
        .simulate(&SimRequest::with_split(
            InferenceWorkload::build(&reordered, &model_cfg, Precision::Fp32),
            untouched_split,
        ))
        .unwrap();
    let tuned_workload = InferenceWorkload::build_with_adjacency_nnz(
        &reordered,
        &model_cfg,
        Precision::Fp32,
        tuned_split.total_nnz(),
    );
    let after = accel
        .simulate(&SimRequest::with_split(tuned_workload, tuned_split))
        .unwrap();
    assert!(after.off_chip_bytes <= before.off_chip_bytes);
    assert!(after.cycles <= before.cycles);
}

#[test]
fn degree_classes_survive_the_whole_pipeline() {
    // Every subgraph the pipeline reports must reference a valid class and a
    // valid node range of the final graph, and the workload split must cover
    // exactly the final adjacency.
    let profile = DatasetProfile::citeseer().scaled(0.035);
    let graph = GraphGenerator::new(13).generate(&profile).unwrap();
    let result = GcodPipeline::new(fast_config())
        .run(&graph, ModelKind::GraphSage, 1)
        .unwrap();
    let n = result.graph.num_nodes();
    for block in &result.split.blocks {
        assert!(block.class < result.split.num_classes);
        assert!(block.start + block.len <= n);
    }
    assert_eq!(result.split.total_nnz(), result.graph.num_edges());
    // The reordered graph keeps the same degree multiset as the original.
    let mut before: Vec<usize> = graph.degrees();
    let mut after: Vec<usize> = result
        .layout
        .permutation()
        .inverse()
        .as_slice()
        .iter()
        .map(|&old| graph.degrees()[old as usize])
        .collect();
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after);
}

#[test]
fn gcod_8bit_variant_is_at_least_as_fast_and_as_accurate_as_claimed() {
    let profile = DatasetProfile::cora().scaled(0.05);
    let graph = GraphGenerator::new(21).generate(&profile).unwrap();
    let result = GcodPipeline::new(fast_config())
        .run(&graph, ModelKind::Gcn, 2)
        .unwrap();

    // Accuracy at INT8 stays within a few points of fp32 (Table VII).
    let int8_logits = QuantizedModel::from_model(&result.model, QuantWidth::I8)
        .forward(&result.graph)
        .unwrap();
    let int8_acc = gcod::nn::metrics::masked_accuracy(
        &int8_logits,
        result.graph.labels(),
        result.graph.test_mask(),
    );
    assert!(int8_acc >= result.gcod_accuracy - 0.1);

    // Speed: the 8-bit accelerator configuration is at least as fast.
    let model_cfg = ModelConfig::gcn(&result.graph);
    let request = |precision| {
        SimRequest::with_split(
            InferenceWorkload::build_with_adjacency_nnz(
                &result.graph,
                &model_cfg,
                precision,
                result.split.total_nnz(),
            ),
            result.split.clone(),
        )
    };
    let fp32 = GcodAccelerator::new(AcceleratorConfig::vcu128())
        .simulate(&request(Precision::Fp32))
        .unwrap();
    let int8 = GcodAccelerator::new(AcceleratorConfig::vcu128_int8())
        .simulate(&request(Precision::Int8))
        .unwrap();
    assert!(int8.latency_ms <= fp32.latency_ms);
    assert!(int8.off_chip_bytes < fp32.off_chip_bytes);
}

#[test]
fn graph_statistics_remain_power_law_after_tuning() {
    // GCoD prunes and reorders but must not destroy the irregular structure
    // the accuracy depends on (Sec. III: "GCNs still preserve large degrees
    // of irregularity").
    let profile = DatasetProfile::custom("powerlaw", 500, 2500, 8, 4);
    let graph = GraphGenerator::new(31).generate(&profile).unwrap();
    let before = GraphStats::compute(graph.adjacency());
    let config = fast_config();
    let layout = SubgraphLayout::build(&graph, &config, 0).unwrap();
    let reordered = layout.apply(&graph);
    let (tuned, _) = Polarizer::new(config)
        .tune(reordered.adjacency(), &layout)
        .unwrap();
    let after = GraphStats::compute(&tuned);
    assert!(
        after.degree_gini > before.degree_gini * 0.5,
        "degree skew flattened"
    );
    assert!(
        after.max_degree as f64 > before.max_degree as f64 * 0.5,
        "hubs destroyed"
    );
}

#[test]
fn codesign_cuts_the_shard_halo_exactly() {
    // Halo nodes of a k-way `ShardPlan` over the generated replica and over
    // the same replica after `tune()`'s reorder, polarize and structural
    // sparsification: (dataset, [original k=2, k=4], [tuned k=2, k=4]).
    // ROADMAP finding 3 counted the same numbers with the partitioner.
    let pinned = [
        ("cora", [443, 882], [88, 109]),
        ("citeseer", [251, 425], [10, 116]),
        ("pubmed", [404, 989], [101, 101]),
    ];
    let halo = |graph: &Graph, k: usize| {
        let model = GnnModel::new(ModelConfig::gcn(graph), 1).expect("model");
        ShardPlan::build(graph, &model, &ShardPlanConfig::new(k))
            .expect("plan")
            .total_halo_nodes()
    };
    let measured = pinned.map(|(dataset, _, _)| {
        let run = gcod::Experiment::on_dataset(dataset)
            .expect("known dataset")
            .scale_to_nodes(1200)
            .seed(1)
            .tune()
            .expect("tune");
        let tuned = run
            .reordered
            .with_adjacency(run.adjacency)
            .expect("tuned graph");
        (
            dataset,
            [2, 4].map(|k| halo(&run.original, k)),
            [2, 4].map(|k| halo(&tuned, k)),
        )
    });
    assert_eq!(measured, pinned);
    for (dataset, original, tuned) in measured {
        for i in 0..2 {
            assert!(
                tuned[i] < original[i],
                "{dataset}: {tuned:?} vs {original:?}"
            );
        }
    }
}
