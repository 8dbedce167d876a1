//! Pinning tests for the `Experiment` / `Platform` API redesign.
//!
//! The staged [`Experiment`] builder replaced hand-stitched
//! generate → train → layout → polarize → split → workload sequences across
//! the examples and figure binaries. These tests pin the redesign to the old
//! behaviour: running the same configuration at the same seed through
//! `Experiment` must produce **byte-identical** numbers to the hand-stitched
//! sequence, and the whole platform field must be drivable through one
//! `&dyn Platform` surface.

use gcod::accel::config::AcceleratorConfig;
use gcod::accel::simulator::GcodAccelerator;
use gcod::baselines::{suite, Platform, SimRequest};
use gcod::core::{
    structural_sparsify, GcodConfig, GcodPipeline, Polarizer, SplitWorkload, SubgraphLayout,
};
use gcod::graph::{DatasetProfile, GraphGenerator};
use gcod::nn::models::{ModelConfig, ModelKind};
use gcod::nn::quant::Precision;
use gcod::nn::workload::InferenceWorkload;
use gcod::{Error, Experiment};

fn fast_config() -> GcodConfig {
    GcodConfig {
        num_classes: 2,
        num_subgraphs: 6,
        num_groups: 2,
        prune_ratio: 0.10,
        patch_size: 16,
        patch_threshold: 6,
        pretrain_epochs: 8,
        retrain_epochs: 6,
        ..GcodConfig::default()
    }
}

#[test]
fn experiment_run_matches_the_hand_stitched_sequence_exactly() {
    let seed = 9;
    let scale = 0.05;
    let config = fast_config();

    // The old way: every step stitched by hand.
    let profile = DatasetProfile::cora().scaled(scale);
    let graph = GraphGenerator::new(seed).generate(&profile).unwrap();
    let manual = GcodPipeline::new(config.clone())
        .run(&graph, ModelKind::Gcn, seed)
        .unwrap();
    let model_cfg = ModelConfig::for_kind(ModelKind::Gcn, &graph);
    let manual_gcod_report = GcodAccelerator::new(AcceleratorConfig::vcu128())
        .simulate(&SimRequest::with_split(
            InferenceWorkload::build_with_adjacency_nnz(
                &manual.graph,
                &model_cfg,
                Precision::Fp32,
                manual.split.total_nnz(),
            ),
            manual.split.clone(),
        ))
        .unwrap();
    let manual_cpu_report = suite::reference_platform()
        .simulate(&SimRequest::new(InferenceWorkload::build(
            &graph,
            &model_cfg,
            Precision::Fp32,
        )))
        .unwrap();

    // The new way: one staged builder.
    let report = Experiment::on(DatasetProfile::cora())
        .scale(scale)
        .model(ModelKind::Gcn)
        .gcod(config)
        .seed(seed)
        .run()
        .unwrap();

    // Training results are byte-identical.
    assert_eq!(report.graph.num_edges(), graph.num_edges());
    assert_eq!(report.result.baseline_accuracy, manual.baseline_accuracy);
    assert_eq!(report.result.gcod_accuracy, manual.gcod_accuracy);
    assert_eq!(report.result.graph.num_edges(), manual.graph.num_edges());
    assert_eq!(report.result.split.denser_nnz, manual.split.denser_nnz);
    assert_eq!(report.result.split.sparser_nnz, manual.split.sparser_nnz);
    assert_eq!(
        report.result.polarize_report.achieved_prune_ratio,
        manual.polarize_report.achieved_prune_ratio
    );
    assert_eq!(
        report.result.training_cost.total(),
        manual.training_cost.total()
    );

    // Platform reports are byte-identical.
    let gcod_report = report.platform("gcod").expect("gcod simulated");
    assert_eq!(gcod_report.latency_ms, manual_gcod_report.latency_ms);
    assert_eq!(gcod_report.cycles, manual_gcod_report.cycles);
    assert_eq!(
        gcod_report.off_chip_bytes,
        manual_gcod_report.off_chip_bytes
    );
    assert_eq!(
        gcod_report.peak_bandwidth_gbps,
        manual_gcod_report.peak_bandwidth_gbps
    );
    assert_eq!(gcod_report.energy, manual_gcod_report.energy);

    let cpu_report = report.platform("pyg-cpu").expect("cpu simulated");
    assert_eq!(cpu_report.latency_ms, manual_cpu_report.latency_ms);
    assert_eq!(cpu_report.off_chip_bytes, manual_cpu_report.off_chip_bytes);
    assert_eq!(cpu_report.traffic, manual_cpu_report.traffic);
}

#[test]
fn experiment_tune_matches_the_hand_stitched_structural_pass_exactly() {
    let seed = 4;
    let config = fast_config();

    // The old way (what `gcod_bench::run_algorithm` used to stitch inline).
    let profile = DatasetProfile::pubmed().scaled_to_nodes(900);
    let graph = GraphGenerator::new(seed).generate(&profile).unwrap();
    let layout = SubgraphLayout::build(&graph, &config, seed).unwrap();
    let reordered = layout.apply(&graph);
    let (tuned, polarize_report) = Polarizer::new(config.clone())
        .tune(reordered.adjacency(), &layout)
        .unwrap();
    let (structural, structural_report) =
        structural_sparsify(&tuned, &layout, config.patch_size, config.patch_threshold);
    let split = SplitWorkload::extract(&structural, &layout);

    // The new way.
    let run = Experiment::on(DatasetProfile::pubmed())
        .scale_to_nodes(900)
        .gcod(config)
        .seed(seed)
        .tune()
        .unwrap();

    assert_eq!(run.original.num_edges(), graph.num_edges());
    assert_eq!(run.adjacency.nnz(), structural.nnz());
    assert_eq!(run.split.denser_nnz, split.denser_nnz);
    assert_eq!(run.split.sparser_nnz, split.sparser_nnz);
    assert_eq!(run.split.blocks.len(), split.blocks.len());
    assert_eq!(
        run.polarize_report.achieved_prune_ratio,
        polarize_report.achieved_prune_ratio
    );
    assert_eq!(run.structural_report.nnz_after, structural_report.nnz_after);
    assert_eq!(
        run.retained_edge_fraction(),
        structural.nnz() as f64 / graph.num_edges() as f64
    );
}

#[test]
fn the_whole_field_runs_through_one_dyn_platform_surface() {
    // Six platform kinds: the GCoD accelerator plus the five baseline
    // families (CPU, GPU, HyGCN, AWB-GCN, FPGA).
    let run = Experiment::on(DatasetProfile::citeseer())
        .scale_to_nodes(300)
        .gcod(fast_config())
        .seed(2)
        .tune()
        .unwrap();
    let model_cfg = ModelConfig::gcn(&run.reordered);
    let baseline_request = SimRequest::new(InferenceWorkload::build(
        &run.reordered,
        &model_cfg,
        Precision::Fp32,
    ));
    let gcod_request = SimRequest::with_split(
        InferenceWorkload::build_with_adjacency_nnz(
            &run.reordered,
            &model_cfg,
            Precision::Fp32,
            run.split.total_nnz(),
        ),
        run.split.clone(),
    );

    let platforms: Vec<Box<dyn Platform>> = vec![
        Box::new(GcodAccelerator::new(AcceleratorConfig::vcu128())),
        Box::new(suite::by_name("pyg-cpu").unwrap()),
        Box::new(suite::by_name("pyg-gpu").unwrap()),
        Box::new(suite::by_name("hygcn").unwrap()),
        Box::new(suite::by_name("awb-gcn").unwrap()),
        Box::new(suite::by_name("alveo-u50").unwrap()),
    ];
    assert_eq!(platforms.len(), 6);
    for platform in &platforms {
        let request = if platform.requires_split() {
            &gcod_request
        } else {
            &baseline_request
        };
        let report = platform.simulate(request).unwrap();
        assert_eq!(report.platform, platform.name());
        assert!(
            report.latency_ms > 0.0,
            "{} produced no latency",
            platform.name()
        );
        assert!(report.off_chip_bytes > 0);
    }

    // The suite bundles the same surface; the split-less request is rejected
    // by exactly the split-requiring platforms.
    let suite_platforms = suite::all_platforms();
    assert_eq!(suite_platforms.len(), 11);
    for platform in &suite_platforms {
        let outcome = platform.simulate(&baseline_request);
        assert_eq!(outcome.is_err(), platform.requires_split());
    }
}

#[test]
fn unknown_datasets_error_with_the_valid_names() {
    let err = Experiment::on_dataset("karate-club").unwrap_err();
    match &err {
        Error::UnknownDataset { name } => assert_eq!(name, "karate-club"),
        other => panic!("expected UnknownDataset, got {other:?}"),
    }
    let message = err.to_string();
    for known in gcod::graph::KNOWN_DATASETS {
        assert!(message.contains(known), "message misses {known}: {message}");
    }
    // Lookup stays case-insensitive.
    assert_eq!(
        Experiment::on_dataset("PubMed").unwrap().profile().name,
        "pubmed"
    );
}
