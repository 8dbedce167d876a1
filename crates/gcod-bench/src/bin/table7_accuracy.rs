//! Table VII: accuracy of GCoD vs the compression baselines (Random Pruning,
//! SGCN, QAT, Degree-Quant) on the citation-graph replicas.
//!
//! Absolute accuracies differ from the paper (the datasets here are synthetic
//! replicas), but the ordering is the claim under test: GCoD matches or beats
//! the vanilla model, smart sparsification beats random pruning, and the
//! 8-bit variants stay close to full precision.

use gcod::Experiment;
use gcod_bench::{print_table, DatasetCase};
use gcod_core::compression::{evaluate_compression, CompressionMethod};
use gcod_core::GcodConfig;
use gcod_graph::QuantWidth;
use gcod_nn::models::ModelKind;
use gcod_nn::quant::QuantizedModel;

fn main() {
    // Small replicas keep the (many) training runs fast while exercising the
    // full training/compression code paths.
    let epochs = 40;
    let gcod_config = GcodConfig {
        num_classes: 2,
        num_subgraphs: 6,
        num_groups: 2,
        prune_ratio: 0.10,
        patch_size: 16,
        patch_threshold: 6,
        pretrain_epochs: 25,
        retrain_epochs: 15,
        ..GcodConfig::default()
    };
    let methods = [
        CompressionMethod::Vanilla,
        CompressionMethod::RandomPruning { ratio: 0.10 },
        CompressionMethod::Sgcn { ratio: 0.10 },
        CompressionMethod::Qat,
        CompressionMethod::DegreeQuant,
    ];

    println!("Table VII: test accuracy (%) of GCoD vs compression baselines");
    println!("(synthetic dataset replicas; compare orderings, not absolute values)\n");

    for model in [
        ModelKind::Gcn,
        ModelKind::Gat,
        ModelKind::Gin,
        ModelKind::GraphSage,
    ] {
        let mut rows = Vec::new();
        for name in ["cora", "citeseer", "pubmed"] {
            let case = DatasetCase::by_name(name);
            // Use a smaller replica than the performance harness: these runs
            // actually train.
            let experiment = Experiment::on(case.profile.clone())
                .scale(0.12 * case.replica_scale())
                .model(model)
                .gcod(gcod_config.clone())
                .seed(7);
            let graph = experiment.generate().expect("replica");

            let mut row = vec![format!("{}/{}", model.name(), name)];
            for method in methods {
                let outcome = evaluate_compression(&graph, model, method, epochs, 0)
                    .expect("compression evaluation");
                row.push(format!("{:.1}", outcome.test_accuracy * 100.0));
            }

            // GCoD itself (full pipeline) and its 8-bit evaluation.
            let result = experiment.train().expect("gcod pipeline");
            row.push(format!("{:.1}", result.gcod_accuracy * 100.0));
            let int8_logits = QuantizedModel::from_model(&result.model, QuantWidth::I8)
                .forward(&result.graph)
                .expect("quantized forward");
            let int8_acc = gcod_nn::metrics::masked_accuracy(
                &int8_logits,
                result.graph.labels(),
                result.graph.test_mask(),
            );
            row.push(format!("{:.1}", int8_acc * 100.0));
            row.push(format!(
                "{:+.1}",
                (result.gcod_accuracy - result.baseline_accuracy) * 100.0
            ));
            rows.push(row);
        }
        println!("== {} ==", model.name().to_uppercase());
        print_table(
            &[
                "model/dataset",
                "vanilla",
                "rp",
                "sgcn",
                "qat",
                "degree-quant",
                "gcod",
                "gcod (8-bit)",
                "gcod improv.",
            ],
            &rows,
        );
        println!();
    }
}
