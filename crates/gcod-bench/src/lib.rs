//! Shared harness for regenerating every table and figure of the GCoD
//! evaluation.
//!
//! The harness separates the two halves of each experiment the same way the
//! paper does:
//!
//! * the **algorithm half** runs the actual GCoD split-and-conquer code on a
//!   scaled-down replica of each dataset (the full Reddit graph has 114 M
//!   edges — pointless to materialise for a workload model) through
//!   [`gcod::Experiment::tune`] and measures the *structural* outcomes:
//!   achieved prune ratio, denser/sparser split, per-class workload
//!   distribution,
//! * the **hardware half** feeds the full-size dataset statistics
//!   (Table III) plus those measured structural fractions into the platform
//!   models — all of which implement the shared [`Platform`] trait —
//!   producing latency /
//!   bandwidth / traffic / energy reports that the figure generators print.
//!
//! Every binary in `src/bin/` is one table or figure. Wall-clock numbers,
//! open-loop serving included, are recorded in one place only, the frozen
//! benchmark (`benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gcod::{Experiment, SuiteRequests};
use gcod_accel::config::AcceleratorConfig;
use gcod_accel::simulator::GcodAccelerator;
use gcod_baselines::suite;
use gcod_core::workload::DenseBlock;
use gcod_core::{GcodConfig, SplitWorkload};
use gcod_graph::{CscMatrix, DatasetProfile};
use gcod_nn::models::{ModelConfig, ModelKind};
use gcod_nn::quant::Precision;
use gcod_nn::workload::InferenceWorkload;
use gcod_platform::report::PerfReport;
use gcod_platform::{Platform, SimRequest};

/// Node budget of the algorithm-side replicas: keeps the split-and-conquer
/// runs fast while exercising the full code paths.
pub(crate) const REPLICA_TARGET_NODES: usize = 1_500;

/// One dataset of the evaluation: its Table III profile plus the input
/// feature density of the real data (bag-of-words features are sparse for
/// the citation graphs and NELL, dense for ogbn-arxiv and Reddit).
#[derive(Debug, Clone)]
pub struct DatasetCase {
    /// Full-size dataset profile.
    pub profile: DatasetProfile,
    /// Input feature density of the real dataset.
    pub feature_density: f64,
}

impl DatasetCase {
    /// The evaluation dataset with the given name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not one of the paper's six datasets.
    pub fn by_name(name: &str) -> Self {
        let profile = DatasetProfile::by_name(name).unwrap_or_else(|e| panic!("{e}"));
        let feature_density = match profile.name.as_str() {
            "cora" => 0.0127,
            "citeseer" => 0.0085,
            "pubmed" => 0.10,
            "nell" => 0.0011,
            "ogbn-arxiv" => 1.0,
            "reddit" => 1.0,
            _ => 1.0,
        };
        Self {
            profile,
            feature_density,
        }
    }

    /// The three citation graphs of Fig. 9.
    pub fn citation_graphs() -> Vec<Self> {
        ["cora", "citeseer", "pubmed"]
            .iter()
            .map(|n| Self::by_name(n))
            .collect()
    }

    /// The five datasets of Table VI / Fig. 11 / Fig. 12.
    pub fn table6_datasets() -> Vec<Self> {
        ["cora", "citeseer", "pubmed", "nell", "reddit"]
            .iter()
            .map(|n| Self::by_name(n))
            .collect()
    }

    /// Directed edge count of the full-size dataset.
    pub fn directed_edges(&self) -> usize {
        self.profile.edges * 2
    }

    /// The model configuration the paper uses for `kind` on this dataset
    /// (Table IV hidden sizes depend on the dataset scale).
    pub fn model_config(&self, kind: ModelKind) -> ModelConfig {
        let hidden = if self.profile.nodes > 20_000 { 64 } else { 16 };
        let mut cfg = ModelConfig {
            kind,
            input_dim: self.profile.feature_dim,
            hidden_dim: hidden,
            output_dim: self.profile.classes,
            num_layers: 2,
            heads: 1,
            eps: 0.0,
            residual: false,
        };
        match kind {
            ModelKind::Gin => cfg.num_layers = 3,
            ModelKind::Gat => {
                cfg.hidden_dim = 8;
                cfg.heads = 8;
            }
            ModelKind::ResGcn => {
                cfg.hidden_dim = 128;
                cfg.num_layers = 28;
                cfg.residual = true;
            }
            ModelKind::Gcn | ModelKind::GraphSage => {}
        }
        cfg
    }

    /// Scale factor for the algorithm-side replica (the shared
    /// [`DatasetProfile::scale_for_nodes`] heuristic at
    /// `REPLICA_TARGET_NODES`).
    pub fn replica_scale(&self) -> f64 {
        self.profile.scale_for_nodes(REPLICA_TARGET_NODES)
    }

    /// Full-size inference workload of this dataset for `kind` at
    /// `precision`, built from the Table III statistics.
    pub fn full_workload(&self, kind: ModelKind, precision: Precision) -> InferenceWorkload {
        InferenceWorkload::from_stats(
            &self.profile.name,
            self.profile.nodes,
            self.directed_edges(),
            self.feature_density,
            &self.model_config(kind),
            precision,
        )
    }

    /// Full-size workload with a pruned adjacency non-zero count (what the
    /// GCoD accelerator runs after the algorithm removed edges).
    pub(crate) fn pruned_workload(
        &self,
        kind: ModelKind,
        precision: Precision,
        adjacency_nnz: usize,
    ) -> InferenceWorkload {
        InferenceWorkload::from_stats(
            &self.profile.name,
            self.profile.nodes,
            adjacency_nnz,
            self.feature_density,
            &self.model_config(kind),
            precision,
        )
    }

    /// Baseline simulation request: the unmodified full-size workload.
    pub fn baseline_request(&self, kind: ModelKind) -> SimRequest {
        SimRequest::new(self.full_workload(kind, Precision::Fp32))
    }

    /// GCoD simulation request: the replica-measured outcome projected onto
    /// the full-size graph, paired with the matching pruned workload.
    pub fn gcod_request(
        &self,
        kind: ModelKind,
        precision: Precision,
        outcome: &AlgorithmOutcome,
    ) -> SimRequest {
        let split = project_split(self, outcome);
        let workload = self.pruned_workload(kind, precision, split.total_nnz());
        SimRequest::with_split(workload, split)
    }
}

/// Structural outcome of running the GCoD algorithm on a dataset replica,
/// expressed as fractions so it can be projected onto the full-size graph.
#[derive(Debug, Clone)]
pub struct AlgorithmOutcome {
    /// Fraction of directed edges retained after sparsify + polarize +
    /// structural sparsification.
    pub retained_edge_fraction: f64,
    /// Fraction of the retained edges that fall in the denser (block
    /// diagonal) branch.
    pub denser_fraction: f64,
    /// Distribution of the denser workload over the degree classes
    /// (fractions summing to 1).
    pub class_fractions: Vec<f64>,
    /// Number of subgraph blocks per class in the replica layout.
    pub blocks_per_class: Vec<usize>,
    /// The GCoD configuration used.
    pub config: GcodConfig,
}

/// Runs the structural part of the GCoD algorithm (layout, polarization,
/// structural sparsification — no GCN retraining) on a scaled replica of the
/// dataset via [`gcod::Experiment::tune`] and summarises the outcome.
///
/// # Panics
///
/// Panics if graph generation or the pipeline steps fail — the harness treats
/// that as a fatal benchmark-setup error.
pub fn run_algorithm(case: &DatasetCase, config: &GcodConfig, seed: u64) -> AlgorithmOutcome {
    let run = Experiment::on(case.profile.clone())
        .scale_to_nodes(REPLICA_TARGET_NODES)
        .gcod(config.clone())
        .seed(seed)
        .tune()
        .expect("structural GCoD pass cannot fail for known profiles");
    summarize_structural_run(&run, config)
}

/// Summarises a [`gcod::StructuralRun`] (from [`gcod::Experiment::tune`] at
/// any replica scale) into the projection fractions of an
/// [`AlgorithmOutcome`]. The golden-report regression tests use this at
/// tiny scale; [`run_algorithm`] uses it at `REPLICA_TARGET_NODES`.
pub fn summarize_structural_run(
    run: &gcod::StructuralRun,
    config: &GcodConfig,
) -> AlgorithmOutcome {
    let per_class = run.split.nnz_per_class();
    let denser_total: usize = per_class.iter().sum::<usize>().max(1);
    let class_fractions: Vec<f64> = per_class
        .iter()
        .map(|&n| n as f64 / denser_total as f64)
        .collect();
    let blocks_per_class = (0..run.split.num_classes)
        .map(|c| run.split.blocks_of_class(c).len())
        .collect();
    AlgorithmOutcome {
        retained_edge_fraction: run.retained_edge_fraction(),
        denser_fraction: run.denser_fraction(),
        class_fractions,
        blocks_per_class,
        config: config.clone(),
    }
}

/// Projects a replica-measured [`AlgorithmOutcome`] onto the full-size
/// dataset, producing the [`SplitWorkload`] the accelerator model consumes.
pub fn project_split(case: &DatasetCase, outcome: &AlgorithmOutcome) -> SplitWorkload {
    let nodes = case.profile.nodes;
    let retained_nnz =
        (case.directed_edges() as f64 * outcome.retained_edge_fraction).round() as usize;
    let denser_nnz = (retained_nnz as f64 * outcome.denser_fraction).round() as usize;
    let sparser_nnz = retained_nnz - denser_nnz;

    let num_classes = outcome.class_fractions.len().max(1);
    let mut blocks = Vec::new();
    let mut cursor = 0usize;
    for (class, &fraction) in outcome.class_fractions.iter().enumerate() {
        let class_nnz = (denser_nnz as f64 * fraction) as usize;
        let class_blocks = outcome
            .blocks_per_class
            .get(class)
            .copied()
            .unwrap_or(1)
            .max(1);
        let class_nodes = nodes / num_classes;
        for b in 0..class_blocks {
            let len = (class_nodes / class_blocks).max(1);
            blocks.push(DenseBlock {
                class,
                group: b % outcome.config.num_groups.max(1),
                start: cursor,
                len,
                nnz: class_nnz / class_blocks,
            });
            cursor += len;
        }
    }
    SplitWorkload {
        blocks,
        sparser: CscMatrix::zeros(nodes, nodes),
        denser_nnz,
        sparser_nnz,
        num_classes,
    }
}

/// A single speedup-table row: platform name plus its report.
#[derive(Debug, Clone)]
pub struct PlatformResult {
    /// Platform name.
    pub platform: String,
    /// The simulation report.
    pub report: PerfReport,
    /// Speedup relative to the PyG-CPU anchor.
    pub speedup_over_cpu: f64,
}

/// Simulates every platform of Fig. 9/10 (nine baselines + GCoD + GCoD 8-bit)
/// on one dataset × model pair and returns the normalized speedups.
pub fn simulate_all_platforms(
    case: &DatasetCase,
    kind: ModelKind,
    outcome: &AlgorithmOutcome,
) -> Vec<PlatformResult> {
    let split = project_split(case, outcome);
    let pruned_nnz = split.total_nnz();
    let requests = SuiteRequests::new(
        case.full_workload(kind, Precision::Fp32),
        case.pruned_workload(kind, Precision::Fp32, pruned_nnz),
        case.pruned_workload(kind, Precision::Int8, pruned_nnz),
        split,
    );
    let reports = requests
        .simulate_all()
        .expect("suite simulation cannot fail when the split request carries a split");
    let reference_latency = reports
        .iter()
        .find(|r| r.platform == suite::reference_platform().name)
        .expect("reference platform present in the suite")
        .latency_ms;
    reports
        .into_iter()
        .map(|report| PlatformResult {
            platform: report.platform.clone(),
            speedup_over_cpu: report.speedup_over(reference_latency),
            report,
        })
        .collect()
}

/// Simulates the named baseline on `request`.
///
/// # Panics
///
/// Panics when the baseline name is unknown (harness-setup error).
pub fn simulate_baseline(name: &str, request: &SimRequest) -> PerfReport {
    suite::by_name(name)
        .unwrap_or_else(|| panic!("unknown baseline platform {name}"))
        .simulate(request)
        .expect("baseline platforms accept any request")
}

/// Simulates a GCoD accelerator configuration on `request` (which must carry
/// a split).
///
/// # Panics
///
/// Panics when `request` carries no GCoD split (harness-setup error).
pub fn simulate_accelerator(config: AcceleratorConfig, request: &SimRequest) -> PerfReport {
    GcodAccelerator::new(config)
        .simulate(request)
        .expect("accelerator requests must carry a GCoD split")
}

/// One speedup table (Fig. 9/10 style): per-dataset rows of normalized
/// speedups across every platform.
#[derive(Debug, Clone)]
pub struct SpeedupTable {
    /// Column headers: "dataset" followed by the platform names.
    pub headers: Vec<String>,
    /// One formatted row per dataset.
    pub rows: Vec<Vec<String>>,
    /// The raw per-dataset platform results behind the rows.
    pub results: Vec<Vec<PlatformResult>>,
}

/// Runs the algorithm replica and the full platform suite for every dataset
/// in `cases` under `model`, returning the formatted speedup table the
/// Fig. 9/10 binaries print.
pub fn speedup_table(cases: &[DatasetCase], model: ModelKind, config: &GcodConfig) -> SpeedupTable {
    let mut headers = vec!["dataset".to_string()];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for case in cases {
        let outcome = run_algorithm(case, config, 0);
        let platform_results = simulate_all_platforms(case, model, &outcome);
        if headers.len() == 1 {
            headers.extend(platform_results.iter().map(|r| r.platform.clone()));
        }
        let mut row = vec![case.profile.name.clone()];
        row.extend(
            platform_results
                .iter()
                .map(|r| fmt_speedup(r.speedup_over_cpu)),
        );
        rows.push(row);
        results.push(platform_results);
    }
    SpeedupTable {
        headers,
        rows,
        results,
    }
}

/// Fast GCoD configuration used by the harness binaries (the algorithm side
/// runs on replicas, so small iteration counts suffice).
pub fn harness_gcod_config() -> GcodConfig {
    GcodConfig {
        num_classes: 2,
        num_subgraphs: 8,
        num_groups: 2,
        prune_ratio: 0.10,
        polarization_weight: 1.0,
        tune_iterations: 2,
        patch_size: 32,
        patch_threshold: 12,
        pretrain_epochs: 10,
        retrain_epochs: 5,
        early_bird: true,
        ..GcodConfig::default()
    }
}

/// Formats a floating point speedup the way the paper's figures print them.
pub fn fmt_speedup(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Prints a Markdown-style table: a header row plus aligned value rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_cases_cover_the_paper() {
        assert_eq!(DatasetCase::citation_graphs().len(), 3);
        assert_eq!(DatasetCase::table6_datasets().len(), 5);
        let cora = DatasetCase::by_name("cora");
        assert!(cora.feature_density < 0.05);
        assert_eq!(cora.profile.nodes, 2708);
    }

    #[test]
    fn replica_scale_keeps_replicas_small() {
        for name in ["nell", "reddit", "ogbn-arxiv"] {
            let case = DatasetCase::by_name(name);
            let scaled = case.profile.scaled(case.replica_scale());
            assert!(
                scaled.nodes <= 2_000,
                "{} replica too big",
                case.profile.name
            );
        }
        // Cora is already small: scale 1.0 leaves it untouched.
        assert!((DatasetCase::by_name("cora").replica_scale() - 0.554).abs() < 0.01);
    }

    #[test]
    fn algorithm_outcome_is_sensible() {
        let case = DatasetCase::by_name("cora");
        let outcome = run_algorithm(&case, &harness_gcod_config(), 0);
        assert!(outcome.retained_edge_fraction > 0.6);
        assert!(outcome.retained_edge_fraction <= 1.0);
        assert!(outcome.denser_fraction > 0.3);
        let sum: f64 = outcome.class_fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn projected_split_matches_full_scale() {
        let case = DatasetCase::by_name("pubmed");
        let outcome = run_algorithm(&case, &harness_gcod_config(), 0);
        let split = project_split(&case, &outcome);
        let expected = (case.directed_edges() as f64 * outcome.retained_edge_fraction) as usize;
        let got = split.total_nnz();
        assert!(
            (got as f64 - expected as f64).abs() / (expected as f64) < 0.05,
            "projected nnz {got} vs expected {expected}"
        );
        assert_eq!(split.num_classes, 2);
    }

    #[test]
    fn gcod_beats_the_strongest_baseline() {
        // The headline claim: GCoD is faster than AWB-GCN (on average 2.5x)
        // and HyGCN (7.8x). Check the ordering on Cora/GCN.
        let case = DatasetCase::by_name("cora");
        let outcome = run_algorithm(&case, &harness_gcod_config(), 0);
        let results = simulate_all_platforms(&case, ModelKind::Gcn, &outcome);
        let latency = |name: &str| {
            results
                .iter()
                .find(|r| r.platform == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .report
                .latency_ms
        };
        assert!(latency("gcod") < latency("awb-gcn"));
        assert!(latency("gcod") < latency("hygcn"));
        assert!(latency("gcod-8bit") <= latency("gcod"));
        assert!(latency("gcod") < latency("pyg-gpu"));
        assert!(latency("pyg-gpu") < latency("pyg-cpu"));
    }

    #[test]
    fn request_helpers_route_the_split() {
        let case = DatasetCase::by_name("cora");
        let outcome = run_algorithm(&case, &harness_gcod_config(), 0);
        let baseline = case.baseline_request(ModelKind::Gcn);
        assert!(baseline.split.is_none());
        let gcod_req = case.gcod_request(ModelKind::Gcn, Precision::Int8, &outcome);
        assert_eq!(gcod_req.precision(), Precision::Int8);
        let split = gcod_req.split.as_ref().expect("split attached");
        assert_eq!(split.total_nnz(), gcod_req.workload.layers[0].adjacency_nnz);
    }

    #[test]
    fn speedup_table_covers_all_platforms_per_dataset() {
        let cases = vec![DatasetCase::by_name("cora")];
        let table = speedup_table(&cases, ModelKind::Gcn, &harness_gcod_config());
        assert_eq!(table.headers.len(), 12); // dataset + 11 platforms
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].len(), table.headers.len());
        assert_eq!(table.results[0].len(), 11);
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(15286.4), "15286");
        assert_eq!(fmt_speedup(12.34), "12.3");
        assert_eq!(fmt_speedup(2.5), "2.50");
    }

    #[test]
    fn model_configs_follow_table4() {
        let case = DatasetCase::by_name("reddit");
        assert_eq!(case.model_config(ModelKind::Gcn).hidden_dim, 64);
        assert_eq!(case.model_config(ModelKind::Gat).heads, 8);
        assert_eq!(case.model_config(ModelKind::ResGcn).num_layers, 28);
        let small = DatasetCase::by_name("cora");
        assert_eq!(small.model_config(ModelKind::Gcn).hidden_dim, 16);
    }
}
