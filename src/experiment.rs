//! The staged [`Experiment`] builder: one owner for the
//! generate → train → layout → polarize → split → workload plumbing.
//!
//! Every evaluation in this repository used to re-stitch the same sequence
//! by hand: generate a replica graph, run the GCoD pipeline (or just its
//! structural half), extract the denser/sparser split, build inference
//! workloads and feed them to the accelerator and baseline platform models.
//! [`Experiment`] owns that plumbing once and exposes each intermediate:
//!
//! * [`Experiment::generate`] — the replica [`Graph`] (stage 1),
//! * [`Experiment::tune`] — the structural half only (layout →
//!   polarize → structural sparsification → split), no GCN training; this is
//!   what the benchmark harness runs on dataset replicas,
//! * [`Experiment::train`] — the full three-step GCoD training pipeline,
//!   returning the [`GcodResult`] with accuracies and training cost,
//! * [`Experiment::run`] — training plus the platform comparison: every
//!   baseline and both GCoD accelerator variants simulated on the matching
//!   requests,
//! * [`Experiment::serve`] — training packaged for the `gcod-serve`
//!   front-end: a [`ServedModel`](gcod_serve::ServedModel) carrying the
//!   trained model, tuned graph and the split-aware simulation requests the
//!   backend router scores.
//!
//! ```no_run
//! use gcod::prelude::*;
//!
//! # fn main() -> gcod::Result<()> {
//! let report = Experiment::on(DatasetProfile::cora())
//!     .scale(0.08)
//!     .model(ModelKind::Gcn)
//!     .gcod(GcodConfig::default())
//!     .seed(7)
//!     .run()?;
//! println!(
//!     "GCoD accuracy {:.1}%, {:.1}x over PyG-CPU",
//!     report.result.gcod_accuracy * 100.0,
//!     report.speedup_over_cpu("gcod").unwrap()
//! );
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, Result};
use gcod_baselines::suite;
use gcod_core::{
    structural_sparsify, GcodConfig, GcodPipeline, GcodResult, PolarizeReport, Polarizer,
    SplitWorkload, StructuralReport, SubgraphLayout,
};
use gcod_graph::{CsrMatrix, DatasetProfile, Graph, GraphGenerator};
use gcod_nn::kernels::KernelKind;
use gcod_nn::models::{ModelConfig, ModelKind};
use gcod_nn::quant::Precision;
use gcod_nn::workload::InferenceWorkload;
use gcod_platform::report::PerfReport;
use gcod_platform::SimRequest;

/// How the dataset profile is scaled down to a trainable replica.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScaleSpec {
    /// Multiply the profile by a fixed factor.
    Factor(f64),
    /// Scale down to roughly this many nodes.
    TargetNodes(usize),
}

/// A staged description of one GCoD experiment on one dataset.
///
/// Built fluently from a [`DatasetProfile`]; every stage method
/// ([`generate`](Experiment::generate), [`tune`](Experiment::tune),
/// [`train`](Experiment::train), [`run`](Experiment::run)) is a pure
/// function of the builder state, so the stages compose: calling
/// [`generate`](Experiment::generate) first and [`train`](Experiment::train)
/// later operates on the identical (deterministically regenerated) graph.
#[derive(Debug, Clone)]
pub struct Experiment {
    profile: DatasetProfile,
    scale: Option<ScaleSpec>,
    model: ModelKind,
    config: GcodConfig,
    seed: u64,
}

impl Experiment {
    /// Starts an experiment on `profile` with default settings: no scaling,
    /// a GCN model, the default [`GcodConfig`] and seed 0.
    pub fn on(profile: DatasetProfile) -> Self {
        Self {
            profile,
            scale: None,
            model: ModelKind::Gcn,
            config: GcodConfig::default(),
            seed: 0,
        }
    }

    /// Starts an experiment on the named paper dataset.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownDataset`] (listing the valid names) when
    /// `name` is not one of the paper's six datasets.
    pub fn on_dataset(name: &str) -> Result<Self> {
        Ok(Self::on(DatasetProfile::by_name(name)?))
    }

    /// Scales the dataset profile by `factor` before generating the replica.
    pub fn scale(mut self, factor: f64) -> Self {
        self.scale = Some(ScaleSpec::Factor(factor));
        self
    }

    /// Scales the dataset profile down to roughly `target` nodes (profiles
    /// already below the target are left unchanged).
    pub fn scale_to_nodes(mut self, target: usize) -> Self {
        self.scale = Some(ScaleSpec::TargetNodes(target));
        self
    }

    /// Selects the GNN model trained by the pipeline (default:
    /// [`ModelKind::Gcn`]).
    pub fn model(mut self, kind: ModelKind) -> Self {
        self.model = kind;
        self
    }

    /// Sets the GCoD algorithm configuration (default:
    /// [`GcodConfig::default`]).
    ///
    /// Overwrites any kernel selected earlier via
    /// [`kernel`](Experiment::kernel) with `config.kernel`, so call
    /// `.gcod(..)` before `.kernel(..)` when combining the two.
    pub fn gcod(mut self, config: GcodConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the SpMM kernel every GCN trained by this experiment
    /// aggregates with (default: [`KernelKind::NaiveCsr`]).
    ///
    /// All kernels are bit-for-bit identical — selection changes training
    /// wall-clock only, never accuracies, splits or the simulated platform
    /// reports (the golden-report tests in `gcod-bench` pin this).
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.config.kernel = kernel;
        self
    }

    /// Selects the worker-lane count every GCN trained by this experiment
    /// runs its parallel kernels with (default: 0 = the global
    /// `gcod_runtime` pool's lane count, i.e. `GCOD_WORKERS` or the
    /// hardware's parallelism).
    ///
    /// Worker count is bit-deterministic: 1, 2 and auto all produce
    /// identical accuracies, splits and platform reports — only training
    /// wall-clock changes. Like [`kernel`](Experiment::kernel), this lives
    /// on the [`GcodConfig`], so call `.gcod(..)` *before* `.workers(..)`
    /// when combining the two.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Selects the numeric precision every GCN trained by this experiment
    /// evaluates with (default: [`Precision::Fp32`]).
    ///
    /// Unlike [`kernel`](Experiment::kernel) and
    /// [`workers`](Experiment::workers) this DOES change numerics: at
    /// [`Precision::Int8`] / [`Precision::Int16`] every forward pass outside
    /// the gradient path (accuracy evaluation, inference) runs the integer
    /// compute path in `gcod_nn::qkernels`, so reported accuracies shift by
    /// the quantization error. Training gradients always stay f32
    /// (post-training quantization). Lives on the [`GcodConfig`], so call
    /// `.gcod(..)` *before* `.precision(..)` when combining the two.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.config.precision = precision;
        self
    }

    /// Sets the seed used for graph generation, layout and training
    /// (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The full-size dataset profile this experiment was built on.
    pub fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    /// The GCoD configuration this experiment runs with.
    pub fn config(&self) -> &GcodConfig {
        &self.config
    }

    /// The (possibly scaled) profile the replica graph is generated from.
    pub fn replica_profile(&self) -> DatasetProfile {
        match self.scale {
            None => self.profile.clone(),
            Some(ScaleSpec::Factor(f)) => self.profile.scaled(f),
            Some(ScaleSpec::TargetNodes(n)) => self.profile.scaled_to_nodes(n),
        }
    }

    /// Stage 1: generates the replica graph.
    ///
    /// # Errors
    ///
    /// Propagates graph-generation errors (e.g. invalid profiles).
    pub fn generate(&self) -> Result<Graph> {
        Ok(GraphGenerator::new(self.seed).generate(&self.replica_profile())?)
    }

    /// Runs the structural half of the GCoD algorithm — layout, sparsify +
    /// polarize, structural sparsification, split extraction — without any
    /// GCN training.
    ///
    /// This is the fast path the benchmark harness uses on dataset replicas
    /// to measure structural outcomes (prune ratio, denser/sparser balance)
    /// that are then projected onto full-size graphs.
    ///
    /// # Errors
    ///
    /// Propagates generation, configuration and partitioning errors.
    pub fn tune(&self) -> Result<StructuralRun> {
        let original = self.generate()?;
        let layout = SubgraphLayout::build(&original, &self.config, self.seed)?;
        let reordered = layout.apply(&original);
        let (tuned, polarize_report) =
            Polarizer::new(self.config.clone()).tune(reordered.adjacency(), &layout)?;
        let polarized_split = SplitWorkload::extract(&tuned, &layout);
        let (adjacency, structural_report) = structural_sparsify(
            &tuned,
            &layout,
            self.config.patch_size,
            self.config.patch_threshold,
        );
        let split = SplitWorkload::extract(&adjacency, &layout);
        Ok(StructuralRun {
            original,
            reordered,
            layout,
            polarize_report,
            polarized_split,
            adjacency,
            structural_report,
            split,
        })
    }

    /// Stage 2: runs the full three-step GCoD training pipeline on the
    /// generated replica.
    ///
    /// # Errors
    ///
    /// Propagates generation, configuration, partitioning and training
    /// errors.
    pub fn train(&self) -> Result<GcodResult> {
        let graph = self.generate()?;
        Ok(GcodPipeline::new(self.config.clone()).run(&graph, self.model, self.seed)?)
    }

    /// Stage 4: trains the full GCoD pipeline and packages the result for
    /// the serving front-end — the trained model, the tuned graph it answers
    /// queries on, and the pruned fp32/int8 workloads plus denser/sparser
    /// split that make the accelerator platforms eligible routing backends.
    ///
    /// The served model is named `"<dataset>-<model>"`; register it on a
    /// [`Server`](gcod_serve::Server) and
    /// [`spawn`](gcod_serve::Server::spawn) to start answering requests.
    ///
    /// Node ids in a request are rows of the served
    /// [`graph()`](gcod_serve::ServedModel::graph): the tuned graph in
    /// layout order, not the graph [`generate`](Experiment::generate)
    /// returns. Node 0 of one is in general another node of the other;
    /// ROADMAP item 18 maps the ids at the serving boundary.
    ///
    /// ```no_run
    /// use gcod::prelude::*;
    ///
    /// # fn main() -> gcod::Result<()> {
    /// let served = Experiment::on_dataset("cora")?.scale(0.05).serve()?;
    /// let handle = Server::new().register(served).spawn();
    /// let ticket = handle.submit(
    ///     ServeRequest::classify("cora-gcn", vec![0, 1]),
    ///     SubmitOptions::default(),
    /// )?;
    /// println!("{:?}", ticket.wait()?);
    /// handle.shutdown();
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates generation, configuration, partitioning and training
    /// errors.
    pub fn serve(&self) -> Result<gcod_serve::ServedModel> {
        let result = self.train()?;
        let model_cfg = ModelConfig::for_kind(self.model, &result.graph);
        let nnz = result.split.total_nnz();
        let fp32 = InferenceWorkload::build_with_adjacency_nnz(
            &result.graph,
            &model_cfg,
            Precision::Fp32,
            nnz,
        );
        let int8 = InferenceWorkload::build_with_adjacency_nnz(
            &result.graph,
            &model_cfg,
            Precision::Int8,
            nnz,
        );
        let name = format!("{}-{}", self.profile.name, self.model.name());
        Ok(
            gcod_serve::ServedModel::new(name, result.graph, result.model).with_gcod_split(
                fp32,
                int8,
                result.split,
            ),
        )
    }

    /// Stage 4, sharded: trains the full GCoD pipeline and launches the
    /// trained model across `shards` worker threads speaking the
    /// `gcod-shard` wire protocol (BNS-style partition + halo exchange),
    /// each owning one partition of the tuned graph.
    ///
    /// The returned [`ShardedModel`](gcod_serve::ShardedModel) is the
    /// drop-in sharded counterpart of [`serve`](Experiment::serve) —
    /// register it with
    /// [`Server::register_sharded`](gcod_serve::Server::register_sharded)
    /// and answers are bit-identical to the single-process path (perf
    /// prediction routes on the baseline workload: no GCoD split is
    /// attached, so the accelerator platforms are not eligible). To run
    /// real worker *processes* instead, launch via
    /// [`ShardedModel::launch`](gcod_serve::ShardedModel::launch) with
    /// [`ShardOptions::with_worker_bin`](gcod_serve::ShardOptions::with_worker_bin)
    /// pointing at the workspace's `shard_worker` binary.
    ///
    /// # Errors
    ///
    /// Propagates generation, configuration, partitioning and training
    /// errors, plus shard-plan rejections (zero shards, more shards than
    /// nodes).
    pub fn serve_sharded(&self, shards: usize) -> Result<gcod_serve::ShardedModel> {
        let result = self.train()?;
        let name = format!("{}-{}", self.profile.name, self.model.name());
        Ok(gcod_serve::ShardedModel::launch(
            name,
            &result.graph,
            &result.model,
            &gcod_serve::ShardOptions::new(shards),
        )?)
    }

    /// Stage 3: the full co-design experiment — training plus the platform
    /// comparison of Fig. 9: the nine baselines simulate the unmodified
    /// replica workload, the GCoD accelerator and its 8-bit variant simulate
    /// the pruned workload with the denser/sparser split.
    ///
    /// # Errors
    ///
    /// Propagates every pipeline error plus platform simulation failures.
    pub fn run(&self) -> Result<ExperimentReport> {
        let graph = self.generate()?;
        let result = GcodPipeline::new(self.config.clone()).run(&graph, self.model, self.seed)?;
        let model_cfg = ModelConfig::for_kind(self.model, &graph);
        let nnz = result.split.total_nnz();
        let requests = SuiteRequests::new(
            InferenceWorkload::build(&graph, &model_cfg, Precision::Fp32),
            InferenceWorkload::build_with_adjacency_nnz(
                &result.graph,
                &model_cfg,
                Precision::Fp32,
                nnz,
            ),
            InferenceWorkload::build_with_adjacency_nnz(
                &result.graph,
                &model_cfg,
                Precision::Int8,
                nnz,
            ),
            result.split.clone(),
        );
        let platforms = requests.simulate_all()?;
        Ok(ExperimentReport {
            graph,
            result,
            requests,
            platforms,
        })
    }
}

/// Output of [`Experiment::tune`]: every intermediate of the structural
/// (no-training) GCoD pass.
#[derive(Debug, Clone)]
pub struct StructuralRun {
    /// The generated replica graph, in its original node order.
    pub original: Graph,
    /// The replica after the split-and-conquer reordering.
    pub reordered: Graph,
    /// The class/subgraph/group layout and its permutation.
    pub layout: SubgraphLayout,
    /// Report of the sparsify + polarize step.
    pub polarize_report: PolarizeReport,
    /// Denser/sparser split of the polarized adjacency (before structural
    /// sparsification).
    pub polarized_split: SplitWorkload,
    /// The final adjacency after structural sparsification.
    pub adjacency: CsrMatrix,
    /// Report of the structural sparsification step.
    pub structural_report: StructuralReport,
    /// Denser/sparser split of the final adjacency.
    pub split: SplitWorkload,
}

impl StructuralRun {
    /// Fraction of the original directed edges retained after sparsify +
    /// polarize + structural sparsification.
    pub fn retained_edge_fraction(&self) -> f64 {
        self.adjacency.nnz() as f64 / self.original.num_edges().max(1) as f64
    }

    /// Fraction of the retained edges that fall in the denser
    /// (block-diagonal) branch.
    pub fn denser_fraction(&self) -> f64 {
        1.0 - self.split.sparser_fraction()
    }
}

/// The three requests one experiment feeds to the platform suite: the
/// unmodified workload for the baselines, and the pruned workload plus GCoD
/// split at both precisions for the accelerator variants.
#[derive(Debug, Clone)]
pub struct SuiteRequests {
    /// Request the (split-less) baseline platforms consume.
    pub baseline: SimRequest,
    /// Split-carrying request for the fp32 GCoD accelerator.
    pub gcod_fp32: SimRequest,
    /// Split-carrying request for the 8-bit GCoD accelerator.
    pub gcod_int8: SimRequest,
}

impl SuiteRequests {
    /// Builds the request triple from the three workloads and the GCoD
    /// split.
    pub fn new(
        baseline: InferenceWorkload,
        gcod_fp32: InferenceWorkload,
        gcod_int8: InferenceWorkload,
        split: SplitWorkload,
    ) -> Self {
        Self {
            baseline: SimRequest::new(baseline),
            gcod_fp32: SimRequest::with_split(gcod_fp32, split.clone()),
            gcod_int8: SimRequest::with_split(gcod_int8, split),
        }
    }

    /// The request platform `p` should consume: split-requiring platforms
    /// get the split request matching their native precision, everything
    /// else gets the baseline request.
    pub fn request_for(&self, platform: &dyn gcod_platform::Platform) -> &SimRequest {
        if platform.requires_split() {
            match platform.native_precision() {
                Some(Precision::Int8) => &self.gcod_int8,
                _ => &self.gcod_fp32,
            }
        } else {
            &self.baseline
        }
    }

    /// Simulates every platform of [`suite::all_platforms`] on its matching
    /// request, in suite order (nine baselines, then GCoD, then GCoD-8bit).
    ///
    /// # Errors
    ///
    /// Propagates platform simulation failures.
    pub fn simulate_all(&self) -> Result<Vec<PerfReport>> {
        suite::all_platforms()
            .iter()
            .map(|p| {
                p.simulate(self.request_for(p.as_ref()))
                    .map_err(Error::from)
            })
            .collect()
    }
}

/// Output of [`Experiment::run`]: the replica, the training result and the
/// per-platform performance reports.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The generated replica graph (original node order).
    pub graph: Graph,
    /// The full GCoD training result (tuned graph, layout, split, model,
    /// accuracies, step reports, training cost).
    pub result: GcodResult,
    /// The simulation requests the platforms consumed.
    pub requests: SuiteRequests,
    /// One performance report per platform, in suite order.
    pub platforms: Vec<PerfReport>,
}

impl ExperimentReport {
    /// The report of the named platform, if it is part of the suite.
    pub fn platform(&self, name: &str) -> Option<&PerfReport> {
        self.platforms.iter().find(|r| r.platform == name)
    }

    /// Speedup of platform `name` over the PyG-CPU reference the paper
    /// normalizes to.
    pub fn speedup_over_cpu(&self, name: &str) -> Option<f64> {
        let reference = self.platform(suite::reference_platform().name.as_str())?;
        Some(self.platform(name)?.speedup_over(reference.latency_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> GcodConfig {
        GcodConfig {
            num_classes: 2,
            num_subgraphs: 6,
            num_groups: 2,
            pretrain_epochs: 6,
            retrain_epochs: 4,
            prune_ratio: 0.1,
            patch_size: 16,
            patch_threshold: 6,
            ..GcodConfig::default()
        }
    }

    fn tiny() -> Experiment {
        Experiment::on(DatasetProfile::custom("exp", 160, 550, 12, 4))
            .gcod(fast_config())
            .seed(5)
    }

    #[test]
    fn on_dataset_rejects_unknown_names() {
        let err = Experiment::on_dataset("imagenet").unwrap_err();
        assert!(matches!(err, Error::UnknownDataset { .. }));
        assert!(Experiment::on_dataset("Cora").is_ok());
    }

    #[test]
    fn generate_is_deterministic_across_calls() {
        let exp = tiny();
        let a = exp.generate().unwrap();
        let b = exp.generate().unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn scale_to_nodes_bounds_the_replica() {
        let exp = Experiment::on(DatasetProfile::pubmed()).scale_to_nodes(500);
        assert!(exp.replica_profile().nodes <= 550);
        let unscaled = Experiment::on(DatasetProfile::custom("s", 100, 300, 8, 2));
        assert_eq!(unscaled.replica_profile().nodes, 100);
    }

    #[test]
    fn tune_exposes_consistent_intermediates() {
        let run = tiny().tune().unwrap();
        assert_eq!(run.original.num_nodes(), run.reordered.num_nodes());
        assert_eq!(run.split.total_nnz(), run.adjacency.nnz());
        assert!(run.retained_edge_fraction() > 0.5 && run.retained_edge_fraction() <= 1.0);
        assert!(run.denser_fraction() > 0.0 && run.denser_fraction() <= 1.0);
        // Structural step starts from the polarize output.
        assert_eq!(
            run.structural_report.nnz_before,
            run.polarize_report.nnz_after
        );
        assert_eq!(
            run.polarized_split.total_nnz(),
            run.polarize_report.nnz_after
        );
    }

    #[test]
    fn kernel_stage_selects_the_training_kernel() {
        let exp = tiny().kernel(KernelKind::ParallelCsr);
        assert_eq!(exp.config().kernel, KernelKind::ParallelCsr);
        // .gcod(..) resets the kernel along with the rest of the config.
        let exp = tiny()
            .kernel(KernelKind::TiledCsr)
            .gcod(fast_config())
            .kernel(KernelKind::DegreeBinned);
        assert_eq!(exp.config().kernel, KernelKind::DegreeBinned);
    }

    #[test]
    fn precision_stage_selects_the_evaluation_precision() {
        let exp = tiny().precision(Precision::Int8);
        assert_eq!(exp.config().precision, Precision::Int8);
        // .gcod(..) resets the precision along with the rest of the config.
        let exp = tiny().precision(Precision::Int16).gcod(fast_config());
        assert_eq!(exp.config().precision, Precision::Fp32);
    }

    #[test]
    fn workers_stage_selects_the_training_worker_count() {
        let exp = tiny().workers(3);
        assert_eq!(exp.config().workers, 3);
        // .gcod(..) resets the worker count along with the rest of the config.
        let exp = tiny().workers(4).gcod(fast_config());
        assert_eq!(exp.config().workers, 0);
    }

    #[test]
    fn worker_count_never_changes_training_outcomes() {
        let base = tiny().kernel(KernelKind::ParallelCsr);
        let one = base.clone().workers(1).train().unwrap();
        let two = base.clone().workers(2).train().unwrap();
        let auto = base.workers(0).train().unwrap();
        assert_eq!(one.gcod_accuracy, two.gcod_accuracy);
        assert_eq!(one.gcod_accuracy, auto.gcod_accuracy);
        assert_eq!(one.baseline_accuracy, two.baseline_accuracy);
        assert_eq!(one.split.total_nnz(), auto.split.total_nnz());
    }

    #[test]
    fn serve_packages_the_trained_pipeline() {
        let exp = tiny();
        let served = exp.serve().unwrap();
        assert_eq!(served.name(), "exp-gcn");
        assert!(served.has_split());
        // The served graph/model are the tuned pipeline outputs.
        let result = exp.train().unwrap();
        assert_eq!(served.graph().num_edges(), result.graph.num_edges());
        let logits = served.model().forward(served.graph()).unwrap();
        let expected = result.model.forward(&result.graph).unwrap();
        assert_eq!(logits, expected, "served model must be the trained model");
        // Served models route through the serving stack end to end.
        let server = gcod_serve::Server::new().register(served);
        let response = server
            .serve_one(&gcod_serve::ServeRequest::predict_perf("exp-gcn"))
            .unwrap();
        let perf = response.as_perf().unwrap();
        assert!(perf.candidates >= 11, "split makes accelerators eligible");
    }

    #[test]
    fn run_reports_all_platforms_with_the_gcod_split() {
        let report = tiny().run().unwrap();
        assert_eq!(report.platforms.len(), suite::all_platforms().len());
        assert!(report.platform("gcod").is_some());
        assert!(report.platform("gcod-8bit").is_some());
        assert!(report.speedup_over_cpu("gcod").unwrap() > 1.0);
        assert_eq!(
            report
                .requests
                .gcod_fp32
                .split
                .as_ref()
                .unwrap()
                .total_nnz(),
            report.result.split.total_nnz()
        );
        // The int8 request carries the int8 workload.
        assert_eq!(report.requests.gcod_int8.precision(), Precision::Int8);
    }
}
