//! A trained model packaged for serving, and the one local inference plan:
//! full-graph logits computed once, every request a row gather.

use crate::error::Result;
use gcod_core::SplitWorkload;
use gcod_graph::Graph;
use gcod_nn::kernels::KernelKind;
use gcod_nn::models::GnnModel;
use gcod_nn::quant::Precision;
use gcod_nn::workload::InferenceWorkload;
use gcod_nn::{NnError, Tensor};
use gcod_platform::{Platform, SimRequest};
use gcod_runtime::sync::Mutex;
use std::sync::Arc;

/// One model the server owns: the trained [`GnnModel`], the (tuned) graph it
/// answers queries on, and the simulation requests the backend router feeds
/// to the platform suite.
///
/// A GCN layer touches every node's neighbourhood, and nothing mutates a
/// registered model or its graph, so the full-graph logits are computed by
/// the first classification and kept: every later request is a row gather
/// out of them, bit-identical to [`GnnModel::forward_rows`].
///
/// The name keys batching compatibility: two requests naming the same served
/// model share the dataset, architecture and precision by construction, so
/// the batcher may answer them with one gather.
#[derive(Debug)]
pub struct ServedModel {
    name: String,
    graph: Graph,
    model: GnnModel,
    baseline: SimRequest,
    gcod_fp32: Option<SimRequest>,
    gcod_int8: Option<SimRequest>,
    /// Full-graph logits of `model` on `graph`, filled by the first
    /// classification. The lock is held across that one pass, so racing
    /// first requests wait for it instead of each running their own.
    logits: Mutex<Option<Arc<Tensor>>>,
}

impl ServedModel {
    /// Packages a trained `model` and its inference `graph` under `name`.
    ///
    /// The baseline (full-workload, fp32) simulation request the router uses
    /// for split-less platforms is derived from the graph and model
    /// configuration; attach GCoD split requests with
    /// [`with_gcod_split`](ServedModel::with_gcod_split) to make the
    /// accelerator platforms eligible too.
    pub fn new(name: impl Into<String>, graph: Graph, model: GnnModel) -> Self {
        let baseline = SimRequest::new(InferenceWorkload::build(
            &graph,
            model.config(),
            Precision::Fp32,
        ));
        Self {
            name: name.into(),
            graph,
            model,
            baseline,
            gcod_fp32: None,
            gcod_int8: None,
            logits: Mutex::new(None),
        }
    }

    /// Attaches the GCoD denser/sparser split with its pruned workloads at
    /// both precisions, making split-aware accelerator platforms eligible
    /// backends for this model.
    #[must_use]
    pub fn with_gcod_split(
        mut self,
        fp32: InferenceWorkload,
        int8: InferenceWorkload,
        split: SplitWorkload,
    ) -> Self {
        self.gcod_fp32 = Some(SimRequest::with_split(fp32, split.clone()));
        self.gcod_int8 = Some(SimRequest::with_split(int8, split));
        self
    }

    /// Selects the SpMM kernel the CPU execution path aggregates with.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.model.set_kernel(kernel);
        self.uncached()
    }

    /// Selects the worker-lane count the CPU execution path runs with
    /// (0 = the global pool's count). Bit-deterministic: every count
    /// produces identical answers.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.model.set_workers(workers);
        self.uncached()
    }

    /// Selects the numeric precision the CPU execution path evaluates with.
    /// Unlike the kernel and worker knobs this DOES change the answers: at
    /// [`Precision::Int8`] / [`Precision::Int16`] the forward pass routes
    /// through the integer compute path, so logits (and occasionally argmax
    /// classifications) shift by the quantization error.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.model.set_precision(precision);
        self.uncached()
    }

    /// Drops any logits computed under the previous execution settings.
    fn uncached(mut self) -> Self {
        self.logits = Mutex::new(None);
        self
    }

    /// The serving key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The graph queries are answered on.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The trained model.
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Rejects node indices outside the served graph — before any work, with
    /// the error the row gather itself would raise.
    pub(crate) fn check_nodes(&self, nodes: &[usize]) -> Result<()> {
        let rows = self.graph.num_nodes();
        match nodes.iter().find(|&&node| node >= rows) {
            Some(node) => Err(NnError::ShapeMismatch {
                context: format!("row index {node} out of bounds for {rows} rows"),
            }
            .into()),
            None => Ok(()),
        }
    }

    /// The full-graph logits: computed by the first call, shared afterwards.
    fn logits(&self) -> Result<Arc<Tensor>> {
        let mut cached = self.logits.lock_unpoisoned();
        if let Some(logits) = cached.as_ref() {
            return Ok(Arc::clone(logits));
        }
        let logits = Arc::new(self.model.forward(&self.graph)?);
        *cached = Some(Arc::clone(&logits));
        Ok(logits)
    }

    /// Logit rows for `nodes` (request order, duplicates allowed) — the one
    /// place the serving crate runs a full-graph forward pass.
    pub(crate) fn forward_rows(&self, nodes: &[usize]) -> Result<Tensor> {
        self.check_nodes(nodes)?;
        Ok(self.logits()?.gather_rows(nodes)?)
    }

    /// Whether a GCoD split is attached (accelerator backends eligible).
    pub fn has_split(&self) -> bool {
        self.gcod_fp32.is_some()
    }

    /// The simulation request `platform` should consume for this model:
    /// split-aware platforms get the split request matching their native
    /// precision (`None` when no split is attached — the platform is not an
    /// eligible backend), every other platform gets the baseline request.
    pub fn request_for(&self, platform: &dyn Platform) -> Option<&SimRequest> {
        if platform.requires_split() {
            match platform.native_precision() {
                Some(Precision::Int8) => self.gcod_int8.as_ref(),
                _ => self.gcod_fp32.as_ref(),
            }
        } else {
            Some(&self.baseline)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_baselines::suite;
    use gcod_graph::{DatasetProfile, GraphGenerator};
    use gcod_nn::models::ModelConfig;

    fn served() -> ServedModel {
        let graph = GraphGenerator::new(3)
            .generate(&DatasetProfile::custom("sm", 60, 200, 8, 3))
            .unwrap();
        let model = GnnModel::new(ModelConfig::gcn(&graph), 0).unwrap();
        ServedModel::new("sm-gcn", graph, model)
    }

    #[test]
    fn baseline_request_matches_the_model_precision() {
        let m = served();
        assert_eq!(m.name(), "sm-gcn");
        assert!(!m.has_split());
        assert_eq!(m.baseline.precision(), Precision::Fp32);
        assert_eq!(m.baseline.workload.dataset, "sm");
    }

    #[test]
    fn split_less_models_make_accelerators_ineligible() {
        let m = served();
        for platform in suite::all_platforms() {
            let request = m.request_for(platform.as_ref());
            if platform.requires_split() {
                assert!(request.is_none(), "{}", platform.name());
            } else {
                assert!(request.unwrap().split.is_none(), "{}", platform.name());
            }
        }
    }

    #[test]
    fn builders_set_kernel_workers_and_precision() {
        let m = served()
            .with_kernel(KernelKind::ParallelCsr)
            .with_workers(2)
            .with_precision(Precision::Int8);
        assert_eq!(m.model().kernel(), KernelKind::ParallelCsr);
        assert_eq!(m.model().workers(), 2);
        assert_eq!(m.model().precision(), Precision::Int8);
    }

    #[test]
    fn logits_are_computed_once_and_gathered_afterwards() {
        let m = served();
        assert!(m.logits.lock_unpoisoned().is_none(), "nothing runs early");
        let nodes = [5, 0, 5, 59];
        let first = m.forward_rows(&nodes).unwrap();
        let filled = m.logits().unwrap();
        let second = m.forward_rows(&nodes).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, m.model().forward_rows(m.graph(), &nodes).unwrap());
        assert!(
            Arc::ptr_eq(&filled, &m.logits().unwrap()),
            "the second answer must gather from the first pass's tensor"
        );
    }

    #[test]
    fn changing_precision_drops_the_cached_logits() {
        let m = served();
        let nodes = [3, 17, 3];
        let fp32 = m.forward_rows(&nodes).unwrap();
        let explicit =
            gcod_nn::quant::QuantizedModel::from_model(m.model(), gcod_graph::QuantWidth::I8)
                .forward(m.graph())
                .unwrap()
                .gather_rows(&nodes)
                .unwrap();
        let int8 = m.with_precision(Precision::Int8);
        assert!(int8.logits.lock_unpoisoned().is_none());
        let answer = int8.forward_rows(&nodes).unwrap();
        assert_eq!(answer, explicit, "int8 answers come from the integer pass");
        assert_ne!(answer, fp32, "not from the stale fp32 rows");
    }

    #[test]
    fn racing_first_requests_all_get_the_reference_bits() {
        let reference = served();
        let nodes = vec![1, 30, 59, 1];
        let expected = reference
            .model()
            .forward_rows(reference.graph(), &nodes)
            .unwrap();
        let server = crate::Server::new().register(served());
        let request = crate::ServeRequest::classify("sm-gcn", nodes);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        server.serve_one(&request).unwrap()
                    })
                })
                .collect();
            for racer in racers {
                let response = racer.join().unwrap();
                assert_eq!(response.as_classification().unwrap().logits, expected);
            }
        });
    }

    #[test]
    fn quantized_serving_runs_the_integer_path() {
        let fp32 = served();
        let int8 = served().with_precision(Precision::Int8);
        let graph = fp32.graph().clone();
        let fp32_logits = fp32.model().forward(&graph).unwrap();
        let int8_logits = int8.model().forward(&graph).unwrap();
        assert_ne!(
            fp32_logits, int8_logits,
            "int8 serving must run the quantized path, not fp32"
        );
        // Bit-equal to the explicit quantized runner over the same weights.
        let explicit =
            gcod_nn::quant::QuantizedModel::from_model(fp32.model(), gcod_graph::QuantWidth::I8)
                .forward(&graph)
                .unwrap();
        assert_eq!(int8_logits, explicit);
    }
}
