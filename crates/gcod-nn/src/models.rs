//! The GNN model zoo of Table IV.
//!
//! | Model     | Layers | Hidden | Aggregation | Notes            |
//! |-----------|--------|--------|-------------|------------------|
//! | GCN       | 2      | 16/64  | mean (sym.) |                  |
//! | GIN       | 3      | 16/64  | add         |                  |
//! | GraphSAGE | 2      | 16/64  | mean        | sampled variant  |
//! | GAT       | 2      | 8      | attention   | 8 heads          |
//! | ResGCN    | 28     | 128    | mean (sym.) | residual links   |
//!
//! All five share the per-layer template of [`crate::layers`], so a single
//! [`GnnModel`] type parameterised by [`ModelConfig`] covers the zoo. The
//! attention coefficients of GAT are recomputed every forward pass from the
//! current layer inputs and treated as constants during the backward pass
//! (documented simplification — see DESIGN.md).

use crate::kernels::KernelKind;
use crate::layers::{
    graph_conv_backward, graph_conv_forward, residual_applies, Activation, DenseLayer, LayerCache,
    Propagation,
};
use crate::quant::{Precision, QuantizedModel};
use crate::{NnError, Result, Tensor};
use gcod_graph::{CsrMatrix, Graph};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which of the five evaluated architectures a model instance realises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Two-layer GCN (Kipf & Welling).
    Gcn,
    /// Three-layer GIN with sum aggregation.
    Gin,
    /// Two-layer GraphSAGE with mean aggregation.
    GraphSage,
    /// Two-layer GAT with 8 heads.
    Gat,
    /// 28-layer residual GCN.
    ResGcn,
}

impl ModelKind {
    /// Lowercase display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gcn => "gcn",
            ModelKind::Gin => "gin",
            ModelKind::GraphSage => "graphsage",
            ModelKind::Gat => "gat",
            ModelKind::ResGcn => "resgcn",
        }
    }

    /// All five kinds, in the order the paper's figures enumerate them.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::Gcn,
            ModelKind::Gin,
            ModelKind::Gat,
            ModelKind::GraphSage,
            ModelKind::ResGcn,
        ]
    }
}

/// Hyper-parameters of one model instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which architecture.
    pub kind: ModelKind,
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Output dimension (number of classes).
    pub output_dim: usize,
    /// Number of layers.
    pub num_layers: usize,
    /// Attention heads (GAT only; 1 elsewhere).
    pub heads: usize,
    /// GIN epsilon.
    pub eps: f32,
    /// Whether residual connections are added between hidden layers.
    pub residual: bool,
}

impl ModelConfig {
    /// Hidden dimension the paper uses for this dataset size: 16 for the
    /// citation graphs, 64 for NELL/Reddit-scale graphs (Table IV).
    fn paper_hidden_dim(graph: &Graph) -> usize {
        if graph.num_nodes() > 20_000 {
            64
        } else {
            16
        }
    }

    /// Two-layer GCN configuration for `graph`.
    pub fn gcn(graph: &Graph) -> Self {
        Self {
            kind: ModelKind::Gcn,
            input_dim: graph.feature_dim(),
            hidden_dim: Self::paper_hidden_dim(graph),
            output_dim: graph.num_classes(),
            num_layers: 2,
            heads: 1,
            eps: 0.0,
            residual: false,
        }
    }

    /// Three-layer GIN configuration for `graph`.
    pub(crate) fn gin(graph: &Graph) -> Self {
        Self {
            kind: ModelKind::Gin,
            num_layers: 3,
            eps: 0.1,
            ..Self::gcn(graph)
        }
    }

    /// Two-layer GraphSAGE configuration for `graph`.
    pub(crate) fn graphsage(graph: &Graph) -> Self {
        Self {
            kind: ModelKind::GraphSage,
            ..Self::gcn(graph)
        }
    }

    /// Two-layer, 8-head GAT configuration for `graph`.
    pub fn gat(graph: &Graph) -> Self {
        Self {
            kind: ModelKind::Gat,
            hidden_dim: 8,
            heads: 8,
            ..Self::gcn(graph)
        }
    }

    /// 28-layer ResGCN configuration for `graph`.
    pub(crate) fn resgcn(graph: &Graph) -> Self {
        Self {
            kind: ModelKind::ResGcn,
            hidden_dim: 128,
            num_layers: 28,
            residual: true,
            ..Self::gcn(graph)
        }
    }

    /// Configuration of `kind` for `graph`.
    pub fn for_kind(kind: ModelKind, graph: &Graph) -> Self {
        match kind {
            ModelKind::Gcn => Self::gcn(graph),
            ModelKind::Gin => Self::gin(graph),
            ModelKind::GraphSage => Self::graphsage(graph),
            ModelKind::Gat => Self::gat(graph),
            ModelKind::ResGcn => Self::resgcn(graph),
        }
    }

    /// The propagation rule implied by the model kind.
    pub fn propagation(&self) -> Propagation {
        match self.kind {
            ModelKind::Gcn | ModelKind::ResGcn => Propagation::SymmetricNormalized,
            ModelKind::Gin => Propagation::SumWithSelfLoop { eps: self.eps },
            ModelKind::GraphSage => Propagation::MeanNormalized,
            ModelKind::Gat => Propagation::Attention { heads: self.heads },
        }
    }

    /// Effective hidden width including attention heads (GAT concatenates
    /// heads, so the combination workload sees `hidden_dim * heads`).
    pub(crate) fn effective_hidden_dim(&self) -> usize {
        self.hidden_dim * self.heads.max(1)
    }

    /// Per-layer `(in_dim, out_dim)` shapes.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        let hidden = self.effective_hidden_dim();
        let mut dims = Vec::with_capacity(self.num_layers);
        for layer in 0..self.num_layers {
            let in_dim = if layer == 0 { self.input_dim } else { hidden };
            let out_dim = if layer + 1 == self.num_layers {
                self.output_dim
            } else {
                hidden
            };
            dims.push((in_dim, out_dim));
        }
        dims
    }

    fn validate(&self) -> Result<()> {
        if self.num_layers == 0 {
            return Err(NnError::InvalidHyperparameter {
                name: "num_layers",
                reason: "must be at least 1".to_string(),
            });
        }
        if self.input_dim == 0 || self.hidden_dim == 0 || self.output_dim == 0 {
            return Err(NnError::InvalidHyperparameter {
                name: "dims",
                reason: "input, hidden and output dimensions must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// A graph neural network instance: a stack of graph-convolution layers
/// following one propagation rule.
#[derive(Debug, Clone)]
pub struct GnnModel {
    config: ModelConfig,
    layers: Vec<DenseLayer>,
    /// Aggregation kernel used by forward/backward. Not a model
    /// hyper-parameter: every kernel is bit-identical, so this selects
    /// wall-clock behaviour only.
    kernel: KernelKind,
    /// Worker lanes for the parallel kernels (0 = the global pool's count).
    /// Like the kernel, never a hyper-parameter: results are bit-identical
    /// for every count.
    workers: usize,
    /// Inference precision. Unlike the kernel and worker knobs this DOES
    /// change the numerics: a quantized precision routes `forward` /
    /// `forward_rows` through the integer compute path of [`crate::quant`].
    /// Training gradients always stay f32 (post-training quantization).
    precision: Precision,
}

/// Cached activations of a full forward pass (needed for the backward pass).
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Per-layer caches, in execution order.
    pub layers: Vec<LayerCache>,
    /// Final logits.
    pub logits: Tensor,
    /// Per-layer propagation matrices. Feature-independent rules build the
    /// matrix once and share it across layers (one `Arc` clone per layer
    /// instead of a full CSR copy per layer per epoch); feature-dependent
    /// attention stores genuinely distinct matrices.
    pub propagations: Vec<Arc<CsrMatrix>>,
}

impl GnnModel {
    /// Creates a model with Glorot-initialised parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidHyperparameter`] for degenerate
    /// configurations.
    pub fn new(config: ModelConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let dims = config.layer_dims();
        let layers = dims
            .iter()
            .enumerate()
            .map(|(i, &(in_dim, out_dim))| {
                let activation = if i + 1 == dims.len() {
                    Activation::Linear
                } else {
                    Activation::Relu
                };
                DenseLayer::new(
                    in_dim,
                    out_dim,
                    activation,
                    seed.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        Ok(Self {
            config,
            layers,
            kernel: KernelKind::default(),
            workers: 0,
            precision: Precision::Fp32,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The SpMM kernel the forward/backward passes run on.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Selects the SpMM kernel (builder form). Kernel choice never changes
    /// the numerics — every kernel is bit-identical to
    /// [`KernelKind::NaiveCsr`] — only the wall-clock of training and
    /// inference.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the SpMM kernel in place.
    pub fn set_kernel(&mut self, kernel: KernelKind) {
        self.kernel = kernel;
    }

    /// The worker-lane count forward/backward run with (0 = the global
    /// pool's count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Selects the worker-lane count (builder form). Like the kernel choice,
    /// this never changes the numerics — every count is bit-identical — only
    /// the wall-clock of training and inference.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Selects the worker-lane count in place.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// The inference precision (see [`GnnModel::with_precision`]).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Selects the inference precision (builder form). **Unlike the kernel
    /// and worker knobs, this changes the numerics**: a quantized precision
    /// makes [`GnnModel::forward`] / [`GnnModel::forward_rows`] quantize the
    /// weights and run the integer kernels of [`crate::qkernels`]
    /// end to end. Gradients ([`GnnModel::forward_cached`] /
    /// [`GnnModel::backward`]) always stay f32 — this is post-training
    /// quantization, so training converges in f32 and only deployment
    /// inference narrows.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Selects the inference precision in place.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
    }

    /// The architecture kind.
    pub fn kind(&self) -> ModelKind {
        self.config.kind
    }

    /// The dense layers (weights and biases).
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Total number of scalar parameters.
    #[cfg(test)]
    pub(crate) fn num_params(&self) -> usize {
        self.layers.iter().map(DenseLayer::num_params).sum()
    }

    /// Runs inference and returns the logits (`N × classes`).
    ///
    /// This is the lean inference path: activations ping-pong through one
    /// live tensor per layer with in-place bias/activation/residual updates
    /// and no cache bookkeeping. At [`Precision::Fp32`] (the default) it is
    /// bit-identical to `self.forward_cached(graph)?.logits`; at a quantized
    /// precision it quantizes the weights and runs the integer compute path
    /// instead (see [`GnnModel::with_precision`]; hot serving loops should
    /// hold a [`QuantizedModel`] to quantize the weights only once).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ModelGraphMismatch`] when the graph's feature
    /// dimension differs from the configured input dimension.
    pub fn forward(&self, graph: &Graph) -> Result<Tensor> {
        if let Some(width) = self.precision.quant_width() {
            return QuantizedModel::from_model(self, width).forward(graph);
        }
        let kernel = self.kernel.build_with_workers(self.workers);
        forward_layers(
            &self.config,
            graph,
            &self.layers,
            |propagation| propagation,
            |layer, propagation, h| {
                let mut next =
                    graph_conv_forward(layer, propagation, h, kernel.as_ref(), self.workers)?
                        .pre_activation;
                layer.activation.apply_in_place(&mut next);
                Ok(next)
            },
        )
    }

    /// Batched inference for a stack of node queries: one fused forward pass
    /// over the whole graph, with the logit rows of `nodes` (in order,
    /// duplicates allowed) stacked into a `nodes.len() × classes` tensor.
    ///
    /// This is the uncached reference for serving: it pays for a whole
    /// propagation + combination pass on every call, which is what makes it
    /// an independent oracle for `gcod-serve`, whose served models run
    /// [`forward`](GnnModel::forward) once and answer every request with
    /// [`Tensor::gather_rows`]. Because graph convolution computes every
    /// node's logits from the full neighbourhood anyway, the stacked rows
    /// are bit-for-bit identical to running `forward` once per request and
    /// gathering each request's rows — batching never changes a single bit
    /// of any answer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ModelGraphMismatch`] when the graph does not match
    /// the configuration and [`NnError::ShapeMismatch`] when a node index is
    /// out of bounds.
    pub fn forward_rows(&self, graph: &Graph, nodes: &[usize]) -> Result<Tensor> {
        let logits = self.forward(graph)?;
        logits.gather_rows(nodes)
    }

    /// Runs inference keeping the per-layer caches needed for the backward
    /// pass: the same layer loop and layer step as [`GnnModel::forward`],
    /// except that each step's intermediates are kept instead of dropped.
    /// Always f32, whatever the inference precision.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ModelGraphMismatch`] when the graph does not match
    /// the configuration.
    pub fn forward_cached(&self, graph: &Graph) -> Result<ForwardCache> {
        let kernel = self.kernel.build_with_workers(self.workers);
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut propagations = Vec::with_capacity(self.layers.len());
        let logits = forward_layers(
            &self.config,
            graph,
            &self.layers,
            Arc::new,
            |layer, propagation, h| {
                let cache =
                    graph_conv_forward(layer, propagation, h, kernel.as_ref(), self.workers)?;
                let output = layer.activation.apply(&cache.pre_activation);
                layers.push(cache);
                propagations.push(Arc::clone(propagation));
                Ok(output)
            },
        )?;
        Ok(ForwardCache {
            layers,
            logits,
            propagations,
        })
    }

    /// Backward pass: gradients of every layer's weight and bias given the
    /// gradient of the logits. Returned as `(weight_grads, bias_grads)` in
    /// layer order.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layer backward passes.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        grad_logits: &Tensor,
    ) -> Result<(Vec<Tensor>, Vec<Tensor>)> {
        let mut weight_grads = vec![Tensor::zeros(0, 0); self.layers.len()];
        let mut bias_grads = vec![Tensor::zeros(0, 0); self.layers.len()];
        let mut grad = grad_logits.clone();
        let kernel = self.kernel.build_with_workers(self.workers);
        for i in (0..self.layers.len()).rev() {
            let grads = graph_conv_backward(
                &self.layers[i],
                &cache.propagations[i],
                &cache.layers[i],
                &grad,
                kernel.as_ref(),
                self.workers,
            )?;
            weight_grads[i] = grads.weight;
            bias_grads[i] = grads.bias;
            let mut next_grad = grads.input;
            // Residual connections add the output gradient straight through.
            if residual_applies(self.config.residual, i, next_grad.cols(), grad.cols()) {
                next_grad = next_grad.add(&grad)?;
            }
            grad = next_grad;
        }
        Ok((weight_grads, bias_grads))
    }

    /// Applies parameter updates in-place using a visitor so optimisers can
    /// walk `(weight, weight_grad)` and `(bias, bias_grad)` pairs.
    pub(crate) fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        let mut params = Vec::with_capacity(self.layers.len() * 2);
        for layer in &mut self.layers {
            params.push(&mut layer.weight);
            params.push(&mut layer.bias);
        }
        params
    }

    /// Collects gradients in the same order as [`GnnModel::parameters_mut`].
    pub(crate) fn collect_grads(weights: Vec<Tensor>, biases: Vec<Tensor>) -> Vec<Tensor> {
        let mut grads = Vec::with_capacity(weights.len() * 2);
        for (w, b) in weights.into_iter().zip(biases) {
            grads.push(w);
            grads.push(b);
        }
        grads
    }
}

/// The one layer loop behind every full-graph forward pass — lean f32,
/// cached f32 and quantized alike. It owns what the three share: the
/// model/graph check, the input activations, the propagation schedule
/// (feature-independent rules `prepare` one matrix up front and share it
/// across layers; attention re-prepares from the current activations every
/// layer) and the residual rule. `prepare` turns the f32 propagation matrix
/// into whatever form `step` consumes; `step` maps one layer's input
/// activations to its post-activation output.
pub(crate) fn forward_layers<L, P>(
    config: &ModelConfig,
    graph: &Graph,
    layers: &[L],
    prepare: impl Fn(CsrMatrix) -> P,
    mut step: impl FnMut(&L, &P, &Tensor) -> Result<Tensor>,
) -> Result<Tensor> {
    check_graph_for(config, graph)?;
    let rule = config.propagation();
    let mut h = Tensor::from_vec(
        graph.num_nodes(),
        graph.feature_dim(),
        graph.features().to_vec(),
    )
    .expect("graph guarantees feature shape");
    let shared = (!rule.is_feature_dependent()).then(|| prepare(rule.matrix(graph, &h)));
    for (i, layer) in layers.iter().enumerate() {
        let rebuilt;
        let propagation = match &shared {
            Some(p) => p,
            None => {
                rebuilt = prepare(rule.matrix(graph, &h));
                &rebuilt
            }
        };
        let mut next = step(layer, propagation, &h)?;
        if residual_applies(config.residual, i, h.cols(), next.cols()) {
            next.add_assign(&h)?;
        }
        h = next;
    }
    Ok(h)
}

/// Checks that `graph` matches a model configuration.
fn check_graph_for(config: &ModelConfig, graph: &Graph) -> Result<()> {
    if graph.feature_dim() != config.input_dim {
        return Err(NnError::ModelGraphMismatch {
            context: format!(
                "graph feature dim {} != model input dim {}",
                graph.feature_dim(),
                config.input_dim
            ),
        });
    }
    if graph.num_classes() != config.output_dim {
        return Err(NnError::ModelGraphMismatch {
            context: format!(
                "graph classes {} != model output dim {}",
                graph.num_classes(),
                config.output_dim
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn graph() -> Graph {
        GraphGenerator::new(3)
            .generate(&DatasetProfile::custom("m", 60, 150, 12, 4))
            .unwrap()
    }

    #[test]
    fn table4_configurations() {
        let g = graph();
        let gcn = ModelConfig::gcn(&g);
        assert_eq!(gcn.num_layers, 2);
        assert_eq!(gcn.hidden_dim, 16);
        let gin = ModelConfig::gin(&g);
        assert_eq!(gin.num_layers, 3);
        let gat = ModelConfig::gat(&g);
        assert_eq!(gat.heads, 8);
        assert_eq!(gat.hidden_dim, 8);
        assert_eq!(gat.effective_hidden_dim(), 64);
        let res = ModelConfig::resgcn(&g);
        assert_eq!(res.num_layers, 28);
        assert_eq!(res.hidden_dim, 128);
        assert!(res.residual);
    }

    #[test]
    fn layer_dims_chain_correctly() {
        let g = graph();
        let cfg = ModelConfig::gin(&g);
        let dims = cfg.layer_dims();
        assert_eq!(dims.len(), 3);
        assert_eq!(dims[0].0, g.feature_dim());
        assert_eq!(dims[2].1, g.num_classes());
        for w in dims.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn forward_produces_logits_for_all_kinds() {
        let g = graph();
        for kind in ModelKind::all() {
            // ResGCN at 28 layers on a tiny test graph is wasteful; shrink it.
            let mut cfg = ModelConfig::for_kind(kind, &g);
            if kind == ModelKind::ResGcn {
                cfg.num_layers = 4;
                cfg.hidden_dim = 16;
            }
            let model = GnnModel::new(cfg, 0).unwrap();
            let logits = model.forward(&g).unwrap();
            assert_eq!(logits.shape(), (g.num_nodes(), g.num_classes()), "{kind:?}");
            assert!(logits.data().iter().all(|v| v.is_finite()), "{kind:?}");
        }
    }

    #[test]
    fn forward_rejects_mismatched_graph() {
        let g = graph();
        let other = GraphGenerator::new(9)
            .generate(&DatasetProfile::custom("o", 40, 80, 5, 4))
            .unwrap();
        let model = GnnModel::new(ModelConfig::gcn(&g), 0).unwrap();
        assert!(matches!(
            model.forward(&other),
            Err(NnError::ModelGraphMismatch { .. })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        let g = graph();
        let mut cfg = ModelConfig::gcn(&g);
        cfg.num_layers = 0;
        assert!(GnnModel::new(cfg, 0).is_err());
        let mut cfg = ModelConfig::gcn(&g);
        cfg.hidden_dim = 0;
        assert!(GnnModel::new(cfg, 0).is_err());
    }

    #[test]
    fn backward_produces_grads_for_every_layer() {
        let g = graph();
        let model = GnnModel::new(ModelConfig::gcn(&g), 1).unwrap();
        let cache = model.forward_cached(&g).unwrap();
        let grad_logits = Tensor::full(g.num_nodes(), g.num_classes(), 0.01);
        let (wgrads, bgrads) = model.backward(&cache, &grad_logits).unwrap();
        assert_eq!(wgrads.len(), 2);
        assert_eq!(bgrads.len(), 2);
        for (layer, wg) in model.layers().iter().zip(&wgrads) {
            assert_eq!(layer.weight.shape(), wg.shape());
            assert!(wg.norm() > 0.0, "gradient should be non-zero");
        }
    }

    #[test]
    fn kernel_choice_never_changes_logits_or_grads() {
        let g = graph();
        let reference = GnnModel::new(ModelConfig::gcn(&g), 4).unwrap();
        assert_eq!(reference.kernel(), KernelKind::NaiveCsr);
        let ref_cache = reference.forward_cached(&g).unwrap();
        let grad_logits = Tensor::full(g.num_nodes(), g.num_classes(), 0.1);
        let (ref_w, ref_b) = reference.backward(&ref_cache, &grad_logits).unwrap();
        for kind in KernelKind::all() {
            let model = GnnModel::new(ModelConfig::gcn(&g), 4)
                .unwrap()
                .with_kernel(kind);
            assert_eq!(model.kernel(), kind);
            let cache = model.forward_cached(&g).unwrap();
            assert_eq!(cache.logits, ref_cache.logits, "{}", kind.name());
            let (w, b) = model.backward(&cache, &grad_logits).unwrap();
            assert_eq!(w, ref_w, "{}", kind.name());
            assert_eq!(b, ref_b, "{}", kind.name());
        }
    }

    #[test]
    fn lean_forward_matches_cached_forward_for_all_kinds() {
        let g = graph();
        for kind in ModelKind::all() {
            let mut cfg = ModelConfig::for_kind(kind, &g);
            if kind == ModelKind::ResGcn {
                cfg.num_layers = 4;
                cfg.hidden_dim = 16;
            }
            let model = GnnModel::new(cfg, 11).unwrap();
            let lean = model.forward(&g).unwrap();
            let cached = model.forward_cached(&g).unwrap().logits;
            assert_eq!(lean, cached, "{kind:?}: lean forward must be bit-identical");
        }
    }

    #[test]
    fn two_way_sharded_residual_forward_matches_forward_for_all_shared_kinds() {
        // Every feature-independent architecture, with residuals on and a
        // same-width hidden layer so the rule actually fires: each layer runs
        // as two row shards (even / odd nodes, every node local) through
        // `shard_layer_forward`, the owned rows are scattered back, and the
        // reassembled logits must equal `forward` bit for bit.
        let g = graph();
        let n = g.num_nodes();
        let every_node: Vec<usize> = (0..n).collect();
        let shards: [Vec<usize>; 2] = [(0..n).step_by(2).collect(), (1..n).step_by(2).collect()];
        for kind in ModelKind::all() {
            let mut cfg = ModelConfig::for_kind(kind, &g);
            if cfg.propagation().is_feature_dependent() {
                continue;
            }
            cfg.residual = true;
            cfg.num_layers = 3;
            cfg.hidden_dim = 16;
            let model = GnnModel::new(cfg.clone(), 17).unwrap();
            let full = cfg.propagation().matrix(&g, &Tensor::zeros(0, 0));
            let mut h = Tensor::from_vec(n, g.feature_dim(), g.features().to_vec()).unwrap();
            for (i, layer) in model.layers().iter().enumerate() {
                let mut next = Tensor::zeros(n, layer.out_dim());
                for owned in &shards {
                    let prop = full.submatrix(owned, &every_node);
                    let owned_pos: Vec<u32> = owned.iter().map(|&node| node as u32).collect();
                    let out =
                        crate::layers::shard_layer_forward(layer, &prop, &h, &owned_pos, true, i)
                            .unwrap();
                    for (row, &node) in owned.iter().enumerate() {
                        next.row_mut(node).copy_from_slice(out.row(row));
                    }
                }
                h = next;
            }
            let expected = model.forward(&g).unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&h), bits(&expected), "{kind:?}");
            // The residual is live in this configuration, not vacuous.
            cfg.residual = false;
            let plain = GnnModel::new(cfg, 17).unwrap().forward(&g).unwrap();
            assert_ne!(expected, plain, "{kind:?}: residual must change the logits");
        }
    }

    #[test]
    fn worker_count_never_changes_logits_or_grads() {
        let g = graph();
        let reference = GnnModel::new(ModelConfig::gcn(&g), 8).unwrap();
        assert_eq!(reference.workers(), 0);
        let ref_cache = reference.forward_cached(&g).unwrap();
        let grad_logits = Tensor::full(g.num_nodes(), g.num_classes(), 0.1);
        let (ref_w, ref_b) = reference.backward(&ref_cache, &grad_logits).unwrap();
        for workers in [1usize, 2, 3, 0] {
            for kernel in [KernelKind::NaiveCsr, KernelKind::ParallelCsr] {
                let model = GnnModel::new(ModelConfig::gcn(&g), 8)
                    .unwrap()
                    .with_kernel(kernel)
                    .with_workers(workers);
                assert_eq!(model.workers(), workers);
                let cache = model.forward_cached(&g).unwrap();
                assert_eq!(cache.logits, ref_cache.logits, "{workers}w {kernel}");
                let (w, b) = model.backward(&cache, &grad_logits).unwrap();
                assert_eq!(w, ref_w, "{workers}w {kernel}");
                assert_eq!(b, ref_b, "{workers}w {kernel}");
            }
        }
    }

    #[test]
    fn precision_routes_forward_through_the_quantized_path() {
        let g = graph();
        let base = GnnModel::new(ModelConfig::gcn(&g), 21).unwrap();
        assert_eq!(base.precision(), Precision::Fp32);
        let fp32 = base.forward(&g).unwrap();
        for precision in [Precision::Int8, Precision::Int16] {
            let model = GnnModel::new(ModelConfig::gcn(&g), 21)
                .unwrap()
                .with_precision(precision);
            assert_eq!(model.precision(), precision);
            let quant = model.forward(&g).unwrap();
            // The quantized path is a different computation: close, never
            // bit-identical on a non-trivial model.
            assert_eq!(quant.shape(), fp32.shape());
            assert_ne!(quant, fp32, "{precision} must change the numerics");
            // And it matches the explicit QuantizedModel bit for bit.
            let width = precision.quant_width().unwrap();
            let explicit = QuantizedModel::from_model(&model, width)
                .forward(&g)
                .unwrap();
            assert_eq!(quant, explicit, "{precision}");
            // forward_rows gathers out of the same quantized pass.
            let rows = model.forward_rows(&g, &[2, 5]).unwrap();
            assert_eq!(rows.row(0), quant.row(2));
            assert_eq!(rows.row(1), quant.row(5));
            // Gradients stay on the f32 cached path.
            let cached = model.forward_cached(&g).unwrap();
            assert_eq!(cached.logits, fp32, "{precision}: training stays f32");
        }
        // Setter form mirrors the builder.
        let mut model = GnnModel::new(ModelConfig::gcn(&g), 21).unwrap();
        model.set_precision(Precision::Int8);
        assert_eq!(model.precision(), Precision::Int8);
    }

    #[test]
    fn forward_rows_is_bit_identical_to_per_request_inference() {
        let g = graph();
        let model = GnnModel::new(ModelConfig::gcn(&g), 13).unwrap();
        let full = model.forward(&g).unwrap();
        // A "batch" of three requests with overlapping, unsorted nodes.
        let requests: Vec<Vec<usize>> = vec![vec![5, 0, 17], vec![17, 3], vec![1]];
        let stacked_nodes: Vec<usize> = requests.iter().flatten().copied().collect();
        let fused = model.forward_rows(&g, &stacked_nodes).unwrap();
        assert_eq!(fused.shape(), (stacked_nodes.len(), g.num_classes()));
        // Fused batch equals per-request gathers of independent passes.
        let mut offset = 0;
        for nodes in &requests {
            let solo = model.forward_rows(&g, nodes).unwrap();
            for (i, &node) in nodes.iter().enumerate() {
                assert_eq!(fused.row(offset + i), solo.row(i));
                assert_eq!(solo.row(i), full.row(node));
            }
            offset += nodes.len();
        }
    }

    #[test]
    fn forward_rows_rejects_out_of_range_nodes() {
        let g = graph();
        let model = GnnModel::new(ModelConfig::gcn(&g), 0).unwrap();
        assert!(matches!(
            model.forward_rows(&g, &[0, g.num_nodes()]),
            Err(NnError::ShapeMismatch { .. })
        ));
        // An empty query is legal and yields an empty stack.
        let empty = model.forward_rows(&g, &[]).unwrap();
        assert_eq!(empty.shape(), (0, g.num_classes()));
    }

    #[test]
    fn shared_propagation_is_one_matrix_behind_arcs() {
        let g = graph();
        let model = GnnModel::new(ModelConfig::gcn(&g), 0).unwrap();
        let cache = model.forward_cached(&g).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&cache.propagations[0], &cache.propagations[1]),
            "feature-independent layers must share one propagation matrix"
        );
        // Attention rebuilds per layer from the current features.
        let gat = GnnModel::new(ModelConfig::gat(&g), 0).unwrap();
        let cache = gat.forward_cached(&g).unwrap();
        assert!(!std::sync::Arc::ptr_eq(
            &cache.propagations[0],
            &cache.propagations[1]
        ));
    }

    #[test]
    fn parameter_count_matches_dims() {
        let g = graph();
        let cfg = ModelConfig::gcn(&g);
        let model = GnnModel::new(cfg.clone(), 0).unwrap();
        let expected: usize = cfg.layer_dims().iter().map(|&(i, o)| i * o + o).sum();
        assert_eq!(model.num_params(), expected);
    }

    #[test]
    fn residual_model_differs_from_plain_stack() {
        let g = graph();
        let mut cfg = ModelConfig::resgcn(&g);
        cfg.num_layers = 3;
        cfg.hidden_dim = 8;
        let with_res = GnnModel::new(cfg.clone(), 5).unwrap();
        let mut cfg_no = cfg;
        cfg_no.residual = false;
        let without = GnnModel::new(cfg_no, 5).unwrap();
        let a = with_res.forward(&g).unwrap();
        let b = without.forward(&g).unwrap();
        assert_ne!(a, b, "residual connections must change the output");
    }

    #[test]
    fn model_kind_names_are_stable() {
        assert_eq!(ModelKind::Gcn.name(), "gcn");
        assert_eq!(ModelKind::ResGcn.name(), "resgcn");
        assert_eq!(ModelKind::all().len(), 5);
    }
}
