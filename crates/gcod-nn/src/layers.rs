//! Layer building blocks shared by the GNN model zoo.
//!
//! Every model in Table IV of the paper fits the same per-layer template:
//!
//! ```text
//! H_{l+1} = activation( P_l · H_l · W_l + b_l )       (+ residual for ResGCN)
//! ```
//!
//! where `P_l` is a *propagation matrix* derived from the graph adjacency.
//! The models differ only in how `P_l` is built (symmetric normalization for
//! GCN, sum with weighted self loops for GIN, mean aggregation for
//! GraphSAGE, attention-scaled neighbours for GAT) and in the layer count /
//! hidden width. Keeping that template explicit lets one manual
//! forward/backward implementation serve the whole zoo.

use crate::kernels::{NaiveCsr, SpmmKernel};
use crate::qkernels::{quant_matmul, QuantSpmmKernel};
use crate::quant::{QuantizedLayer, QuantizedTensor};
use crate::{init, Result, Tensor};
use gcod_graph::{CooMatrix, CsrMatrix, Graph, QuantizedCsr, SelfLoops};
use serde::{Deserialize, Serialize};

/// Non-linearity applied after a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// No activation (used on the output layer; softmax lives in the loss).
    Linear,
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn apply(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => x.relu(),
            Activation::Linear => x.clone(),
        }
    }

    /// Applies the activation in place (allocation-free form of
    /// [`Activation::apply`], numerically identical).
    pub fn apply_in_place(self, x: &mut Tensor) {
        match self {
            Activation::Relu => x.relu_in_place(),
            Activation::Linear => {}
        }
    }

    /// Backward pass of the activation in one fused elementwise sweep:
    /// `grad_output ⊙ activation'(pre_activation)` without materialising the
    /// 0/1 mask tensor (the per-element expression is the same
    /// `g * {1.0|0.0}` product).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ShapeMismatch`] when the shapes differ.
    pub fn apply_grad(
        self,
        grad_output: &Tensor,
        pre_activation: &Tensor,
    ) -> crate::Result<Tensor> {
        match self {
            Activation::Relu => grad_output.zip_with(
                pre_activation,
                |g, p| g * if p > 0.0 { 1.0 } else { 0.0 },
                "relu-grad",
            ),
            Activation::Linear => {
                if grad_output.shape() != pre_activation.shape() {
                    return Err(crate::NnError::ShapeMismatch {
                        context: format!(
                            "linear-grad: {}x{} vs {}x{}",
                            grad_output.rows(),
                            grad_output.cols(),
                            pre_activation.rows(),
                            pre_activation.cols()
                        ),
                    });
                }
                Ok(grad_output.clone())
            }
        }
    }
}

/// How the propagation matrix `P` is derived from the adjacency matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Propagation {
    /// GCN: `D^{-1/2} (A + I) D^{-1/2}` (mean-like symmetric normalization).
    SymmetricNormalized,
    /// GraphSAGE (mean variant): `D^{-1} (A + I)`.
    MeanNormalized,
    /// GIN: `A + (1 + eps) I` (sum aggregation with a learnable-ish self
    /// weight; `eps` is treated as a fixed hyper-parameter here).
    SumWithSelfLoop {
        /// The GIN epsilon.
        eps: f32,
    },
    /// GAT: degree-normalized neighbours scaled by per-edge attention. The
    /// attention coefficients are computed from node feature similarity and
    /// treated as constants in the backward pass (a documented
    /// simplification; see DESIGN.md).
    Attention {
        /// Number of attention heads (heads share the propagation matrix but
        /// widen the combination workload).
        heads: usize,
    },
    /// No aggregation: plain MLP layer (used for readouts).
    Identity,
}

impl Propagation {
    /// Materialises the propagation matrix for `graph`.
    ///
    /// For [`Propagation::Attention`] the matrix depends on the current node
    /// features `h`; other variants ignore `h`.
    pub fn matrix(&self, graph: &Graph, h: &Tensor) -> CsrMatrix {
        let adj = graph.adjacency();
        match *self {
            Propagation::SymmetricNormalized => {
                gcod_graph::normalize_symmetric(adj, SelfLoops::Add)
            }
            Propagation::MeanNormalized => gcod_graph::normalize_row(adj, SelfLoops::Add),
            Propagation::SumWithSelfLoop { eps } => {
                let mut coo = adj.to_coo();
                for i in 0..adj.rows() {
                    coo.push(i, i, 1.0 + eps).expect("diagonal in range");
                }
                coo.to_csr()
            }
            Propagation::Attention { .. } => attention_matrix(adj, h),
            Propagation::Identity => CsrMatrix::identity(adj.rows()),
        }
    }

    /// Whether the propagation matrix depends on the node features (and must
    /// therefore be rebuilt every forward pass).
    pub fn is_feature_dependent(&self) -> bool {
        matches!(self, Propagation::Attention { .. })
    }
}

/// Attention propagation: softmax over neighbours of the (scaled) dot-product
/// similarity of the endpoint features, including a self loop.
fn attention_matrix(adj: &CsrMatrix, h: &Tensor) -> CsrMatrix {
    let n = adj.rows();
    let dim = h.cols().max(1) as f32;
    let mut coo = CooMatrix::with_capacity(n, n, adj.nnz() + n);
    for r in 0..n {
        let (cols, _) = adj.row(r);
        // Collect raw scores for neighbours + self.
        let mut targets: Vec<usize> = cols.iter().map(|&c| c as usize).collect();
        targets.push(r);
        let hr = h.row(r.min(h.rows().saturating_sub(1)));
        let mut scores: Vec<f32> = targets
            .iter()
            .map(|&c| {
                let hc = h.row(c.min(h.rows().saturating_sub(1)));
                let dot: f32 = hr.iter().zip(hc).map(|(a, b)| a * b).sum();
                (dot / dim.sqrt()).clamp(-10.0, 10.0)
            })
            .collect();
        // Softmax over the neighbourhood.
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for s in &mut scores {
            *s = (*s - max).exp();
            sum += *s;
        }
        for (t, s) in targets.iter().zip(&scores) {
            coo.push(r, *t, s / sum.max(1e-12))
                .expect("targets within range");
        }
    }
    coo.to_csr()
}

/// One dense layer: weight, bias and activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    /// Weight matrix `in_dim × out_dim`.
    pub weight: Tensor,
    /// Bias row `1 × out_dim`.
    pub bias: Tensor,
    /// Post-layer activation.
    pub activation: Activation,
}

impl DenseLayer {
    /// Creates a Glorot-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        Self {
            weight: init::glorot_uniform(in_dim, out_dim, seed),
            bias: init::zeros(1, out_dim),
            activation,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// The two intermediates of one layer step, handed back by move from
/// [`graph_conv_forward`]; exactly what [`graph_conv_backward`] reads.
///
/// Neither the layer *input* nor its post-activation *output* is cached: the
/// backward pass never reads them (gradients flow through `aggregated` and
/// `pre_activation`), so the output travels on to the next layer instead of
/// being cloned here.
#[derive(Debug, Clone)]
pub struct LayerCache {
    /// Aggregated input `P · H_l`.
    pub aggregated: Tensor,
    /// Pre-activation output `P · H_l · W + b`.
    pub pre_activation: Tensor,
}

/// Gradients of one layer.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Gradient of the weight matrix.
    pub weight: Tensor,
    /// Gradient of the bias row.
    pub bias: Tensor,
    /// Gradient flowing to the layer input (for the previous layer).
    pub input: Tensor,
}

/// The one f32 layer step, up to the non-linearity: aggregation
/// (`kernel.spmm`), combination (`· W` on `workers` lanes, 0 = the global
/// pool's count) and bias broadcast, i.e. `P · x · W + b`.
///
/// Every f32 forward path is this function plus its own way of applying
/// `layer.activation`: lean inference takes `pre_activation` and activates
/// it in place, the training path keeps both intermediates for
/// [`graph_conv_backward`], and [`shard_layer_forward`] runs it over a
/// shard's sliced propagation rows. Local, cached and sharded results are
/// therefore bit-identical by construction; and because every
/// [`SpmmKernel`] and worker count is bit-identical to [`NaiveCsr`] at one
/// lane, `kernel` and `workers` change wall-clock only.
///
/// # Errors
///
/// Returns [`crate::NnError::ShapeMismatch`] when the dimensions are inconsistent.
pub fn graph_conv_forward(
    layer: &DenseLayer,
    propagation: &CsrMatrix,
    x: &Tensor,
    kernel: &dyn SpmmKernel,
    workers: usize,
) -> Result<LayerCache> {
    let aggregated = kernel.spmm(propagation, x)?;
    let mut pre_activation = aggregated.matmul_with(&layer.weight, workers)?;
    pre_activation.add_row_broadcast_in_place(&layer.bias)?;
    Ok(LayerCache {
        aggregated,
        pre_activation,
    })
}

/// Whether layer `index` adds its input back onto its output — the residual
/// rule, stated once for every forward and backward path: the model asks for
/// residuals, the layer is not the first, and it preserves the activation
/// width (the row counts always agree, so `output.shape() == input.shape()`
/// reduces to the widths).
pub(crate) fn residual_applies(residual: bool, index: usize, d_in: usize, d_out: usize) -> bool {
    residual && index > 0 && d_in == d_out
}

/// The quantized counterpart of [`graph_conv_forward`] plus activation: one
/// graph-convolution layer computed on integer payloads.
///
/// Dataflow (one quantization per operator input, one dequantization per
/// operator output):
///
/// 1. quantize the f32 activations `x` at the layer's width,
/// 2. aggregate against the pre-quantized propagation matrix with the
///    integer SpMM kernel (widened-integer accumulation, dequantized f32
///    out),
/// 3. re-quantize the aggregated activations and combine with the
///    pre-quantized weight via the integer GEMM,
/// 4. run the f32 tail — bias broadcast and activation — at the layer
///    boundary.
///
/// The result is **not** bit-identical to the f32 layer (quantization is
/// lossy by design); it *is* bit-exact across worker counts and tile
/// geometries, because the integer accumulation is order-independent.
///
/// # Errors
///
/// Returns [`crate::NnError::ShapeMismatch`] when the dimensions or operand
/// widths are inconsistent.
pub fn graph_conv_forward_quant(
    layer: &QuantizedLayer,
    propagation: &QuantizedCsr,
    x: &Tensor,
    kernel: &dyn QuantSpmmKernel,
    workers: usize,
) -> Result<Tensor> {
    let width = layer.weight.width();
    let x_q = QuantizedTensor::quantize(x, width);
    let aggregated = kernel.spmm(propagation, &x_q)?;
    let agg_q = QuantizedTensor::quantize(&aggregated, width);
    let mut next = quant_matmul(&agg_q, &layer.weight, workers)?;
    next.add_row_broadcast_in_place(&layer.bias)?;
    layer.activation.apply_in_place(&mut next);
    Ok(next)
}

/// One sharded layer step: the per-shard half of `GnnModel::forward`.
///
/// `prop` holds this shard's *rows* of the full-graph propagation matrix
/// (`|owned| × |locals|`, columns remapped to shard-local ids in ascending
/// global order) and `h_local` the activations of every local node (owned ∪
/// halo, `|locals| × d_in`, rows in the same ascending global order). The
/// result is the next activation of the shard's **owned** rows
/// (`|owned| × d_out`).
///
/// Bit-identity contract: the propagation rows are sliced (not
/// renormalised) from the full-graph matrix and the column remapping is
/// monotone in global node id, so each CSR row accumulates in exactly the
/// full-graph order; the step itself is the same [`graph_conv_forward`] the
/// single-process paths run (on [`NaiveCsr`], which every kernel equals bit
/// for bit). The owned rows therefore equal the corresponding rows of the
/// single-process forward bit for bit, at every worker count.
///
/// `residual` is the model's `ModelConfig::residual` and `layer_index` this
/// layer's position; where the residual rule applies, the previous
/// activation of the owned rows is read out of `h_local` via `owned_pos`
/// (positions of the owned nodes within the local ordering).
///
/// # Errors
///
/// Returns [`crate::NnError::ShapeMismatch`] when the dimensions are
/// inconsistent or `owned_pos` is out of range.
pub fn shard_layer_forward(
    layer: &DenseLayer,
    prop: &CsrMatrix,
    h_local: &Tensor,
    owned_pos: &[u32],
    residual: bool,
    layer_index: usize,
) -> Result<Tensor> {
    if prop.rows() != owned_pos.len() {
        return Err(crate::NnError::ShapeMismatch {
            context: format!(
                "shard-layer: {} propagation rows vs {} owned positions",
                prop.rows(),
                owned_pos.len()
            ),
        });
    }
    let mut next = graph_conv_forward(layer, prop, h_local, &NaiveCsr, 0)?.pre_activation;
    layer.activation.apply_in_place(&mut next);
    if residual_applies(residual, layer_index, h_local.cols(), next.cols()) {
        let owned: Vec<usize> = owned_pos.iter().map(|&pos| pos as usize).collect();
        next.add_assign(&h_local.gather_rows(&owned)?)?;
    }
    Ok(next)
}

/// Backward pass of one layer, from the intermediates
/// [`graph_conv_forward`] handed back.
///
/// `grad_output` is the gradient w.r.t. the layer's post-activation output.
/// The propagation matrix is treated as a constant (the GCoD graph-tuning
/// step that *does* differentiate w.r.t. the adjacency lives in
/// `gcod-core::polarize`). `kernel` computes the `Pᵀ · dX` term and
/// `workers` bounds the dense matmuls (0 = the global pool's lane count);
/// like the forward step, neither changes the numerics.
///
/// # Errors
///
/// Returns [`crate::NnError::ShapeMismatch`] on inconsistent shapes.
pub fn graph_conv_backward(
    layer: &DenseLayer,
    propagation: &CsrMatrix,
    cache: &LayerCache,
    grad_output: &Tensor,
    kernel: &dyn SpmmKernel,
    workers: usize,
) -> Result<LayerGrads> {
    // dPre = dOut ⊙ activation'(pre), fused into one elementwise sweep.
    let grad_pre = layer
        .activation
        .apply_grad(grad_output, &cache.pre_activation)?;
    // dW = (P·X)^T · dPre
    let grad_weight = cache
        .aggregated
        .transpose()
        .matmul_with(&grad_pre, workers)?;
    // db = column sums of dPre (rows accumulated in ascending order, exactly
    // like the element-indexed loop it replaces).
    let mut grad_bias = Tensor::zeros(1, layer.out_dim());
    for r in 0..grad_pre.rows() {
        for (slot, &g) in grad_bias.data_mut().iter_mut().zip(grad_pre.row(r)) {
            *slot += g;
        }
    }
    // dX = P^T · (dPre · W^T)
    let grad_combined = grad_pre.matmul_with(&layer.weight.transpose(), workers)?;
    let grad_input = kernel.spmm_transpose(propagation, &grad_combined)?;
    Ok(LayerGrads {
        weight: grad_weight,
        bias: grad_bias,
        input: grad_input,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::{DatasetProfile, GraphGenerator};

    fn tiny_graph() -> Graph {
        GraphGenerator::new(1)
            .generate(&DatasetProfile::custom("t", 30, 60, 8, 3))
            .unwrap()
    }

    /// `activation(P · x · W + b)` on the reference kernel.
    fn layer_output(layer: &DenseLayer, prop: &CsrMatrix, x: &Tensor) -> Tensor {
        let cache = graph_conv_forward(layer, prop, x, &NaiveCsr, 0).unwrap();
        layer.activation.apply(&cache.pre_activation)
    }

    #[test]
    fn activations() {
        let x = Tensor::from_vec(1, 3, vec![-1.0, 0.5, 2.0]).unwrap();
        assert_eq!(Activation::Relu.apply(&x).data(), &[0.0, 0.5, 2.0]);
        assert_eq!(Activation::Linear.apply(&x), x);
        let grad = Tensor::full(1, 3, 2.0);
        let relu_grad = Activation::Relu.apply_grad(&grad, &x).unwrap();
        assert_eq!(relu_grad.data(), &[0.0, 2.0, 2.0]);
        assert_eq!(Activation::Linear.apply_grad(&grad, &x).unwrap(), grad);
        for activation in [Activation::Relu, Activation::Linear] {
            assert!(activation.apply_grad(&Tensor::zeros(1, 2), &x).is_err());
        }
    }

    #[test]
    fn propagation_matrices_have_expected_structure() {
        let g = tiny_graph();
        let h = Tensor::zeros(g.num_nodes(), 4);
        let sym = Propagation::SymmetricNormalized.matrix(&g, &h);
        let mean = Propagation::MeanNormalized.matrix(&g, &h);
        let gin = Propagation::SumWithSelfLoop { eps: 0.1 }.matrix(&g, &h);
        let ident = Propagation::Identity.matrix(&g, &h);
        assert_eq!(sym.rows(), g.num_nodes());
        // Mean normalization: every row sums to one.
        for r in 0..mean.rows() {
            let (_, vals) = mean.row(r);
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // GIN keeps raw edges and adds 1 + eps on the diagonal.
        assert!((gin.get(0, 0) - 1.1).abs() < 1e-6);
        assert_eq!(ident.nnz(), g.num_nodes());
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let g = tiny_graph();
        let h = Tensor::full(g.num_nodes(), 4, 0.5);
        let att = Propagation::Attention { heads: 8 }.matrix(&g, &h);
        for r in 0..att.rows() {
            let (_, vals) = att.row(r);
            let sum: f32 = vals.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
        }
        assert!(Propagation::Attention { heads: 8 }.is_feature_dependent());
        assert!(!Propagation::SymmetricNormalized.is_feature_dependent());
    }

    #[test]
    fn forward_shapes() {
        let g = tiny_graph();
        let layer = DenseLayer::new(g.feature_dim(), 5, Activation::Relu, 0);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), g.feature_dim(), g.features().to_vec()).unwrap();
        let output = layer_output(&layer, &prop, &x);
        assert_eq!(output.shape(), (g.num_nodes(), 5));
        assert!(output.data().iter().all(|&v| v >= 0.0), "ReLU output");
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        // Numerical gradient check on a tiny layer: perturb one weight and
        // compare d(loss)/d(w) with the analytic gradient, where the loss is
        // the sum of outputs.
        let g = tiny_graph();
        let mut layer = DenseLayer::new(g.feature_dim(), 3, Activation::Relu, 7);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), g.feature_dim(), g.features().to_vec()).unwrap();

        let cache = graph_conv_forward(&layer, &prop, &x, &NaiveCsr, 0).unwrap();
        let grad_out = Tensor::full(g.num_nodes(), 3, 1.0);
        let grads = graph_conv_backward(&layer, &prop, &cache, &grad_out, &NaiveCsr, 0).unwrap();

        let eps = 1e-3f32;
        for &(r, c) in &[(0usize, 0usize), (2, 1), (5, 2)] {
            let orig = layer.weight.get(r, c);
            layer.weight.set(r, c, orig + eps);
            let plus = layer_output(&layer, &prop, &x).sum();
            layer.weight.set(r, c, orig - eps);
            let minus = layer_output(&layer, &prop, &x).sum();
            layer.weight.set(r, c, orig);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads.weight.get(r, c);
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "grad mismatch at ({r},{c}): numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn forward_backward_identical_under_every_kernel() {
        let g = tiny_graph();
        let layer = DenseLayer::new(g.feature_dim(), 4, Activation::Relu, 3);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), g.feature_dim(), g.features().to_vec()).unwrap();
        let cache = graph_conv_forward(&layer, &prop, &x, &NaiveCsr, 0).unwrap();
        let grad_out = Tensor::full(g.num_nodes(), 4, 0.5);
        let grads = graph_conv_backward(&layer, &prop, &cache, &grad_out, &NaiveCsr, 0).unwrap();
        for kind in crate::kernels::KernelKind::all() {
            let kernel = kind.build();
            let cache_k = graph_conv_forward(&layer, &prop, &x, kernel.as_ref(), 0).unwrap();
            assert_eq!(cache_k.aggregated, cache.aggregated, "{}", kernel.name());
            assert_eq!(
                cache_k.pre_activation,
                cache.pre_activation,
                "{}",
                kernel.name()
            );
            let grads_k =
                graph_conv_backward(&layer, &prop, &cache_k, &grad_out, kernel.as_ref(), 0)
                    .unwrap();
            assert_eq!(grads_k.weight, grads.weight, "{}", kernel.name());
            assert_eq!(grads_k.bias, grads.bias, "{}", kernel.name());
            assert_eq!(grads_k.input, grads.input, "{}", kernel.name());
        }
    }

    #[test]
    fn shard_layer_forward_matches_full_forward_rows() {
        // Shard = the even nodes, locals = every node (identity column
        // mapping): the sharded step over the sliced propagation rows must
        // reproduce the full layer's even rows bit for bit.
        let g = tiny_graph();
        let layer = DenseLayer::new(g.feature_dim(), 5, Activation::Relu, 11);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), g.feature_dim(), g.features().to_vec()).unwrap();
        let full = layer_output(&layer, &prop, &x);

        let owned: Vec<usize> = (0..g.num_nodes()).step_by(2).collect();
        let every_node: Vec<usize> = (0..g.num_nodes()).collect();
        let sliced = prop.submatrix(&owned, &every_node);
        let owned_pos: Vec<u32> = owned.iter().map(|&n| n as u32).collect();
        let sharded = shard_layer_forward(&layer, &sliced, &x, &owned_pos, false, 1).unwrap();
        for (row, &node) in owned.iter().enumerate() {
            assert_eq!(sharded.row(row), full.row(node), "node {node}");
        }
    }

    #[test]
    fn shard_layer_forward_residual_matches_full_condition() {
        // Same-width layer with residual: sharded output row = full
        // `activation(P·H·W + b) + H` row for the owned nodes.
        let g = tiny_graph();
        let dim = g.feature_dim();
        let layer = DenseLayer::new(dim, dim, Activation::Relu, 3);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), dim, g.features().to_vec()).unwrap();
        let plain = layer_output(&layer, &prop, &x);
        let mut full = plain.clone();
        full.add_assign(&x).unwrap();

        let owned_pos: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let sharded = shard_layer_forward(&layer, &prop, &x, &owned_pos, true, 1).unwrap();
        assert_eq!(sharded, full);
        // The first layer never adds a residual, whatever its widths.
        let first = shard_layer_forward(&layer, &prop, &x, &owned_pos, true, 0).unwrap();
        assert_eq!(first, plain);
        // Width-changing layers skip the residual even when requested.
        let narrowing = DenseLayer::new(dim, 3, Activation::Relu, 3);
        let no_res = shard_layer_forward(&narrowing, &prop, &x, &owned_pos, true, 1).unwrap();
        assert_eq!(no_res, layer_output(&narrowing, &prop, &x));
        // An owned position outside the local rows is a shape error.
        let mut bad_pos = owned_pos.clone();
        bad_pos[0] = g.num_nodes() as u32;
        assert!(shard_layer_forward(&layer, &prop, &x, &bad_pos, true, 1).is_err());
    }

    #[test]
    fn shard_layer_forward_rejects_inconsistent_shapes() {
        let g = tiny_graph();
        let layer = DenseLayer::new(g.feature_dim(), 4, Activation::Relu, 0);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), g.feature_dim(), g.features().to_vec()).unwrap();
        // owned_pos length must match the propagation row count.
        let err = shard_layer_forward(&layer, &prop, &x, &[0, 1], false, 0);
        assert!(err.is_err());
    }

    #[test]
    fn quant_layer_forward_tracks_f32_layer() {
        use gcod_graph::QuantWidth;
        let g = tiny_graph();
        let layer = DenseLayer::new(g.feature_dim(), 4, Activation::Relu, 5);
        let prop = Propagation::SymmetricNormalized.matrix(&g, &Tensor::zeros(1, 1));
        let x = Tensor::from_vec(g.num_nodes(), g.feature_dim(), g.features().to_vec()).unwrap();
        let f32_out = layer_output(&layer, &prop, &x);
        let q_layer = QuantizedLayer {
            weight: QuantizedTensor::quantize(&layer.weight, QuantWidth::I16),
            bias: layer.bias.clone(),
            activation: layer.activation,
        };
        let q_prop = QuantizedCsr::quantize(&prop, QuantWidth::I16);
        let naive = crate::qkernels::NaiveQuantSpmm;
        let out = graph_conv_forward_quant(&q_layer, &q_prop, &x, &naive, 0).unwrap();
        let rel = f32_out.sub(&out).unwrap().norm() / f32_out.norm().max(1e-9);
        assert!(rel < 0.01, "int16 layer drifts {rel} from f32");
        // Worker count never changes the quantized result (integer
        // accumulation is order-independent).
        for workers in [1usize, 2, 3] {
            let parallel = crate::qkernels::ParallelQuantSpmm::with_workers_and_cutoff(workers, 0);
            let out_w =
                graph_conv_forward_quant(&q_layer, &q_prop, &x, &parallel, workers).unwrap();
            assert_eq!(out_w, out, "{workers} workers");
        }
    }

    #[test]
    fn layer_parameter_count() {
        let layer = DenseLayer::new(10, 4, Activation::Linear, 0);
        assert_eq!(layer.num_params(), 44);
        assert_eq!(layer.in_dim(), 10);
        assert_eq!(layer.out_dim(), 4);
    }
}
