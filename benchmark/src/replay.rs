//! The forward pass replayed from its public pieces, one span per call, so a
//! traced run can say where an inference op spends its time without touching
//! the crates under test. Both replays must stay bit-identical to the real
//! `forward` they decompose; the workloads check that on every run.

use crate::trace::Recorder;
use gcod_graph::{Graph, QuantWidth, QuantizedCsr};
use gcod_nn::models::GnnModel;
use gcod_nn::qkernels::{quant_kernel_for, quant_matmul};
use gcod_nn::quant::{QuantizedModel, QuantizedTensor};
use gcod_nn::Tensor;

/// The graph's node features as the input activation matrix (what
/// `GnnModel::forward` builds first).
pub fn input_features(graph: &Graph) -> Tensor {
    Tensor::from_vec(
        graph.num_nodes(),
        graph.feature_dim(),
        graph.features().to_vec(),
    )
    .expect("graph guarantees feature shape")
}

fn assert_replayable(model: &GnnModel) {
    let config = model.config();
    assert!(
        !config.propagation().is_feature_dependent() && !config.residual,
        "the replay covers shared-propagation, non-residual models (GCN)"
    );
}

/// `GnnModel::forward` at fp32, call by call: `Propagation::matrix` →
/// per layer `SpmmKernel::spmm` → `Tensor::matmul_with` → bias → activation.
pub fn forward(rec: &mut Recorder<'_>, graph: &Graph, model: &GnnModel) -> Tensor {
    assert_replayable(model);
    rec.span("nn", "forward", |rec| {
        let rule = model.config().propagation();
        let kernel = model.kernel().build_with_workers(model.workers());
        let mut h = rec.span("nn", "input_copy", |_| input_features(graph));
        let propagation = rec.span("nn", "propagation_build", |_| rule.matrix(graph, &h));
        for layer in model.layers() {
            let aggregated = rec
                .span("nn", "spmm", |_| kernel.spmm(&propagation, &h))
                .expect("spmm shapes");
            let mut next = rec
                .span("nn", "matmul", |_| {
                    aggregated.matmul_with(&layer.weight, model.workers())
                })
                .expect("matmul shapes");
            rec.span("nn", "bias_act", |_| {
                next.add_row_broadcast_in_place(&layer.bias)
                    .expect("bias shape");
                layer.activation.apply_in_place(&mut next);
            });
            h = next;
        }
        h
    })
}

/// `QuantizedModel::forward` call by call: the propagation matrix is built
/// and quantized once, then per layer quantize → integer SpMM → quantize →
/// integer GEMM → f32 bias/activation.
pub fn quantized_forward(
    rec: &mut Recorder<'_>,
    graph: &Graph,
    model: &GnnModel,
    quantized: &QuantizedModel,
) -> Tensor {
    assert_replayable(model);
    rec.span("nn", "qforward", |rec| {
        let rule = model.config().propagation();
        let width = quantized.width();
        let kernel = quant_kernel_for(model.kernel(), model.workers());
        let mut h = rec.span("nn", "input_copy", |_| input_features(graph));
        let built = rec.span("nn", "propagation_build", |_| rule.matrix(graph, &h));
        let propagation = rec.span("graph", "quantize_csr", |_| {
            QuantizedCsr::quantize(&built, width)
        });
        for layer in quantized.layers() {
            let x_q = rec.span("nn", "quantize", |_| QuantizedTensor::quantize(&h, width));
            let aggregated = rec
                .span("nn", "qspmm", |_| kernel.spmm(&propagation, &x_q))
                .expect("qspmm shapes");
            let agg_q = rec.span("nn", "quantize", |_| {
                QuantizedTensor::quantize(&aggregated, width)
            });
            let mut next = rec
                .span("nn", "qmatmul", |_| {
                    quant_matmul(&agg_q, &layer.weight, model.workers())
                })
                .expect("qmatmul shapes");
            rec.span("nn", "bias_act", |_| {
                next.add_row_broadcast_in_place(&layer.bias)
                    .expect("bias shape");
                layer.activation.apply_in_place(&mut next);
            });
            h = next;
        }
        h
    })
}

/// The int8 model the inference workloads hold across ops.
pub fn int8_model(model: &GnnModel) -> QuantizedModel {
    QuantizedModel::from_model(model, QuantWidth::I8)
}

/// Share of rows whose argmax class agrees between two logit matrices.
pub fn argmax_agreement(a: &Tensor, b: &Tensor) -> f64 {
    let (a, b) = (a.argmax_rows(), b.argmax_rows());
    let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
    same as f64 / a.len().max(1) as f64
}

/// Bit equality of two tensors (NaN-safe, unlike `==` on floats).
pub fn bit_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
