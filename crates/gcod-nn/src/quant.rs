//! Post-training int8/int16 quantization and the quantized model runner.
//!
//! The paper's GCoD (8-bit) variant quantizes weights and activations to
//! 8-bit integers, which halves-to-quarters the off-chip bandwidth demand
//! and lets the accelerator afford 10240 PEs instead of 4096 (Table V
//! footnote). This module provides the real execution path for that
//! variant, not an emulation:
//!
//! * [`QuantizedTensor`] — symmetric per-tensor quantized dense storage
//!   (int8 or int16 payload behind one scale), the dense counterpart of
//!   [`gcod_graph::QuantizedCsr`],
//! * [`QuantizedLayer`] / [`QuantizedModel`] — a model whose weights are
//!   quantized **once** at construction and whose forward pass runs the
//!   integer kernels of [`crate::qkernels`] end to end: per layer the
//!   activations are quantized, aggregated and combined in the integer
//!   domain (i32 accumulation for int8, i64 for int16), and dequantized
//!   only at the operator boundary (bias, activation and residual stay
//!   f32).
//!
//! Selecting a quantized [`Precision`] on a [`GnnModel`] (via
//! [`GnnModel::with_precision`]) routes its *inference* path
//! (`forward`/`forward_rows`, and therefore every evaluation the trainer
//! reports) through this module; gradients keep the f32 cached path, so
//! this is post-training quantization exactly as the paper deploys it.

use crate::kernels::KernelKind;
use crate::layers::{graph_conv_forward_quant, Activation};
use crate::models::{forward_layers, GnnModel, ModelConfig};
use crate::qkernels::quant_kernel_for;
use crate::{Result, Tensor};
use gcod_graph::{Graph, QuantValues, QuantWidth, QuantizedCsr};
use serde::{Deserialize, Serialize};

/// A symmetric, per-tensor quantized dense matrix: `value ≈ scale * q` with
/// an int8 or int16 payload. The dense counterpart of
/// [`gcod_graph::QuantizedCsr`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    rows: usize,
    cols: usize,
    scale: f32,
    values: QuantValues,
}

impl QuantizedTensor {
    /// Quantizes a tensor at `width` with a symmetric scale chosen from its
    /// max absolute value (`scale = max_abs / qmax`, 1.0 for a zero tensor).
    pub fn quantize(tensor: &Tensor, width: QuantWidth) -> Self {
        let scale = width.scale_for(tensor.data());
        Self {
            rows: tensor.rows(),
            cols: tensor.cols(),
            scale,
            values: QuantValues::quantize(tensor.data(), width, scale),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Integer width of the payload.
    pub fn width(&self) -> QuantWidth {
        self.values.width()
    }

    /// The quantized payload.
    pub fn values(&self) -> &QuantValues {
        &self.values
    }

    /// Dequantizes back to fp32.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(self.rows, self.cols, self.values.dequantize(self.scale))
            .expect("shape preserved")
    }

    /// The analytic per-element round-trip error bound of symmetric
    /// quantization: `scale / 2`. [`QuantizedTensor::max_error`] against the
    /// source tensor never exceeds this (the scale choice rules clamping
    /// out).
    pub fn error_bound(&self) -> f32 {
        self.scale / 2.0
    }

    /// Worst-case absolute quantization error of this tensor.
    pub fn max_error(&self, original: &Tensor) -> f32 {
        self.dequantize()
            .data()
            .iter()
            .zip(original.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Bit width used by a model variant; selects the inference compute path
/// and drives the bandwidth model in `gcod-accel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit floating point (the paper's default GCoD configuration).
    #[default]
    Fp32,
    /// 16-bit integers (LW-GCN-style fixed point; i64 accumulation).
    Int16,
    /// 8-bit integers (the GCoD (8-bit) variant; i32 accumulation).
    Int8,
}

impl Precision {
    /// Bytes per scalar.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Int16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Stable lowercase name (matches the benchmark labels).
    pub fn name(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Int16 => "int16",
            Precision::Int8 => "int8",
        }
    }

    /// The integer storage width of a quantized precision (`None` for f32,
    /// which takes the unquantized path).
    pub fn quant_width(self) -> Option<QuantWidth> {
        match self {
            Precision::Fp32 => None,
            Precision::Int16 => Some(QuantWidth::I16),
            Precision::Int8 => Some(QuantWidth::I8),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One layer of a [`QuantizedModel`]: the weight quantized once at
/// construction, the bias and activation kept in f32 (bias addition and the
/// non-linearity run at the layer boundary, after dequantization).
#[derive(Debug, Clone)]
pub struct QuantizedLayer {
    /// Quantized weight matrix `in_dim × out_dim`.
    pub weight: QuantizedTensor,
    /// Bias row `1 × out_dim`, kept in f32.
    pub bias: Tensor,
    /// Post-layer activation.
    pub activation: Activation,
}

/// A [`GnnModel`] whose parameters were quantized **once** into integer
/// storage, with a forward pass that computes on the integer payloads.
///
/// This replaces the old clone-the-model-and-round-trip-every-parameter
/// emulation: construction quantizes each weight matrix a single time, and
/// every subsequent [`QuantizedModel::forward`] call reuses that storage.
/// Serving paths that answer many requests against one model should build
/// this once and call it repeatedly.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    config: ModelConfig,
    layers: Vec<QuantizedLayer>,
    width: QuantWidth,
    kernel: KernelKind,
    workers: usize,
}

impl QuantizedModel {
    /// Quantizes `model`'s weights at `width`. Kernel selection and worker
    /// count carry over from the source model (`ParallelCsr` maps to the
    /// pool-parallel quantized SpMM, everything else to the scalar one).
    pub fn from_model(model: &GnnModel, width: QuantWidth) -> Self {
        let layers = model
            .layers()
            .iter()
            .map(|layer| QuantizedLayer {
                weight: QuantizedTensor::quantize(&layer.weight, width),
                bias: layer.bias.clone(),
                activation: layer.activation,
            })
            .collect();
        Self {
            config: model.config().clone(),
            layers,
            width,
            kernel: model.kernel(),
            workers: model.workers(),
        }
    }

    /// The integer width this model computes at.
    pub fn width(&self) -> QuantWidth {
        self.width
    }

    /// The quantized layers.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// Runs quantized inference and returns the (f32) logits.
    ///
    /// Per layer: the current activations are quantized at this model's
    /// width, aggregated against the quantized propagation matrix and
    /// combined with the quantized weight entirely in the integer domain,
    /// then dequantized for the f32 bias/activation/residual tail — one
    /// quantization per operator input, one dequantization per operator
    /// output, exactly the accumulation contract `crate::qkernels`
    /// documents.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ModelGraphMismatch`] when the graph does
    /// not match the configuration.
    pub fn forward(&self, graph: &Graph) -> Result<Tensor> {
        let kernel = quant_kernel_for(self.kernel, self.workers);
        // The f32 layer loop with two substitutions: every propagation
        // matrix (attention's per-layer rebuilds included, scored from the
        // f32 activations) is quantized like any other operand, and the
        // layer step is the integer one.
        forward_layers(
            &self.config,
            graph,
            &self.layers,
            |propagation| QuantizedCsr::quantize(&propagation, self.width),
            |layer, propagation, h| {
                graph_conv_forward_quant(layer, propagation, h, kernel.as_ref(), self.workers)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::masked_accuracy;
    use crate::models::ModelConfig;
    use crate::train::{TrainConfig, Trainer};
    use gcod_graph::{DatasetProfile, GraphGenerator};

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let t = Tensor::from_vec(2, 3, vec![0.5, -1.0, 0.25, 1.27, -0.9, 0.0]).unwrap();
        for width in [QuantWidth::I8, QuantWidth::I16] {
            let q = QuantizedTensor::quantize(&t, width);
            // Error bound of symmetric quantization: scale / 2.
            assert!(
                q.max_error(&t) <= q.error_bound() + 1e-6,
                "{}",
                width.name()
            );
            assert_eq!(q.rows(), 2);
            assert_eq!(q.cols(), 3);
            assert_eq!(q.width(), width);
        }
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let t = Tensor::zeros(3, 3);
        let q = QuantizedTensor::quantize(&t, QuantWidth::I8);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn quantized_storage_shrinks_with_width() {
        let t = Tensor::zeros(64, 64);
        let q8 = QuantizedTensor::quantize(&t, QuantWidth::I8);
        let q16 = QuantizedTensor::quantize(&t, QuantWidth::I16);
        let fp32_bytes = t.len() * 4;
        assert_eq!(q8.values().storage_bytes() * 4, fp32_bytes);
        assert_eq!(q16.values().storage_bytes() * 2, fp32_bytes);
    }

    #[test]
    fn precision_byte_widths_and_names() {
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Int16.bytes(), 2);
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Fp32.name(), "fp32");
        assert_eq!(Precision::Int16.name(), "int16");
        assert_eq!(Precision::Int8.name(), "int8");
        assert_eq!(Precision::Fp32.quant_width(), None);
        assert_eq!(Precision::Int16.quant_width(), Some(QuantWidth::I16));
        assert_eq!(Precision::Int8.quant_width(), Some(QuantWidth::I8));
        assert_eq!(Precision::default(), Precision::Fp32);
    }

    fn small_graph(seed: u64) -> Graph {
        GraphGenerator::new(seed)
            .generate(&DatasetProfile::custom("q", 100, 300, 16, 4))
            .unwrap()
    }

    #[test]
    fn quantized_model_accuracy_close_to_fp32() {
        let g = small_graph(4);
        let mut model = GnnModel::new(ModelConfig::gcn(&g), 0).unwrap();
        Trainer::new(TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        })
        .fit(&mut model, &g)
        .unwrap();
        // Both accuracies come from real kernels: the INT8 side runs the
        // integer path, not weights round-tripped through int8 in f32.
        let accuracy = |logits: &Tensor| masked_accuracy(logits, g.labels(), g.test_mask());
        let fp32 = accuracy(&model.forward(&g).unwrap());
        let int8_model = QuantizedModel::from_model(&model, QuantWidth::I8);
        let drop = fp32 - accuracy(&int8_model.forward(&g).unwrap());
        // Table VII reports sub-1% drops; allow a loose bound for the small
        // synthetic graph.
        assert!(drop.abs() < 0.1, "unexpected quantization drop {drop}");
    }

    #[test]
    fn int16_tracks_f32_tighter_than_int8() {
        let g = small_graph(7);
        let model = GnnModel::new(ModelConfig::gcn(&g), 3).unwrap();
        let fp32 = model.forward(&g).unwrap();
        let int8 = QuantizedModel::from_model(&model, QuantWidth::I8)
            .forward(&g)
            .unwrap();
        let int16 = QuantizedModel::from_model(&model, QuantWidth::I16)
            .forward(&g)
            .unwrap();
        let drift8 = fp32.sub(&int8).unwrap().norm();
        let drift16 = fp32.sub(&int16).unwrap().norm();
        assert!(
            drift16 < drift8,
            "int16 drift {drift16} should beat int8 drift {drift8}"
        );
        assert!(drift16 / fp32.norm().max(1e-9) < 0.01);
        assert!(drift8 / fp32.norm().max(1e-9) < 0.2);
    }

    #[test]
    fn quantized_path_is_worker_and_kernel_invariant() {
        let g = small_graph(13);
        let base = GnnModel::new(ModelConfig::gcn(&g), 6).unwrap();
        let quantized = QuantizedModel::from_model(&base, QuantWidth::I8);
        assert_eq!(quantized.width(), QuantWidth::I8);
        let reference = quantized.forward(&g).unwrap();
        for kernel in KernelKind::all() {
            for workers in [0usize, 1, 2, 3] {
                let model = GnnModel::new(ModelConfig::gcn(&g), 6)
                    .unwrap()
                    .with_kernel(kernel)
                    .with_workers(workers);
                let out = QuantizedModel::from_model(&model, QuantWidth::I8)
                    .forward(&g)
                    .unwrap();
                assert_eq!(out, reference, "{} {}w", kernel.name(), workers);
            }
        }
    }

    #[test]
    fn residual_model_runs_quantized() {
        let g = small_graph(17);
        let mut cfg = ModelConfig::resgcn(&g);
        cfg.num_layers = 4;
        cfg.hidden_dim = 16;
        let model = GnnModel::new(cfg, 1).unwrap();
        let fp32 = model.forward(&g).unwrap();
        let q = QuantizedModel::from_model(&model, QuantWidth::I16)
            .forward(&g)
            .unwrap();
        assert_eq!(q.shape(), fp32.shape());
        let rel = fp32.sub(&q).unwrap().norm() / fp32.norm().max(1e-9);
        assert!(rel < 0.05, "residual quantized drift {rel}");
    }
}
