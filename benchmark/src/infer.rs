//! The two offline-inference workloads: one caller, full-graph forward, an
//! fp32 phase then an int8 phase on a held `QuantizedModel`. `infer_agg` is
//! aggregation-heavy (≈1 M non-zeros, narrow features: propagation build and
//! SpMM dominate); `infer_comb` is combination-heavy (Cora's 1433-wide X·W
//! and activation quantisation dominate). An optimisation of one side must
//! move one workload and leave the other alone.

use crate::probes;
use crate::replay;
use crate::run::{timed_ops, Outcome, RunConfig};
use crate::stats::{self, Timed};
use crate::trace::Tracer;
use gcod_graph::{DatasetProfile, Graph, GraphGenerator};
use gcod_nn::models::{GnnModel, ModelConfig};
use gcod_nn::quant::QuantizedModel;
use gcod_nn::Tensor;
use std::time::Instant;

/// Untimed forward passes per precision after the cold one.
const WARM_UP_OPS: usize = 2;
/// Rounds of an untraced run (see `RunConfig::rounds`).
const ROUNDS: usize = 3;
/// Seconds, or a little more, that one precision runs before the other takes
/// its turn.
const BLOCK_S: f64 = 1.0;

/// Which inference workload: its fixture and its recorded int8 floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `custom(20 000 nodes, 500 000 edges, 64 feats, 8 classes)`.
    Aggregation,
    /// `DatasetProfile::cora()` at full scale, under a 64-wide hidden layer.
    Combination,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Aggregation => "infer_agg",
            Shape::Combination => "infer_comb",
        }
    }

    fn profile(self, cfg: &RunConfig) -> DatasetProfile {
        match self {
            Shape::Aggregation => {
                DatasetProfile::custom("infer-agg", cfg.size(20_000), cfg.size(500_000), 64, 8)
            }
            Shape::Combination if cfg.quick => DatasetProfile::cora().scaled(0.25),
            Shape::Combination => DatasetProfile::cora(),
        }
    }

    /// The paper's two-layer GCN. The combination workload takes Table IV's
    /// wider hidden layer (64, not the 16 `ModelConfig::gcn` picks for a graph
    /// this small): GCN aggregates before it combines, so at 16 the 1433-wide
    /// SpMM (and the allocation of its output) outweighs the GEMM, 51 % to
    /// 22 % of the op on the reference box under the default allocator, and
    /// the workload would not discriminate. At 64 the GEMM is the largest
    /// share.
    fn model_config(self, graph: &Graph) -> ModelConfig {
        match self {
            Shape::Aggregation => ModelConfig::gcn(graph),
            Shape::Combination => ModelConfig {
                hidden_dim: 64,
                ..ModelConfig::gcn(graph)
            },
        }
    }

    /// Lowest share of nodes on which int8 and fp32 must agree on the argmax
    /// class. The model is untrained and the share moves with the seed
    /// (0.886–0.998 on `infer_agg`, 0.945–0.998 on `infer_comb` over seeds
    /// 1–60), so the floor sits 0.03 under the lowest of those, where a broken
    /// integer path (agreement near 1/classes) still trips it; a subtler
    /// change shows in the exact per-seed `nn.int8_argmax_agree`.
    /// `BENCHMARK.json` has no key for the floors, so they are recorded here
    /// and in the README.
    fn int8_agreement_floor(self) -> f64 {
        match self {
            Shape::Aggregation => 0.85,
            Shape::Combination => 0.91,
        }
    }
}

struct Fixture {
    profile: DatasetProfile,
    graph: Graph,
    model: GnnModel,
    int8: QuantizedModel,
    /// Output of the cold fp32 / int8 op; every later op must reproduce it.
    first: Tensor,
    first_int8: Tensor,
    replay_exact: bool,
}

fn build_fixture(cfg: &RunConfig, shape: Shape) -> Result<Fixture, String> {
    let profile = shape.profile(cfg);
    let graph = GraphGenerator::new(cfg.seed)
        .generate(&profile)
        .map_err(|e| format!("generate: {e}"))?;
    let model =
        GnnModel::new(shape.model_config(&graph), cfg.seed).map_err(|e| format!("model: {e}"))?;
    let int8 = replay::int8_model(&model);
    let forward =
        |what: &str, out: gcod_nn::Result<Tensor>| out.map_err(|e| format!("{what}: {e}"));
    let first = forward("cold fp32 forward", model.forward(&graph))?;
    let first_int8 = forward("cold int8 forward", int8.forward(&graph))?;
    for _ in 0..WARM_UP_OPS {
        forward("warm-up fp32 forward", model.forward(&graph))?;
        forward("warm-up int8 forward", int8.forward(&graph))?;
    }
    // The decomposed replay the traced run times must be the same computation.
    let scratch = Tracer::new();
    let mut rec = scratch.recorder();
    let replay_exact = replay::bit_equal(&replay::forward(&mut rec, &graph, &model), &first)
        && replay::bit_equal(
            &replay::quantized_forward(&mut rec, &graph, &model, &int8),
            &first_int8,
        );
    Ok(Fixture {
        profile,
        graph,
        model,
        int8,
        first,
        first_int8,
        replay_exact,
    })
}

/// The checks and facts a fixture yields before anything is timed.
fn describe(outcome: &mut Outcome, cfg: &RunConfig, shape: Shape, fx: &Fixture) {
    let agreement = replay::argmax_agreement(&fx.first, &fx.first_int8);
    outcome.check(
        "decomposed replay bit-identical to forward (fp32 and int8)",
        fx.replay_exact,
    );
    outcome.check(
        "int8 argmax agreement at or above the recorded floor",
        cfg.quick || agreement >= shape.int8_agreement_floor(),
    );
    outcome.notes.push(format!(
        "{}: {} nodes, {} nnz, {} features; int8 argmax agreement {agreement:.4} (floor {:.4})",
        fx.profile.name,
        fx.graph.num_nodes(),
        fx.graph.adjacency().nnz(),
        fx.graph.feature_dim(),
        shape.int8_agreement_floor()
    ));
    if shape == Shape::Aggregation {
        outcome.notes.push(
            "working set (~8 MB adjacency + ~5 MB features) exceeds the 4 MiB per-core L2 but \
             fits the reference box's 260 MiB shared L3: not a DRAM-bandwidth test"
                .to_string(),
        );
    }
}

fn fp32_forward(fx: &Fixture) -> Tensor {
    fx.model
        .forward(&fx.graph)
        .expect("fixture forward succeeded before")
}

fn int8_forward(fx: &Fixture) -> Tensor {
    fx.int8
        .forward(&fx.graph)
        .expect("fixture forward succeeded before")
}

/// One op: its latency in ms and whether its output was `first` again.
fn timed_op(first: &Tensor, forward: impl FnOnce() -> Tensor) -> (f64, bool) {
    let before = Instant::now();
    let out = std::hint::black_box(forward());
    let ms = before.elapsed().as_secs_f64() * 1e3;
    (ms, replay::bit_equal(&out, first))
}

/// Times `forward` for `seconds`, checking every output against `first`;
/// returns the ops and how many outputs differed.
fn phase(
    seconds: f64,
    first: &Tensor,
    mut forward: impl FnMut() -> Tensor,
) -> Result<(Timed, u64), String> {
    let mut differing = 0u64;
    let timed = timed_ops(seconds, 1, || {
        let (ms, same) = timed_op(first, &mut forward);
        differing += u64::from(!same);
        Ok(ms)
    })?;
    Ok((timed, differing))
}

/// The untraced run: rounds of a fresh fixture each, in which the two
/// precisions take turns in blocks of [`BLOCK_S`], so that a busy spell of
/// the host falls on both alike and each sees the whole run. Blocks, not
/// single ops: an op straight after one of the other precision starts on
/// the other's caches and allocator state, which would tie each precision's
/// metric to the other's code; the fastest op of a block does not.
fn end_to_end(cfg: &RunConfig, shape: Shape) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (mut fp32, mut int8) = (Timed::default(), Timed::default());
    let rounds = cfg.rounds(ROUNDS);
    for round in 0..rounds {
        let fx = outcome.set_up(|| build_fixture(cfg, shape))?;
        if round == 0 {
            describe(&mut outcome, cfg, shape, &fx);
        }
        // Whole turns of both precisions, as many as fit the round.
        let round_s = cfg.seconds / rounds as f64;
        let turns = ((round_s / (2.0 * BLOCK_S)) as usize).max(1);
        let block_s = round_s / (2 * turns) as f64;
        for _ in 0..turns {
            let (ops, differing) = phase(block_s, &fx.first, || fp32_forward(&fx))?;
            outcome.failed += differing;
            fp32.append(ops);
            let (ops, differing) = phase(block_s, &fx.first_int8, || int8_forward(&fx))?;
            outcome.failed += differing;
            int8.append(ops);
        }
    }
    outcome.attempted = (fp32.len() + int8.len()) as u64;
    outcome.check(
        "every op's output bit-identical to the first",
        outcome.failed == 0,
    );
    outcome.notes.push(format!(
        "whole run: fp32 {} ops, pooled median {:.3} ms; int8 {} ops, pooled median {:.3} ms",
        fp32.len(),
        stats::median(&fp32.ms),
        int8.len(),
        stats::median(&int8.ms)
    ));
    outcome.set_setup();
    outcome.set_fastest("op_p50_ms", &fp32);
    outcome.set_fastest("int8_op_p50_ms", &int8);
    outcome.set("ops_per_s", 1e3 / fp32.fastest());
    // ~60 ops a precision leave no sample beyond a 99th percentile.
    outcome.mirror_p50(&["op_p99_ms"]);
    outcome.set_peak_rss();
    Ok(outcome)
}

pub fn run(cfg: &RunConfig, shape: Shape) -> Result<Outcome, String> {
    if !cfg.trace {
        return end_to_end(cfg, shape);
    }
    let mut outcome = Outcome::default();
    let fx = build_fixture(cfg, shape)?;
    describe(&mut outcome, cfg, shape, &fx);

    let tracer = Tracer::new();
    let mut rec = tracer.recorder();
    let (plain, plain_differing) = phase(cfg.seconds * 0.3, &fx.first, || fp32_forward(&fx))?;
    let (traced, traced_differing) = phase(cfg.seconds * 0.3, &fx.first, || {
        rec.begin_op();
        replay::forward(&mut rec, &fx.graph, &fx.model)
    })?;
    let (int8, int8_differing) = phase(cfg.seconds * 0.25, &fx.first_int8, || {
        rec.begin_op();
        replay::quantized_forward(&mut rec, &fx.graph, &fx.model, &fx.int8)
    })?;
    outcome.attempted = (plain.len() + traced.len() + int8.len()) as u64;
    outcome.failed = plain_differing + traced_differing + int8_differing;
    outcome.check(
        "every op's output bit-identical to the first",
        outcome.failed == 0,
    );
    // Two phases a few seconds apart: their fastest ops are what the host
    // disturbs least. The shares below are medians over medians of one run.
    let (plain_best, traced_best) = (plain.fastest(), traced.fastest());
    outcome.set(
        "trace.overhead_share",
        (traced_best - plain_best) / plain_best,
    );
    let (plain_p50, traced_p50) = (stats::median(&plain.ms), stats::median(&traced.ms));

    probes::host_and_runtime(&mut rec, &mut outcome.metrics, cfg.micro_reps());
    probes::graph(&mut rec, &fx.profile, cfg.seed, &fx.graph, cfg.probe_reps());
    probes::nn(
        &mut rec,
        &mut outcome.metrics,
        cfg.seed,
        &fx.graph,
        &fx.model,
        cfg.probe_reps(),
    );
    drop(rec);
    let trace = tracer.finish();
    outcome.set(
        "trace.unattributed_share",
        trace.unattributed_share("nn", "forward"),
    );
    outcome.finish_trace(&trace, shape.name(), cfg.seed);
    outcome.notes.push(format!(
        "untraced op p50 {plain_p50:.3} ms over {} ops; traced replay p50 {traced_p50:.3} ms over {} ops",
        plain.len(),
        traced.len()
    ));
    // Where the op goes: the discrimination the two inference shapes exist for.
    let shares: Vec<String> = [
        "graph.normalize_ms",
        "nn.propagation_build_ms",
        "nn.spmm_ms",
        "nn.matmul_ms",
    ]
    .iter()
    .map(|name| format!("{name} {:.1} %", outcome.metrics[*name] / plain_p50 * 100.0))
    .collect();
    outcome.notes.push(format!(
        "share of the untraced op p50: {}",
        shares.join(", ")
    ));
    Ok(outcome)
}
