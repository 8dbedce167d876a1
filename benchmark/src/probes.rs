//! Per-layer probes of a traced run: each times calls into one crate's
//! public functions under a span, on the workload's own fixture. Timings are
//! read back from the trace (median over spans) by [`derive_timings`]; exact
//! counts and computed sizes go straight into the metric map.

use crate::host;
use crate::load::{self, LoadResult, MODEL, NODES_PER_REQUEST};
use crate::replay;
use crate::stats::{self, SplitMix64};
use crate::trace::{Recorder, Trace};
use gcod::SuiteRequests;
use gcod_accel::config::AcceleratorConfig;
use gcod_accel::GcodAccelerator;
use gcod_core::{structural_sparsify, GcodConfig, Polarizer, SplitWorkload, SubgraphLayout};
use gcod_graph::{
    normalize_symmetric, DatasetProfile, Graph, GraphGenerator, PartitionConfig, Partitioner,
    QuantWidth, QuantizedCsr, SelfLoops,
};
use gcod_nn::kernels::KernelKind;
use gcod_nn::loss::masked_cross_entropy;
use gcod_nn::models::GnnModel;
use gcod_nn::quant::QuantizedModel;
use gcod_nn::sparse_ops::{spmm_csc, spmm_macs};
use gcod_nn::train::{TrainConfig, Trainer};
use gcod_nn::Tensor;
use gcod_platform::Platform;
use gcod_runtime::{Pool, Reactor, SyncQueue};
use gcod_serve::{
    Handle, ServeRequest, ServedModel, Server, ShardOptions, ShardTransportStats, ShardedModel,
};
use gcod_shard::{crc32, read_frame, write_frame, ShardPlan, ShardPlanConfig, ShardReply};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Metric name → value, in name order.
pub type Metrics = BTreeMap<String, f64>;

fn set(metrics: &mut Metrics, name: &str, value: f64) {
    metrics.insert(name.to_string(), value);
}

/// How a timing metric is read from the trace.
enum Read {
    /// Median over every span of the name.
    Median,
    /// Median over ops of the op's summed spans ("per forward").
    PerOp,
}

/// `(metric, layer, span, how, unit per ms)` — the one place that maps span
/// names to per-layer timing metrics. A span that a workload never records
/// leaves its metric unset, which the runner reports as "not exercised".
#[rustfmt::skip] // one metric per line reads as the table it is
const TIMINGS: &[(&str, &str, &str, Read, f64)] = &[
    ("runtime.dispatch_us", "runtime", "dispatch", Read::Median, 1e3),
    ("runtime.queue_roundtrip_us", "runtime", "queue_roundtrip", Read::Median, 1e3),
    ("runtime.reactor_wake_us", "runtime", "reactor_wake", Read::Median, 1e3),
    ("graph.generate_ms", "graph", "generate", Read::Median, 1.0),
    ("graph.normalize_ms", "graph", "normalize", Read::Median, 1.0),
    ("graph.partition_ms", "graph", "partition", Read::Median, 1.0),
    ("graph.quantize_csr_ms", "graph", "quantize_csr", Read::Median, 1.0),
    ("nn.propagation_build_ms", "nn", "propagation_build", Read::Median, 1.0),
    ("nn.spmm_ms", "nn", "spmm", Read::PerOp, 1.0),
    ("nn.spmm_naive_ms", "nn", "spmm_naive", Read::Median, 1.0),
    ("nn.spmm_tiled_ms", "nn", "spmm_tiled", Read::Median, 1.0),
    ("nn.spmm_parallel_ms", "nn", "spmm_parallel", Read::Median, 1.0),
    ("nn.spmm_binned_ms", "nn", "spmm_binned", Read::Median, 1.0),
    ("nn.spmm_csc_ms", "nn", "spmm_csc", Read::Median, 1.0),
    ("nn.matmul_ms", "nn", "matmul", Read::PerOp, 1.0),
    ("nn.bias_act_ms", "nn", "bias_act", Read::PerOp, 1.0),
    ("nn.gather_rows_ms", "nn", "gather_rows", Read::Median, 1.0),
    ("nn.quantize_ms", "nn", "quantize", Read::PerOp, 1.0),
    ("nn.qspmm_ms", "nn", "qspmm", Read::PerOp, 1.0),
    ("nn.qmatmul_ms", "nn", "qmatmul", Read::PerOp, 1.0),
    ("nn.weight_quantize_ms", "nn", "weight_quantize", Read::Median, 1.0),
    ("nn.forward_cached_ms", "nn", "forward_cached", Read::Median, 1.0),
    ("nn.backward_ms", "nn", "backward", Read::Median, 1.0),
    ("nn.train_epoch_ms", "nn", "train_epoch", Read::Median, 1.0),
    ("core.layout_ms", "core", "layout", Read::Median, 1.0),
    ("core.polarize_ms", "core", "polarize", Read::Median, 1.0),
    ("core.structural_ms", "core", "structural", Read::Median, 1.0),
    ("core.split_extract_ms", "core", "split_extract", Read::Median, 1.0),
    ("core.pipeline_ms", "core", "pipeline", Read::Median, 1.0),
    ("accel.simulate_ms", "accel", "simulate", Read::Median, 1.0),
    ("baselines.simulate_all_ms", "baselines", "simulate_all", Read::Median, 1.0),
    ("serve.submit_us", "serve", "submit", Read::Median, 1e3),
    ("serve.serve_one_ms", "serve", "serve_one", Read::Median, 1.0),
    ("serve.route_us", "serve", "route", Read::Median, 1e3),
    ("shard.plan_build_ms", "shard", "plan_build", Read::Median, 1.0),
    ("shard.launch_ms", "shard", "launch", Read::Median, 1.0),
    ("shard.cold_pass_ms", "shard", "cold_pass", Read::Median, 1.0),
    ("shard.gather_us", "shard", "gather", Read::Median, 1e3),
    ("shard.frame_write_us", "shard", "frame_write", Read::Median, 1e3),
    ("shard.frame_read_us", "shard", "frame_read", Read::Median, 1e3),
];

/// Bytes the CRC probe checksums per span.
const CRC_BYTES: usize = 1 << 20;

/// Fills every timing metric from the finished trace, plus the ratios that
/// need a timing as their base.
pub fn derive_timings(trace: &Trace, metrics: &mut Metrics) {
    for (metric, layer, span, how, per_ms) in TIMINGS {
        if !trace.has(layer, span) {
            continue;
        }
        let ms = match how {
            Read::Median => trace.median_ms(layer, span),
            Read::PerOp => trace.median_per_op_ms(layer, span),
        };
        set(metrics, metric, ms * per_ms);
    }
    let crc_ms = trace.median_ms("shard", "crc32");
    if crc_ms > 0.0 {
        set(
            metrics,
            "shard.crc32_gbps",
            CRC_BYTES as f64 / (crc_ms / 1e3) / 1e9,
        );
    }
    // Roofline position of the model's kernel: computed bytes over measured
    // time, as a share of what a plain memcpy moves on this box.
    let (spmm_ms, bytes, memcpy) = (
        metrics.get("nn.spmm_ms").copied().unwrap_or(0.0),
        metrics.get("nn.spmm_bytes").copied().unwrap_or(0.0),
        metrics.get("host.memcpy_gbps").copied().unwrap_or(0.0),
    );
    if spmm_ms > 0.0 && memcpy > 0.0 {
        set(
            metrics,
            "nn.spmm_bw_frac",
            bytes / (spmm_ms / 1e3) / 1e9 / memcpy,
        );
    }
}

/// Host facts and the runtime primitives every layer above is built from.
pub fn host_and_runtime(rec: &mut Recorder<'_>, metrics: &mut Metrics, reps: usize) {
    let pool = Pool::global();
    set(metrics, "host.nproc", host::nproc() as f64);
    set(metrics, "runtime.pool_workers", pool.workers() as f64);
    set(metrics, "host.memcpy_gbps", host::memcpy_gbps(5));

    // One pool dispatch over trivial ranges: the fixed cost a parallel kernel
    // pays per call.
    let lanes = pool.workers().max(1);
    let mut out = vec![0u8; lanes];
    for _ in 0..reps {
        rec.span("runtime", "dispatch", |_| {
            pool.parallel_for_ranges(lanes, &mut out, 0, |_| 1, |_range, _chunk| {});
        });
    }

    // One-way hand-off latencies across two threads, timed from the push (or
    // wake) on this thread to the pop (or wait) returning on the other.
    let requests: SyncQueue<Instant> = SyncQueue::unbounded();
    let wakes = Reactor::new();
    let seen: SyncQueue<Instant> = SyncQueue::unbounded();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while requests.pop().is_some() {
                let _ = seen.try_push(Instant::now());
            }
            loop {
                let wake = wakes.wait();
                if wake.closed {
                    break;
                }
                let _ = seen.try_push(Instant::now());
            }
        });
        for _ in 0..reps {
            let sent = Instant::now();
            let _ = requests.try_push(sent);
            let received = seen.pop().expect("echo thread is alive");
            rec.observed("runtime", "queue_roundtrip", sent, received);
        }
        requests.close();
        let waker = wakes.waker(1);
        for _ in 0..reps {
            let sent = Instant::now();
            waker.wake();
            let received = seen.pop().expect("echo thread is alive");
            rec.observed("runtime", "reactor_wake", sent, received);
        }
        wakes.close();
    });
}

/// `gcod-graph` on the workload's own graph: fixture generation, the
/// symmetric normalisation every GCN forward rebuilds, and the partitioner.
pub fn graph(
    rec: &mut Recorder<'_>,
    profile: &DatasetProfile,
    seed: u64,
    graph: &Graph,
    reps: usize,
) {
    let adjacency = graph.adjacency();
    for _ in 0..reps {
        rec.span("graph", "generate", |_| {
            GraphGenerator::new(seed).generate(profile)
        })
        .expect("the fixture was generated from this profile");
        rec.span("graph", "normalize", |_| {
            normalize_symmetric(adjacency, SelfLoops::Add)
        });
        // The partitioner call `SubgraphLayout::build` and `ShardPlan::build`
        // share, at the shard plan's two parts.
        rec.span("graph", "partition", |_| {
            Partitioner::new(PartitionConfig::k_way(2)).partition(adjacency)
        })
        .expect("two parts of a generated graph");
    }
}

/// `gcod-nn` on the workload's own graph and model: the forward pass call by
/// call at fp32 and int8, every SpMM kernel on the layer-0 operand, the
/// serving row gather, and one training step.
pub fn nn(
    rec: &mut Recorder<'_>,
    metrics: &mut Metrics,
    seed: u64,
    graph: &Graph,
    model: &GnnModel,
    reps: usize,
) {
    let features = replay::input_features(graph);
    let propagation = model.config().propagation().matrix(graph, &features);
    let quantized_propagation = QuantizedCsr::quantize(&propagation, QuantWidth::I8);
    set(metrics, "graph.nnz", propagation.nnz() as f64);
    set(
        metrics,
        "graph.csr_bytes",
        quantized_propagation.storage_bytes() as f64,
    );

    // The forward pass from its public pieces, both precisions.
    let held = replay::int8_model(model);
    let mut logits = None;
    let mut int8_logits = None;
    for _ in 0..reps {
        rec.begin_op();
        logits = Some(replay::forward(rec, graph, model));
        rec.begin_op();
        int8_logits = Some(replay::quantized_forward(rec, graph, model, &held));
        rec.span("nn", "weight_quantize", |_| {
            QuantizedModel::from_model(model, QuantWidth::I8)
        });
    }
    let (logits, int8_logits) = (logits.expect("reps >= 1"), int8_logits.expect("reps >= 1"));
    set(
        metrics,
        "nn.int8_argmax_agree",
        replay::argmax_agreement(&logits, &int8_logits),
    );

    // Work and computed bytes of one forward's aggregation and combination.
    let n = graph.num_nodes() as u64;
    let (mut macs, mut bytes, mut gemm_macs) = (0u64, 0u64, 0u64);
    for layer in model.layers() {
        let (d_in, d_out) = (layer.in_dim() as u64, layer.out_dim() as u64);
        macs += spmm_macs(propagation.nnz(), layer.in_dim());
        // CSR operand read once, X read and A·X written once (ideal reuse).
        bytes += propagation.storage_bytes() as u64 + 2 * n * d_in * 4;
        gemm_macs += n * d_in * d_out;
    }
    set(metrics, "nn.spmm_macs", macs as f64);
    set(metrics, "nn.spmm_bytes", bytes as f64);
    set(metrics, "nn.matmul_macs", gemm_macs as f64);

    // Kernel triage on the layer-0 operand (ROADMAP item 3).
    let csc = propagation.to_csc();
    for _ in 0..reps {
        for (kind, span) in [
            (KernelKind::NaiveCsr, "spmm_naive"),
            (KernelKind::TiledCsr, "spmm_tiled"),
            (KernelKind::ParallelCsr, "spmm_parallel"),
            (KernelKind::DegreeBinned, "spmm_binned"),
        ] {
            let kernel = kind.build();
            rec.span("nn", span, |_| kernel.spmm(&propagation, &features))
                .expect("spmm shapes");
        }
        rec.span("nn", "spmm_csc", |_| spmm_csc(&csc, &features))
            .expect("spmm shapes");
    }

    // The row gather a fused serving batch pays (32 requests of 8 nodes).
    let batch = SplitMix64::stream(seed, 0x6A7).nodes(32 * NODES_PER_REQUEST, graph.num_nodes());
    for _ in 0..reps.max(20) {
        rec.span("nn", "gather_rows", |_| logits.gather_rows(&batch))
            .expect("nodes in range");
    }

    // One training step, whole and in halves.
    let trainer = Trainer::new(TrainConfig {
        epochs: 1,
        ..TrainConfig::default()
    });
    for _ in 0..reps {
        let cache = rec
            .span("nn", "forward_cached", |_| model.forward_cached(graph))
            .expect("model matches graph");
        let loss = masked_cross_entropy(&cache.logits, graph.labels(), graph.train_mask())
            .expect("labels match logits");
        rec.span("nn", "backward", |_| {
            model.backward(&cache, &loss.grad_logits)
        })
        .expect("backward shapes");
        let mut scratch = model.clone();
        rec.span("nn", "train_epoch", |_| trainer.fit(&mut scratch, graph))
            .expect("training step");
    }
}

/// An unspawned server over the workload's model: the synchronous oracle
/// path (`serve_one`) and the cost router.
pub fn serve_sync(rec: &mut Recorder<'_>, graph: &Graph, model: &GnnModel, seed: u64, reps: usize) {
    let server = Server::new().register(ServedModel::new(MODEL, graph.clone(), model.clone()));
    let mut rng = SplitMix64::stream(seed, 0x5E1);
    for _ in 0..reps {
        let nodes = rng.nodes(NODES_PER_REQUEST, graph.num_nodes());
        let request = ServeRequest::classify(MODEL, nodes.clone());
        rec.span("serve", "serve_one", |_| server.serve_one(&request))
            .expect("classification succeeds");
        rec.span("nn", "forward_rows", |_| model.forward_rows(graph, &nodes))
            .expect("nodes in range");
        let route = ServeRequest::predict_perf(MODEL);
        rec.span("serve", "route", |_| server.serve_one(&route))
            .expect("routing succeeds");
    }
}

/// `ServerStats` counters over a measured window, as per-layer counts.
pub fn server_stats_delta(
    metrics: &mut Metrics,
    before: &gcod_serve::ServerStats,
    after: &gcod_serve::ServerStats,
    load: &LoadResult,
) {
    let batches = after.batches - before.batches;
    let completed = after.completed_ok - before.completed_ok;
    set(
        metrics,
        "serve.mean_batch",
        completed as f64 / batches.max(1) as f64,
    );
    set(metrics, "serve.largest_batch", after.largest_batch as f64);
    set(
        metrics,
        "serve.rejected",
        (after.rejected - before.rejected) as f64,
    );
    set(metrics, "serve.shed", (after.shed - before.shed) as f64);
    set(
        metrics,
        "serve.expired",
        (after.expired - before.expired) as f64,
    );
    let missed = load.tally.offered - load.within_limit;
    set(
        metrics,
        "serve.slo_miss_share",
        missed as f64 / load.tally.offered.max(1) as f64,
    );
}

/// The fixed rate ladder of `serve.slo_rate_rps`.
pub const LADDER_RPS: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];

/// Saturation anchors on a live server: a closed loop with a 32-request
/// window, then the open-loop ladder. `serve.slo_rate_rps` is the highest
/// rung with p99 inside the limit, nothing refused, and a queue no deeper at
/// the end of the rung than at a quarter of it (give or take one fused
/// batch, `max_batch`: the two depths are single readings and a batch in
/// flight is not a backlog); the ladder stops at the first rung that misses,
/// since later rungs only offer more.
pub fn serve_capacity(
    metrics: &mut Metrics,
    handle: &Handle,
    oracle: &Tensor,
    seed: u64,
    rung_seconds: f64,
    max_batch: usize,
) -> load::Tally {
    let mut tally = load::Tally::default();
    let closed = load::closed_loop(handle, oracle, 1, 32, rung_seconds, seed, None);
    set(
        metrics,
        "serve.closed_b32_rps",
        closed.tally.ok as f64 / closed.wall_s.max(1e-9),
    );
    tally.add(&closed.tally);

    let mut slo_rate = 0.0;
    for rate in LADDER_RPS {
        let schedule = stats::poisson_schedule(seed ^ rate as u64, rate, rung_seconds);
        let rung = load::open_loop(handle, oracle, &schedule, seed, None);
        // Refusals on the ladder are the measurement, not a failed op: only
        // lost or wrong answers count against the run.
        tally.offered += rung.tally.offered;
        tally.ok += rung.tally.offered - rung.tally.lost - rung.tally.wrong;
        tally.lost += rung.tally.lost;
        tally.wrong += rung.tally.wrong;
        let p99 = stats::percentile(&stats::sorted(rung.ops.ms), 99.0);
        let met = p99 <= load::LATENCY_LIMIT.as_secs_f64() * 1e3
            && rung.tally.failed() == 0
            && rung.queue_depth.1 <= rung.queue_depth.0 + max_batch;
        if !met {
            break;
        }
        slo_rate = rate;
    }
    set(metrics, "serve.slo_rate_rps", slo_rate);
    tally
}

/// Runs `probe` while one more thread spins, as the load thread does in the
/// serving workloads. A gather is a chain of thread hand-overs; with a core
/// taken the router and its workers share the other and hand over on it,
/// with both cores idle the scheduler spreads them and every hand-over wakes
/// a sleeping vCPU (81 against 25 us on the reference box), which is not
/// how the gather runs inside `serve_sharded_closed`. Alone on one core the
/// probe runs as it is.
fn beside_a_busy_core<T>(probe: impl FnOnce() -> T) -> T {
    if host::nproc() < 2 {
        return probe();
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let out = probe();
        done.store(true, Ordering::Relaxed);
        out
    })
}

/// A two-shard model of the probe's own: plan, launch, cold pass, steady
/// gathers, and the wire counters those leave behind.
pub fn shard(
    rec: &mut Recorder<'_>,
    metrics: &mut Metrics,
    graph: &Graph,
    model: &GnnModel,
    oracle: &Tensor,
    seed: u64,
    gathers: usize,
) -> Result<(), String> {
    let options = ShardOptions::new(2);
    let plan = rec
        .span("shard", "plan_build", |_| {
            ShardPlan::build(graph, model, &ShardPlanConfig::new(2))
        })
        .map_err(|e| format!("shard plan: {e}"))?;
    // Halo payload of the cold pass: after every layer but the last, each
    // halo slot receives one f32 row of that layer's output width.
    let halo_bytes: usize = model.layers()[..model.layers().len() - 1]
        .iter()
        .map(|layer| plan.total_halo_nodes() * layer.out_dim() * 4)
        .sum();
    set(metrics, "shard.halo_bytes_cold", halo_bytes as f64);

    let sharded = rec
        .span("shard", "launch", |_| {
            ShardedModel::launch(MODEL, graph, model, &options)
        })
        .map_err(|e| format!("shard launch: {e}"))?;
    let mut rng = SplitMix64::stream(seed, 0x5A4D);
    let first = rng.nodes(NODES_PER_REQUEST, graph.num_nodes());
    rec.span("shard", "cold_pass", |_| sharded.forward_rows(&first))
        .map_err(|e| format!("cold pass: {e}"))?;

    let before = sharded.stats();
    let mut exact = true;
    beside_a_busy_core(|| {
        for _ in 0..gathers {
            let nodes = rng.nodes(NODES_PER_REQUEST, graph.num_nodes());
            let rows = rec
                .span("shard", "gather", |_| sharded.forward_rows(&nodes))
                .map_err(|e| format!("gather: {e}"))?;
            exact &= replay::bit_equal(&rows, &oracle.gather_rows(&nodes).expect("nodes in range"));
        }
        Ok::<(), String>(())
    })?;
    let after = sharded.stats();
    shard_wire_counts(metrics, &before, &after, gathers as u64);
    sharded
        .shutdown()
        .map_err(|e| format!("shard shutdown: {e}"))?;
    if !exact {
        return Err("direct shard gathers differ from the oracle".to_string());
    }

    // Framing cost of one Gather reply, and the checksum's own rate.
    let reply = ShardReply::Rows(oracle.gather_rows(&first).expect("nodes in range"));
    let payload = vec![0xA5u8; CRC_BYTES];
    for _ in 0..gathers.min(500) {
        let mut wire = Vec::new();
        rec.span("shard", "frame_write", |_| write_frame(&mut wire, &reply))
            .map_err(|e| format!("frame write: {e}"))?;
        rec.span("shard", "frame_read", |_| {
            read_frame::<_, ShardReply>(&mut wire.as_slice())
        })
        .map_err(|e| format!("frame read: {e}"))?;
    }
    for _ in 0..20 {
        rec.span("shard", "crc32", |_| crc32(std::hint::black_box(&payload)));
    }
    Ok(())
}

/// Wire volume per request and the fault counters, from two snapshots of
/// the transport counters `requests` gathers apart.
pub fn shard_wire_counts(
    metrics: &mut Metrics,
    before: &ShardTransportStats,
    after: &ShardTransportStats,
    requests: u64,
) {
    let per = |delta: u64| delta as f64 / requests.max(1) as f64;
    let bytes =
        (after.bytes_sent - before.bytes_sent) + (after.bytes_received - before.bytes_received);
    let frames =
        (after.frames_sent - before.frames_sent) + (after.frames_received - before.frames_received);
    set(metrics, "shard.bytes_per_req", per(bytes));
    set(metrics, "shard.frames_per_req", per(frames));
    set(metrics, "shard.halo_nodes", after.halo_nodes as f64);
    set(metrics, "shard.retries", after.retries as f64);
    set(metrics, "shard.respawns", after.respawns as f64);
    set(metrics, "shard.fallbacks", after.fallbacks as f64);
    set(
        metrics,
        "shard.checksum_rejects",
        after.checksum_rejects as f64,
    );
}

/// `gcod-core` stage by stage (the structural half, as `Experiment::tune`
/// strings it together) and the accelerator simulator on one request.
pub fn codesign_stages(
    rec: &mut Recorder<'_>,
    graph: &Graph,
    config: &GcodConfig,
    requests: &SuiteRequests,
    seed: u64,
    reps: usize,
) -> Result<(), String> {
    let accelerator = GcodAccelerator::new(AcceleratorConfig::vcu128());
    for _ in 0..reps {
        let layout = rec
            .span("core", "layout", |_| {
                SubgraphLayout::build(graph, config, seed)
            })
            .map_err(|e| format!("layout: {e}"))?;
        let reordered = layout.apply(graph);
        let (tuned, _) = rec
            .span("core", "polarize", |_| {
                Polarizer::new(config.clone()).tune(reordered.adjacency(), &layout)
            })
            .map_err(|e| format!("polarize: {e}"))?;
        let (pruned, _) = rec.span("core", "structural", |_| {
            structural_sparsify(&tuned, &layout, config.patch_size, config.patch_threshold)
        });
        rec.span("core", "split_extract", |_| {
            SplitWorkload::extract(&pruned, &layout)
        });
        rec.span("accel", "simulate", |_| {
            accelerator.simulate(&requests.gcod_fp32)
        })
        .map_err(|e| format!("accelerator: {e}"))?;
    }
    Ok(())
}
