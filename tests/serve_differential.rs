//! Differential suite for the serving layer: batched inference through the
//! queued dispatcher must be **bit-identical** to one-by-one sequential
//! inference — across batch sizes, worker-lane counts and mixed-dataset
//! queues.
//!
//! The oracle is [`Server::serve_one`], which executes each request alone on
//! the calling thread. Every spawned-server run below compares full
//! [`ServeResponse`] values (logits included) against it with `assert_eq!`,
//! i.e. bitwise equality of every `f32`. Both gather from the served model's
//! cached logits, so one case pins the two of them against the uncached
//! `GnnModel::forward_rows` as well.
//!
//! Worker counts are exercised two ways: per-model lane counts {1, 2, auto}
//! inside one process here, and the whole suite re-runs under
//! `GCOD_WORKERS=2` in CI so the global pool itself is multi-lane.

use gcod::prelude::*;
use std::time::Duration;

/// Builds the three-model server fixture. Everything is seeded, so two
/// calls produce bit-identical servers — one can be the oracle while the
/// other is spawned.
fn build_server(workers: usize, config: ServerConfig) -> Server {
    let mut server = Server::with_config(config);
    for (name, nodes, degree, feat, classes, seed) in [
        ("small", 60usize, 3usize, 8usize, 3usize, 11u64),
        ("medium", 150, 4, 12, 4, 22),
        ("wide", 90, 5, 16, 5, 33),
    ] {
        let graph = GraphGenerator::new(seed)
            .generate(&DatasetProfile::custom(
                name,
                nodes,
                nodes * degree,
                feat,
                classes,
            ))
            .expect("generate fixture graph");
        let model = GnnModel::new(ModelConfig::gcn(&graph), seed).expect("model");
        server = server.register(
            ServedModel::new(format!("{name}-gcn"), graph, model)
                .with_kernel(KernelKind::ParallelCsr)
                .with_workers(workers),
        );
    }
    server
}

/// A mixed-dataset request stream: interleaved models, overlapping and
/// duplicated nodes, plus perf predictions riding along.
fn request_stream() -> Vec<ServeRequest> {
    vec![
        ServeRequest::classify("small-gcn", vec![0, 5, 9]),
        ServeRequest::classify("medium-gcn", vec![100, 3]),
        ServeRequest::classify("small-gcn", vec![9, 9, 40]),
        ServeRequest::predict_perf("wide-gcn"),
        ServeRequest::classify("wide-gcn", vec![88, 0, 17, 4]),
        ServeRequest::classify("medium-gcn", vec![3]),
        ServeRequest::classify("small-gcn", vec![59]),
        ServeRequest::predict_perf("small-gcn"),
        ServeRequest::classify("wide-gcn", vec![2, 2]),
        ServeRequest::classify("medium-gcn", vec![0, 149, 74]),
    ]
}

/// Runs `requests` through a spawned server (paused submission so the
/// dispatcher sees the whole stream at once, maximising coalescing) and
/// returns the responses in request order.
fn run_batched(server: Server, requests: &[ServeRequest]) -> Vec<gcod::Result<ServeResponse>> {
    run_batched_with(server, requests, SubmitOptions::default())
}

/// As [`run_batched`], with explicit per-submission options (deadlines put
/// the stream on the adaptive-batching path).
fn run_batched_with(
    server: Server,
    requests: &[ServeRequest],
    options: SubmitOptions,
) -> Vec<gcod::Result<ServeResponse>> {
    let handle = server.spawn();
    handle.pause();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| {
            handle
                .submit(r.clone(), options)
                .expect("queue sized for the stream")
        })
        .collect();
    handle.resume();
    let responses = tickets
        .into_iter()
        .map(|t| t.wait().map_err(gcod::Error::from))
        .collect();
    handle.shutdown();
    responses
}

fn oracle_responses(
    server: &Server,
    requests: &[ServeRequest],
) -> Vec<gcod::Result<ServeResponse>> {
    requests
        .iter()
        .map(|r| server.serve_one(r).map_err(gcod::Error::from))
        .collect()
}

#[test]
fn batched_inference_is_bit_identical_across_batch_sizes() {
    let requests = request_stream();
    let oracle = build_server(1, ServerConfig::default());
    let expected = oracle_responses(&oracle, &requests);
    // max_batch 1 disables fusing entirely; larger values coalesce 2, 4 or
    // the whole stream per model. All must produce identical bytes.
    for max_batch in [1usize, 2, 4, 32] {
        let config = ServerConfig {
            max_batch,
            ..ServerConfig::default()
        };
        let responses = run_batched(build_server(1, config), &requests);
        assert_eq!(responses, expected, "max_batch={max_batch}");
    }
}

#[test]
fn batched_inference_is_bit_identical_across_worker_counts() {
    let requests = request_stream();
    // Single-lane oracle: the reference bytes every lane count must hit.
    let expected = oracle_responses(&build_server(1, ServerConfig::default()), &requests);
    // 1 = serial, 2 = two lanes, 0 = auto (the global pool's count, which
    // CI also forces to 2 via GCOD_WORKERS for the whole suite).
    for workers in [1usize, 2, 0] {
        let sequential =
            oracle_responses(&build_server(workers, ServerConfig::default()), &requests);
        assert_eq!(sequential, expected, "sequential, workers={workers}");
        let batched = run_batched(build_server(workers, ServerConfig::default()), &requests);
        assert_eq!(batched, expected, "batched, workers={workers}");
    }
}

#[test]
fn answers_match_the_uncached_reference_forward_at_fp32_and_int8() {
    // `serve_one` shares the served model's cached logits with the batched
    // path, so it cannot vouch for the cache itself. This oracle can:
    // `GnnModel::forward_rows` recomputes the whole graph on every call.
    let graph = GraphGenerator::new(44)
        .generate(&DatasetProfile::custom("ref", 120, 480, 10, 4))
        .expect("generate");
    let model = GnnModel::new(ModelConfig::gcn(&graph), 44).expect("model");
    let queries: Vec<Vec<usize>> = vec![vec![0, 5, 9], vec![9, 9, 119], vec![60], vec![5, 0]];
    let requests: Vec<ServeRequest> = queries
        .iter()
        .map(|nodes| ServeRequest::classify("ref-gcn", nodes.clone()))
        .collect();
    for precision in [Precision::Fp32, Precision::Int8] {
        let reference = model.clone().with_precision(precision);
        let build = || {
            let served = ServedModel::new("ref-gcn", graph.clone(), model.clone());
            Server::new().register(served.with_precision(precision))
        };
        let sequential = oracle_responses(&build(), &requests);
        let batched = run_batched(build(), &requests);
        for ((nodes, sequential), batched) in queries.iter().zip(sequential).zip(batched) {
            let expected = reference.forward_rows(&graph, nodes).expect("reference");
            for response in [sequential, batched] {
                let response = response.expect("answer");
                let answer = response.as_classification().expect("classification");
                assert_eq!(answer.logits, expected, "{precision}, nodes {nodes:?}");
                assert_eq!(answer.classes, expected.argmax_rows());
            }
        }
    }
}

#[test]
fn mixed_dataset_queues_coalesce_per_model_only() {
    let requests = request_stream();
    let oracle = build_server(2, ServerConfig::default());
    let expected = oracle_responses(&oracle, &requests);

    let handle = build_server(2, ServerConfig::default()).spawn();
    handle.pause();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| handle.submit(r.clone(), SubmitOptions::default()).unwrap())
        .collect();
    handle.resume();
    for (ticket, expected) in tickets.into_iter().zip(expected) {
        assert_eq!(ticket.wait().map_err(gcod::Error::from), expected);
    }
    let stats = handle.shutdown();
    // The stream holds three small-gcn and three medium-gcn classifications
    // — the largest fused group must have coalesced a full set of three
    // despite the interleaving, and must not have over-coalesced across
    // models (no same-model run exceeds 3).
    assert_eq!(stats.largest_batch, 3);
    assert_eq!(stats.submitted, requests.len() as u64);
    assert_eq!(stats.completed_ok, requests.len() as u64);
}

#[test]
fn served_experiment_models_answer_identically_batched_and_sequential() {
    // End-to-end: a model trained through the full GCoD pipeline (the
    // Experiment::serve stage), served batched vs sequential.
    let fast = GcodConfig {
        num_classes: 2,
        num_subgraphs: 6,
        num_groups: 2,
        pretrain_epochs: 6,
        retrain_epochs: 4,
        prune_ratio: 0.1,
        patch_size: 16,
        patch_threshold: 6,
        ..GcodConfig::default()
    };
    let experiment = Experiment::on(DatasetProfile::custom("exp", 160, 550, 12, 4))
        .gcod(fast)
        .seed(5);
    let requests = vec![
        ServeRequest::classify("exp-gcn", vec![0, 7, 19]),
        ServeRequest::classify("exp-gcn", vec![19, 3]),
        ServeRequest::predict_perf("exp-gcn"),
        ServeRequest::classify("exp-gcn", vec![150]),
    ];
    let oracle = Server::new().register(experiment.serve().expect("train + package"));
    let expected = oracle_responses(&oracle, &requests);
    let batched = run_batched(
        Server::new().register(experiment.serve().expect("deterministic retrain")),
        &requests,
    );
    assert_eq!(batched, expected);
    // The trained model carries a split, so the perf route can choose the
    // GCoD accelerator when it wins on predicted cost.
    let perf = expected[2].as_ref().unwrap().as_perf().unwrap().clone();
    assert!(perf.candidates >= 11, "accelerators must be eligible");
}

#[test]
fn adaptive_batching_with_deadlines_is_bit_identical_across_fusion_windows() {
    // The adaptive batcher sizes each fused pass from the oldest queued
    // deadline and the observed service time. However the stream fragments
    // — any window in [1, max_batch], re-chosen per group once the
    // estimate warms — the bytes must match the fixed-window oracle.
    let requests = request_stream();
    let oracle = build_server(1, ServerConfig::default());
    let expected = oracle_responses(&oracle, &requests);
    // Generous deadlines: always on the adaptive path, never expiring.
    let options = SubmitOptions::default().deadline(Duration::from_secs(3600));
    for max_batch in [1usize, 2, 4, 32] {
        let config = ServerConfig {
            max_batch,
            ..ServerConfig::default()
        };
        let adaptive = run_batched_with(build_server(1, config.clone()), &requests, options);
        assert_eq!(adaptive, expected, "adaptive, max_batch={max_batch}");
        // And deadline-carrying traffic matches deadline-less traffic on
        // the same configuration — adaptivity never changes answers.
        let fixed = run_batched(build_server(1, config), &requests);
        assert_eq!(fixed, expected, "fixed, max_batch={max_batch}");
    }
}

#[test]
fn deadlines_and_backpressure_surface_through_the_facade_error() {
    let handle = build_server(
        1,
        ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    )
    .spawn();
    handle.pause();
    let expired = handle
        .submit(
            ServeRequest::classify("small-gcn", vec![0]),
            SubmitOptions::default().deadline(Duration::ZERO),
        )
        .unwrap();
    let _live = handle
        .submit(
            ServeRequest::classify("small-gcn", vec![0]),
            SubmitOptions::default(),
        )
        .unwrap();
    let full = handle
        .submit(
            ServeRequest::classify("small-gcn", vec![1]),
            SubmitOptions::default(),
        )
        .unwrap_err();
    // Rejections are hoisted into the facade's structured arm: one match,
    // reason included.
    assert!(matches!(
        gcod::Error::from(full),
        gcod::Error::Rejected(RejectReason::QueueFull { capacity: 2 })
    ));
    handle.resume();
    assert!(matches!(
        expired.wait().map_err(gcod::Error::from),
        Err(gcod::Error::Rejected(RejectReason::DeadlineExpired))
    ));
    handle.shutdown();
}
