//! Differential suite: a server answering classification from a
//! [`ShardedModel`] must be **bit-identical** to the same trained model
//! registered locally — for every shard count, on several dataset
//! profiles, over both socket flavours, and through both the synchronous
//! and the queued/batched serving paths.

use gcod_graph::{DatasetProfile, Graph, GraphGenerator};
use gcod_nn::models::{GnnModel, ModelConfig};
use gcod_serve::{
    ServeRequest, ServedModel, Server, ShardOptions, ShardedModel, SubmitOptions, Ticket,
};
use gcod_shard::TransportKind;

/// Deterministic graph+model pairs on two distinct dataset profiles.
fn workloads() -> Vec<(Graph, GnnModel)> {
    let profiles = [
        DatasetProfile::custom("shard-diff-a", 150, 600, 12, 5),
        DatasetProfile::custom("shard-diff-b", 220, 500, 8, 3),
    ];
    profiles
        .iter()
        .enumerate()
        .map(|(i, profile)| {
            let graph = GraphGenerator::new(40 + i as u64)
                .generate(profile)
                .expect("generate");
            let model = GnnModel::new(ModelConfig::gcn(&graph), 2 + i as u64).expect("model");
            (graph, model)
        })
        .collect()
}

fn query_sets(n: usize) -> Vec<Vec<usize>> {
    vec![
        vec![0],
        vec![n - 1, 0, n / 2],
        (0..n).step_by(7).collect(),
        vec![3, 3, 3, 5],
        (0..n).collect(),
    ]
}

#[test]
fn sharded_serving_is_bit_identical_for_k_1_2_4() {
    for (graph, model) in workloads() {
        let n = graph.num_nodes();
        let oracle = Server::new().register(ServedModel::new("m", graph.clone(), model.clone()));
        for k in [1usize, 2, 4] {
            let sharded =
                ShardedModel::launch("m", &graph, &model, &ShardOptions::new(k)).expect("launch");
            let server = Server::new().register_sharded(sharded);
            for nodes in query_sets(n) {
                let request = ServeRequest::classify("m", nodes);
                let expected = oracle.serve_one(&request).expect("oracle");
                let got = server.serve_one(&request).expect("sharded");
                assert_eq!(got, expected, "k={k} diverged from single-process");
            }
        }
    }
}

#[test]
fn sharded_and_degraded_answers_match_the_uncached_reference_forward() {
    // The `serve_one` oracle above gathers from cached logits, as does a
    // degraded router; `GnnModel::forward_rows` recomputes the whole graph
    // on every call and shares nothing with either.
    let (graph, model) = workloads().remove(0);
    let queries = query_sets(graph.num_nodes());
    let requests: Vec<ServeRequest> = queries
        .iter()
        .map(|nodes| ServeRequest::classify("m", nodes.clone()))
        .collect();
    // (shards, degrade): k = 1 and 2 healthy, then k = 2 with a dead worker
    // and no respawn budget, so the first request degrades the model.
    for (k, degrade) in [(1usize, false), (2, false), (2, true)] {
        let build = || {
            let mut options = ShardOptions::new(k);
            if degrade {
                options.policy.respawn_budget = 0;
            }
            let sharded = ShardedModel::launch("m", &graph, &model, &options).expect("launch");
            if degrade {
                sharded.kill_worker(0).expect("kill");
            }
            Server::new().register_sharded(sharded)
        };
        let sequential = build();
        let handle = build().spawn();
        handle.pause();
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| {
                handle
                    .submit(r.clone(), SubmitOptions::default())
                    .expect("submit")
            })
            .collect();
        handle.resume();
        for ((nodes, request), ticket) in queries.iter().zip(&requests).zip(tickets) {
            let expected = model.forward_rows(&graph, nodes).expect("reference");
            for response in [sequential.serve_one(request), ticket.wait()] {
                let response = response.expect("answer");
                let answer = response.as_classification().expect("classification");
                assert_eq!(answer.logits, expected, "k={k} degrade={degrade}");
            }
        }
        let stats = handle.shutdown();
        assert_eq!(stats.shard.fallbacks > 0, degrade, "k={k}");
    }
}

#[test]
fn tcp_transport_matches_uds_bit_for_bit() {
    let (graph, model) = workloads().remove(0);
    let request = ServeRequest::classify("m", (0..graph.num_nodes()).collect());
    let oracle = Server::new()
        .register(ServedModel::new("m", graph.clone(), model.clone()))
        .serve_one(&request)
        .expect("oracle");
    for transport in [TransportKind::default(), TransportKind::Tcp] {
        let sharded = ShardedModel::launch(
            "m",
            &graph,
            &model,
            &ShardOptions::new(3).with_transport(transport),
        )
        .expect("launch");
        let server = Server::new().register_sharded(sharded);
        assert_eq!(
            server.serve_one(&request).expect("sharded"),
            oracle,
            "{transport:?} diverged"
        );
    }
}

#[test]
fn batched_dispatch_over_shards_matches_the_oracle_and_counts_transport() {
    let (graph, model) = workloads().remove(1);
    let requests: Vec<ServeRequest> = query_sets(graph.num_nodes())
        .into_iter()
        .map(|nodes| ServeRequest::classify("m", nodes))
        .collect();
    let oracle = Server::new().register(ServedModel::new("m", graph.clone(), model.clone()));
    let expected: Vec<_> = requests.iter().map(|r| oracle.serve_one(r)).collect();

    let sharded = ShardedModel::launch("m", &graph, &model, &ShardOptions::new(2)).expect("launch");
    let halo_nodes = sharded.plan().total_halo_nodes() as u64;
    let handle = Server::new().register_sharded(sharded).spawn();
    // Pause so every submission coalesces into one dispatcher drain — the
    // fused path must still split back out bit-identically.
    handle.pause();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| {
            handle
                .submit(r.clone(), SubmitOptions::default())
                .expect("submit")
        })
        .collect();
    handle.resume();
    for (ticket, expected) in tickets.into_iter().zip(expected) {
        assert_eq!(ticket.wait(), expected);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.completed_ok, 5);
    assert_eq!(stats.shard.shards, 2);
    assert_eq!(stats.shard.halo_nodes, halo_nodes);
    assert_eq!(stats.shard.forward_passes, 1, "layer lockstep runs once");
    assert!(stats.shard.frames_sent > 0 && stats.shard.bytes_sent > 0);
    assert!(stats.shard.rows_gathered > 0);
}
