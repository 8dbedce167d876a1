//! Serving-layer benchmark: end-to-end submit→wait latency and throughput
//! of the `gcod-serve` front-end swept over fused-batch sizes, the
//! cost-scored backend-routing path, and a fault-recovery case (sever one of
//! two shard workers, time the detect→respawn→replay→answer path).
//!
//! Each classify case submits `batch` compatible requests (same served
//! model) and waits for all tickets; the batcher coalesces them into fused
//! gathers of at most `batch` requests over the logits the served model
//! computed once (the first, untimed request drives that pass), so the
//! sweep exposes what batching still buys: per-request latency falls as the
//! batch grows because the submit → dispatcher wake → ticket round trip is
//! amortised over the whole batch.
//! The case list and fixtures live in [`gcod_bench::sweeps`], shared with
//! the `bench_gate` CI binary so the gate re-measures exactly this sweep.
//!
//! Writes a machine-readable summary to `target/BENCH_serve.json` **and**
//! the repo-root `BENCH_serve.json` tracked across PRs (override both with
//! the `BENCH_SERVE_JSON` environment variable), recording per-case median
//! latency, per-request latency, throughput and the resolved worker count
//! (one `Pool::global()` resolution, reused for every row). Run with
//! `cargo bench --bench serve`; CI smokes it with
//! `cargo bench --bench serve -- --test`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcod_bench::load;
use gcod_bench::sweeps::{
    serve_classify_request, serve_recover_iteration, serve_recover_model, serve_server,
    SERVE_BATCH_SIZES, SERVE_MODEL_NAME, SERVE_RECOVER_SHARDS,
};
use gcod_runtime::Pool;
use gcod_serve::{ServeRequest, SubmitOptions};

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(9);
    for &batch in SERVE_BATCH_SIZES {
        let handle = serve_server(batch).spawn();
        group.bench_with_input(BenchmarkId::new("classify", batch), &batch, |b, &batch| {
            b.iter(|| {
                let tickets: Vec<_> = (0..batch)
                    .map(|i| {
                        handle
                            .submit(
                                serve_classify_request(i),
                                SubmitOptions::default().blocking(),
                            )
                            .expect("server is live")
                    })
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("classification succeeds");
                }
            });
        });
        handle.shutdown();
    }

    // The backend router: score the full platform suite, dispatch to the
    // cheapest model.
    let handle = serve_server(1).spawn();
    group.bench_with_input(BenchmarkId::new("route-auto", 1usize), &1usize, |b, _| {
        b.iter(|| {
            handle
                .submit(
                    ServeRequest::predict_perf(SERVE_MODEL_NAME),
                    SubmitOptions::default().blocking(),
                )
                .expect("server is live")
                .wait()
                .expect("routing succeeds")
        });
    });
    handle.shutdown();

    // Fault-recovery latency: sever one of two shard workers, then answer a
    // full request — the supervisor detects the dead endpoint, respawns the
    // worker, replays its layer state and gathers. The respawn budget is
    // unbounded so every iteration recovers instead of degrading.
    let (sharded, query) = serve_recover_model();
    group.bench_with_input(
        BenchmarkId::new("recover-kill", SERVE_RECOVER_SHARDS),
        &SERVE_RECOVER_SHARDS,
        |b, _| {
            b.iter(|| serve_recover_iteration(&sharded, &query));
        },
    );
    sharded.shutdown().expect("shutdown");
    group.finish();

    if !c.is_test_mode() {
        gcod_bench::write_bench_summary("BENCH_serve.json", "BENCH_SERVE_JSON", &render_summary(c));
    }
}

/// Renders the recorded medians as JSON by hand (the vendored serde shim has
/// no serializer). The worker count is resolved **once** via the global pool
/// and reused for every row — the same resolution the execution path uses.
/// The open-loop tail-latency sweep ([`gcod_bench::load`]) is appended so a
/// regenerated `BENCH_serve.json` keeps the committed `open-p50`/`open-p99`/
/// `open-p999` rows the gate checks.
fn render_summary(c: &Criterion) -> String {
    let resolved_workers = Pool::global().workers();
    let mut entries = Vec::new();
    for (label, median) in c.results() {
        // Labels are "serve/<case>/<batch>".
        let mut parts = label.splitn(3, '/');
        let (Some(_), Some(case), Some(batch)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let batch: usize = batch.parse().unwrap_or(1);
        let median_ns = median.as_nanos();
        let per_request_us = median_ns as f64 / batch.max(1) as f64 / 1e3;
        let throughput_rps = if median_ns > 0 {
            batch as f64 / (median_ns as f64 / 1e9)
        } else {
            0.0
        };
        entries.push(format!(
            "  {{\"case\": \"{case}\", \"batch\": {batch}, \"median_ns\": {median_ns}, \
             \"per_request_us\": {per_request_us:.3}, \"throughput_rps\": {throughput_rps:.1}, \
             \"resolved_workers\": {resolved_workers}}}"
        ));
    }
    let open_loop = load::sweep_open_loop(load::OPEN_LOOP_LOADS, load::OPEN_LOOP_REQUESTS, 7);
    entries.extend(load::open_loop_summary_rows(&open_loop, resolved_workers));
    format!("[\n{}\n]\n", entries.join(",\n"))
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
