//! End-to-end training benchmark: wall-clock per epoch of the full GCN
//! training pass (sparse aggregation + dense combination + backward) across
//! datasets on the persistent `gcod_runtime` pool.
//!
//! Each case trains a fresh 2-layer GCN with the `parallel-csr` aggregation
//! kernel for a fixed epoch budget at the pool's own lane count (`auto`).
//! Worker count is bit-deterministic and the differential suites pin that,
//! so this bench measures wall-clock only. The case list and fixtures live
//! in [`gcod_bench::sweeps`], shared with the `bench_gate` CI binary.
//!
//! Writes a machine-readable summary to `target/BENCH_train.json` **and**
//! the repo-root `BENCH_train.json` tracked across PRs (override both with
//! the `BENCH_TRAIN_JSON` environment variable), recording the median
//! per-epoch time of each case. Run the sweep with
//! `cargo bench --bench train`; CI smokes it with
//! `cargo bench --bench train -- --test` (one sample, no JSON).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcod_bench::sweeps::{
    train_graph, train_template, train_trainer, TRAIN_DATASETS, TRAIN_EPOCHS,
};
use gcod_runtime::Pool;

fn bench_train(c: &mut Criterion) {
    // The `auto` rows resolve to the global pool's lane count. Resolve it
    // exactly once, here, and reuse it for the JSON rows — the execution
    // path resolves 0 through the very same pool, so the recorded
    // `resolved_workers` can never drift from what the training actually ran
    // with (on any core count).
    let resolved_auto_workers = Pool::global().workers();

    let mut group = c.benchmark_group("train");
    group.sample_size(9);
    for &(label, ..) in TRAIN_DATASETS {
        let graph = train_graph(label);
        let trainer = train_trainer();
        // Built once per case: the timed closure clones it (a plain memcpy)
        // so the samples measure the training loop, not weight initialisation.
        let template = train_template(&graph);
        let id = BenchmarkId::new(format!("gcn-{label}"), "auto");
        group.bench_with_input(id, &template, |b, template| {
            b.iter(|| {
                let mut model = template.clone();
                trainer.fit(&mut model, &graph).expect("training succeeds")
            });
        });
    }
    group.finish();

    if !c.is_test_mode() {
        gcod_bench::write_bench_summary(
            "BENCH_train.json",
            "BENCH_TRAIN_JSON",
            &render_summary(c, resolved_auto_workers),
        );
    }
}

/// Renders the recorded medians as JSON by hand (the vendored serde shim has
/// no serializer): one entry per dataset with the per-epoch median and
/// `resolved_auto_workers`, the single upfront `Pool::global()` resolution.
fn render_summary(c: &Criterion, resolved_auto_workers: usize) -> String {
    let mut entries = Vec::new();
    for (label, median) in c.results() {
        // Labels are "train/gcn-<dataset>/auto".
        let Some(dataset) = label
            .strip_prefix("train/gcn-")
            .and_then(|rest| rest.strip_suffix("/auto"))
        else {
            continue;
        };
        let nodes = TRAIN_DATASETS
            .iter()
            .find(|(l, ..)| *l == dataset)
            .map_or(0, |&(_, n, ..)| n);
        let epoch_ms = median.as_nanos() as f64 / TRAIN_EPOCHS as f64 / 1e6;
        entries.push(format!(
            "  {{\"dataset\": \"{dataset}\", \"nodes\": {nodes}, \"workers\": \"auto\", \
             \"resolved_workers\": {resolved_auto_workers}, \"epochs\": {TRAIN_EPOCHS}, \
             \"epoch_ms\": {epoch_ms:.3}}}"
        ));
    }
    format!("[\n{}\n]\n", entries.join(",\n"))
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
