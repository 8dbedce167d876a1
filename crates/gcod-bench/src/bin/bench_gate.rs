//! CI perf-regression gate over the committed bench trajectory.
//!
//! Re-runs the SpMM, training, serving, sharded-serving and
//! quantized-inference sweeps of [`gcod_bench::sweeps`] in smoke mode and
//! compares each per-benchmark median against the committed repo-root
//! `BENCH_spmm.json` / `BENCH_train.json` / `BENCH_serve.json` /
//! `BENCH_shard.json` / `BENCH_quant.json`, failing (exit code 1) with a
//! per-row delta table when any median regressed beyond the tolerance.
//!
//! Knobs:
//!
//! * `BENCH_GATE_TOL` — allowed fractional slowdown (default 2.0, i.e. fail
//!   above 3× the committed median; generous for noisy runners),
//! * `BENCH_GATE_SAMPLES` — timed samples per case (default 5),
//! * a trajectory file that does not exist is skipped with a warning, so the
//!   gate degrades gracefully on fresh checkouts that have not committed a
//!   trajectory for a new bench yet — but a *stale* committed row (present
//!   in the file, absent from the sweep) is a hard failure.
//!
//! Two kinds of columns are gated. The **absolute** wall-clock medians
//! carry the speed of the machine that recorded them, so their tolerance
//! must absorb the hardware delta between that machine and the runner
//! (hence the generous defaults, and CI's wider override). The
//! **relative** columns (`speedup_over_naive` per SpMM kernel,
//! `bytes_moved_ratio` per quantized precision, `halo_bytes` per shard
//! split) are recomputed deterministically and gated in their better
//! direction — they are machine-independent, so a drift there is a real
//! algorithmic regression no matter how slow the runner is (the
//! deterministic ones hold exactly).
//!
//! Run it the way CI does: `cargo run --release -p gcod-bench --bin
//! bench_gate`.

use gcod_bench::gate::{compare, parse_bench_rows, tolerance_from_env, Direction, GateOutcome};
use gcod_bench::{load, sweeps};
use std::path::PathBuf;

/// Timed samples per sweep case.
fn samples_from_env() -> usize {
    std::env::var("BENCH_GATE_SAMPLES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// The repo root (this crate sits at `<workspace>/crates/gcod-bench`).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One gated column of one committed trajectory file.
struct GateSpec<'a> {
    path: PathBuf,
    name: &'a str,
    prefix: &'a str,
    key_fields: &'a [&'a str],
    value_field: &'a str,
    measured: &'a [(String, f64)],
    direction: Direction,
}

/// Gates one trajectory file; `None` when the file does not exist (skipped).
fn gate_file(spec: &GateSpec<'_>, tolerance: f64) -> Option<GateOutcome> {
    let name = spec.name;
    let json = match std::fs::read_to_string(&spec.path) {
        Ok(json) => json,
        Err(_) => {
            println!(
                "{name}: no committed trajectory at {} — skipped",
                spec.path.display()
            );
            return None;
        }
    };
    let committed = match parse_bench_rows(&json, spec.prefix, spec.key_fields, spec.value_field) {
        Ok(rows) => rows,
        Err(e) => {
            // A malformed committed file is itself a failure: surface it as
            // an outcome with one missing row so the verdict is FAIL.
            println!("{name}: cannot parse committed trajectory: {e}");
            return Some(GateOutcome {
                name: name.to_string(),
                rows: Vec::new(),
                missing: vec![format!("<unparsable: {e}>")],
                tolerance,
            });
        }
    };
    Some(compare(
        name,
        &committed,
        spec.measured,
        tolerance,
        spec.direction,
    ))
}

fn main() {
    let tolerance = tolerance_from_env();
    let samples = samples_from_env();
    let root = workspace_root();
    println!(
        "bench_gate: tolerance {tolerance} (fail above {:.2}x committed), {samples} samples/case",
        1.0 + tolerance
    );

    println!("re-measuring SpMM sweep...");
    let spmm = sweeps::smoke_spmm_medians(samples);
    println!("re-measuring training sweep...");
    let train = sweeps::smoke_train_medians(samples.min(3));
    println!("re-measuring serving sweep...");
    let mut serve = sweeps::smoke_serve_medians(samples);
    println!("re-measuring serving recover-kill case...");
    serve.extend(sweeps::smoke_serve_recover_medians(samples));
    println!("re-measuring open-loop tail-latency sweep...");
    serve.extend(load::open_loop_gate_rows(&load::sweep_open_loop(
        load::OPEN_LOOP_LOADS,
        load::OPEN_LOOP_REQUESTS,
        7,
    )));
    println!("re-measuring sharded-serving sweep...");
    let shard = sweeps::smoke_shard_medians(samples);
    println!("re-measuring quantized-inference sweep...");
    let quant = sweeps::smoke_quant_medians(samples);
    let shard_halo = sweeps::shard_halo_byte_rows();
    let quant_bytes = sweeps::quant_bytes_moved_rows();
    let spmm_rel = sweeps::relative_spmm_rows(&spmm);

    let specs = [
        GateSpec {
            path: root.join("BENCH_spmm.json"),
            name: "BENCH_spmm.json",
            prefix: "spmm",
            key_fields: &["kernel", "nodes"],
            value_field: "median_ns",
            measured: &spmm,
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_train.json"),
            name: "BENCH_train.json",
            prefix: "train",
            key_fields: &["dataset", "workers"],
            value_field: "epoch_ms",
            measured: &train,
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_serve.json"),
            name: "BENCH_serve.json",
            prefix: "serve",
            key_fields: &["case", "batch"],
            value_field: "median_ns",
            measured: &serve,
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_shard.json"),
            name: "BENCH_shard.json",
            prefix: "shard",
            key_fields: &["dataset", "shards"],
            value_field: "median_ns",
            measured: &shard,
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_shard.json"),
            name: "BENCH_shard.json (halo_bytes)",
            prefix: "shard-halo",
            key_fields: &["dataset", "shards"],
            value_field: "halo_bytes",
            measured: &shard_halo,
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_quant.json"),
            name: "BENCH_quant.json",
            prefix: "quant",
            key_fields: &["precision", "nodes"],
            value_field: "median_ns",
            measured: &quant,
            direction: Direction::LowerIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_quant.json"),
            name: "BENCH_quant.json (bytes_moved_ratio)",
            prefix: "quant-bytes",
            key_fields: &["precision", "nodes"],
            value_field: "bytes_moved_ratio",
            measured: &quant_bytes,
            direction: Direction::HigherIsBetter,
        },
        GateSpec {
            path: root.join("BENCH_spmm.json"),
            name: "BENCH_spmm.json (speedup_over_naive)",
            prefix: "spmm-rel",
            key_fields: &["kernel", "nodes"],
            value_field: "speedup_over_naive",
            measured: &spmm_rel,
            direction: Direction::HigherIsBetter,
        },
    ];
    let outcomes: Vec<GateOutcome> = specs
        .iter()
        .filter_map(|spec| gate_file(spec, tolerance))
        .collect();

    let mut passed = true;
    for outcome in &outcomes {
        println!("\n{}", outcome.render_table());
        passed &= outcome.passed();
    }
    if outcomes.is_empty() {
        println!("bench_gate: no committed trajectories found — nothing gated");
    }
    if passed {
        println!("bench_gate: PASS");
    } else {
        println!("bench_gate: FAIL — perf trajectory regressed beyond tolerance");
        std::process::exit(1);
    }
}
