//! The repo benchmark. One command takes a workload name (or `all`) and a
//! seed, generates every input from that seed, runs the workload, prints
//! every metric by name with its unit, checks the program's outputs, and
//! ends with one JSON line. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--workload <name|all>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!           [--quick] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! ```

mod codesign;
mod compare;
mod host;
mod infer;
mod json;
mod load;
mod probes;
mod replay;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use json::Json;
use run::{Outcome, RunConfig, WORKLOADS};
use spec::{MetricSpec, Spec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [--workload <name|all>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--out <file>]\n       benchmark compare <a.json> <b.json>";

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`; one of: all, {}",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

fn dispatch(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "serve_local_open" => serve::serve_local_open(cfg),
        "serve_sharded_closed" => serve::serve_sharded_closed(cfg),
        "infer_agg" => infer::run(cfg, infer::Shape::Aggregation),
        "infer_comb" => infer::run(cfg, infer::Shape::Combination),
        "codesign_cora" => codesign::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Every declared metric of a run's mode with its value, and the names of
/// the per-layer ones the workload does not exercise.
struct Declared<'s> {
    values: Vec<(&'s MetricSpec, f64)>,
    not_exercised: Vec<&'s str>,
}

/// The declared metrics of this run's mode with the values the workload
/// produced. An end-to-end metric the workload did not produce, or a value
/// under a name `BENCHMARK.json` does not declare, is a harness bug. A
/// per-layer metric the workload does not exercise reads 0 and is listed.
fn declared_metrics<'s>(
    spec: &'s Spec,
    outcome: &Outcome,
    trace: bool,
) -> Result<Declared<'s>, String> {
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|name| !declared.iter().any(|m| &m.name == *name))
    {
        return Err(format!(
            "metric `{stray}` is not declared in BENCHMARK.json"
        ));
    }
    let mut not_exercised = Vec::new();
    let mut values = Vec::with_capacity(declared.len());
    for metric in declared {
        match outcome.metrics.get(&metric.name) {
            Some(&value) if value.is_finite() => values.push((metric, value)),
            Some(value) => return Err(format!("metric `{}` is not finite: {value}", metric.name)),
            None if trace => {
                not_exercised.push(metric.name.as_str());
                values.push((metric, 0.0));
            }
            None => return Err(format!("workload produced no `{}`", metric.name)),
        }
    }
    Ok(Declared {
        values,
        not_exercised,
    })
}

/// Prints one workload's results for a reader, then the contract's JSON line
/// (the last line of standard output). Returns the run's record for the
/// result file.
fn report(
    spec: &Spec,
    workload: &str,
    cfg: &RunConfig,
    outcome: &Outcome,
    provenance: &Json,
) -> Result<Json, String> {
    let Declared {
        values,
        not_exercised,
    } = declared_metrics(spec, outcome, cfg.trace)?;
    println!(
        "== {workload}: seed {}, {} s, {}{}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        },
        if cfg.quick {
            ", QUICK MODE: NOT COMPARABLE"
        } else {
            ""
        }
    );
    for (metric, value) in &values {
        if not_exercised.contains(&metric.name.as_str()) {
            continue;
        }
        let samples = outcome
            .samples
            .get(metric.name.as_str())
            .map_or(String::new(), |n| format!("  (n={n})"));
        let flag = if outcome.unresolved.contains(&metric.name.as_str()) {
            "  UNRESOLVED"
        } else {
            ""
        };
        println!(
            "  {:<32} {value:>16.6} {}{samples}{flag}",
            metric.name, metric.unit
        );
    }
    if !not_exercised.is_empty() {
        println!(
            "  not exercised by this workload (read 0): {}",
            not_exercised.join(", ")
        );
    }
    let fail_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<32} {fail_share:>16.6} ratio  ({} of {} ops)",
        "fail_share", outcome.failed, outcome.attempted
    );
    for (name, passed) in &outcome.checks {
        println!("  check {}: {name}", if *passed { "ok  " } else { "FAIL" });
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }

    let metrics_line = Json::obj(values.iter().map(|(metric, value)| {
        (
            metric.name.clone(),
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::str(&metric.unit)),
            ]),
        )
    }));
    let metrics_record = Json::obj(values.iter().map(|(metric, value)| {
        let mut fields = vec![
            ("value", Json::Num(*value)),
            ("unit", Json::str(&metric.unit)),
        ];
        if let Some(&n) = outcome.samples.get(metric.name.as_str()) {
            fields.push(("samples", Json::from(n)));
        }
        if outcome.unresolved.contains(&metric.name.as_str()) {
            fields.push(("unresolved", Json::Bool(true)));
        }
        (metric.name.clone(), Json::obj(fields))
    }));
    let record = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("comparable", Json::Bool(!cfg.quick)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("fail_share", Json::Num(fail_share)),
        ("metrics", metrics_record),
        (
            "not_exercised",
            Json::Arr(not_exercised.iter().map(|n| Json::str(*n)).collect()),
        ),
        (
            "checks",
            Json::Arr(
                outcome
                    .checks
                    .iter()
                    .map(|(name, passed)| {
                        Json::obj([("name", Json::str(*name)), ("passed", Json::Bool(*passed))])
                    })
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
        ("provenance", provenance.clone()),
    ]);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.correct())),
            ("attempted", Json::from(outcome.attempted.max(1))),
            ("failed", Json::from(outcome.failed)),
            ("metrics", metrics_line),
        ])
    );
    Ok(record)
}

/// Writes `runs` to `path`; with `append`, after the runs already there.
fn write_results(path: &PathBuf, mut runs: Vec<Json>, append: bool) -> Result<(), String> {
    if append {
        if let Ok(text) = std::fs::read_to_string(path) {
            let existing = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut all = existing
                .get("runs")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .unwrap_or_default();
            all.append(&mut runs);
            runs = all;
        }
    }
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload all`: each workload in a process of its own, exactly as a
/// single-workload invocation runs it (its own pool, its own `VmHWM`), all
/// appending to one result file. Each child is waited for before the next
/// starts.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let path = args.out.clone().unwrap_or_else(|| {
        let path = host::out_dir().join(format!(
            "result-all-{}{}.json",
            args.seed,
            if args.trace { "-trace" } else { "" }
        ));
        // Children append, so a default-named file starts afresh.
        let _ = std::fs::remove_file(&path);
        path
    });
    let mut all_correct = true;
    for workload in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&path);
        if let Some(seconds) = args.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        if args.quick {
            child.arg("--quick");
        }
        let status = child.status().map_err(|e| format!("{workload}: {e}"))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            _ => return Err(format!("{workload}: ended with {status}")),
        }
    }
    Ok(all_correct)
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let spec = Spec::load()?;
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 1.0 } else { spec.run_seconds }),
        trace: args.trace,
        quick: args.quick,
    };
    let workload = args.workload.as_str();
    // Before the pool starts, which is before any thread exists.
    host::leave_a_core_to_the_load(workload);
    let provenance = host::provenance(cfg.seed, gcod_runtime::Pool::global().workers());
    println!("provenance: {provenance}");
    let outcome = dispatch(workload, &cfg).map_err(|e| format!("{workload}: {e}"))?;
    let record = report(&spec, workload, &cfg, &outcome, &provenance)?;
    let default_path = host::out_dir().join(format!(
        "result-{workload}-{}{}.json",
        cfg.seed,
        if cfg.trace { "-trace" } else { "" }
    ));
    let path = args.out.clone().unwrap_or(default_path);
    // The JSON line above must stay the last line of standard output.
    match write_results(&path, vec![record], args.out.is_some()) {
        Ok(()) => eprintln!("results: {}", path.display()),
        Err(e) => eprintln!("results not written: {e}"),
    }
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    // Before any thread exists: see `keep_sockets_in_out_dir`.
    host::keep_sockets_in_out_dir();
    host::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => Spec::load().and_then(|spec| compare::run(&spec, a, b)),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&args).and_then(|args| match args.workload.as_str() {
            "all" => run_all(&args),
            _ => run_workload(&args),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // A correctness check failed, or `compare` found a metric worse.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
