//! CI smoke driver for the open-loop serving load generator
//! ([`gcod_bench::load`]).
//!
//! Runs a tiny Poisson sweep and asserts the serving-layer invariants the
//! reactor guarantees:
//!
//! * **zero lost tickets** — every accepted submission resolves (the
//!   drain-on-shutdown contract, observed end-to-end under load);
//! * **count conservation** — offered = completed + rejected + lost;
//! * **monotone quantiles** — p50 ≤ p99 ≤ p999 per offered load.
//!
//! It prints the per-load quantiles for a reader, but records no perf
//! numbers: serving wall-clock is measured by the frozen benchmark
//! (`benchmark/README.md`). Exits non-zero on any violated invariant.

use gcod_bench::load::{self, OpenLoopReport};

fn check_invariants(report: &OpenLoopReport) -> Result<(), String> {
    let label = format!("load {:.0} rps", report.offered_rps);
    if report.lost != 0 {
        return Err(format!(
            "{label}: {} lost tickets — accepted submissions must always resolve",
            report.lost
        ));
    }
    let accounted = report.histogram.count() + report.rejected + report.lost;
    if report.offered != accounted {
        return Err(format!(
            "{label}: offered {} != completed {} + rejected {} + lost {}",
            report.offered,
            report.histogram.count(),
            report.rejected,
            report.lost
        ));
    }
    let p50 = report.quantile_ns(0.50);
    let p99 = report.quantile_ns(0.99);
    let p999 = report.quantile_ns(0.999);
    if !(p50 <= p99 && p99 <= p999) {
        return Err(format!(
            "{label}: quantiles not monotone (p50={p50} p99={p99} p999={p999})"
        ));
    }
    if report.histogram.count() > 0 && p50 == 0 {
        return Err(format!("{label}: completed requests but a zero p50"));
    }
    Ok(())
}

fn print_report(report: &OpenLoopReport) {
    println!(
        "  {:>6.0} rps offered | {:>4} completed {:>3} rejected {:>2} lost | \
         achieved {:>7.1} rps | p50 {:>9} ns  p99 {:>9} ns  p999 {:>9} ns",
        report.offered_rps,
        report.histogram.count(),
        report.rejected,
        report.lost,
        report.achieved_rps,
        report.quantile_ns(0.50),
        report.quantile_ns(0.99),
        report.quantile_ns(0.999),
    );
}

fn main() {
    // Small enough for CI, large enough that the tail buckets are populated
    // and a lost wakeup would be caught.
    let loads = [200.0, 1500.0];
    let requests = 60;

    println!(
        "open-loop load harness: {} loads x {requests} requests (seed 7)",
        loads.len()
    );
    let reports = load::sweep_open_loop(&loads, requests, 7);
    let mut failures = Vec::new();
    for report in &reports {
        print_report(report);
        if let Err(message) = check_invariants(report) {
            failures.push(message);
        }
    }

    if failures.is_empty() {
        println!("load harness: all invariants hold");
    } else {
        for failure in &failures {
            eprintln!("load harness FAILURE: {failure}");
        }
        std::process::exit(1);
    }
}
