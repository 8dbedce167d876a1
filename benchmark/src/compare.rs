//! `benchmark compare <a.json> <b.json>`: per (workload, end-to-end metric),
//! both medians, the relative difference, the bound from `BENCHMARK.json`
//! and a verdict. `a` is the reference (the parent commit, or the first set
//! of runs); `b` is judged against it.

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the reference by more than the bound.
    Ok,
    /// Worse than the reference by more than the bound.
    Worse,
    /// Cannot be told: a run flagged the metric, or the run-to-run spread is
    /// wider than the bound and the two sides' runs overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of the reference's median `b` is worse than `a` (negative
/// when it is better).
pub fn worse_by(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (a, b) = (stats::center(a), stats::center(b));
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The verdict on one (workload, metric) pair. `flagged` is set when a run on
/// either side reported the metric as unresolved.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64, flagged: bool) -> Verdict {
    if flagged {
        return Verdict::Unresolved;
    }
    if worse_by(a, b, lower_is_better) > bound {
        return Verdict::Worse;
    }
    let spread = [a, b]
        .iter()
        .filter_map(|side| stats::spread_share(side))
        .fold(0.0, f64::max);
    if spread > bound {
        // Too noisy to call it unchanged, unless every run of `b` reads
        // better than every run of `a`.
        let separated = a.iter().all(|&x| {
            b.iter()
                .all(|&y| if lower_is_better { y < x } else { y > x })
        });
        if !separated {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

/// `workload → metric → (values, flagged)` over the comparable, untraced
/// runs of one result file.
type Runs = BTreeMap<String, BTreeMap<String, (Vec<f64>, bool)>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `runs` list"))?;
    let mut out = Runs::new();
    for run in runs {
        let traced = run.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let comparable = run
            .get("comparable")
            .and_then(Json::as_bool)
            .unwrap_or(true);
        if traced || !comparable {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run has no workload"))?;
        let metrics = run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, metric) in metrics {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let flagged = metric
                .get("unresolved")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let entry = out
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default();
            entry.0.push(value);
            entry.1 |= flagged;
        }
    }
    Ok(out)
}

fn row(
    workload: &str,
    metric: &MetricSpec,
    a: &(Vec<f64>, bool),
    b: &(Vec<f64>, bool),
) -> (String, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let decided = verdict(&a.0, &b.0, metric.lower_is_better, bound, a.1 || b.1);
    let line = format!(
        "{workload:<22} {:<16} {:>14.6} {:>14.6} {:<6} {:>+8.2}% {:>6.1}%  n={}/{}  {}",
        metric.name,
        stats::center(&a.0),
        stats::center(&b.0),
        metric.unit,
        worse_by(&a.0, &b.0, metric.lower_is_better) * 100.0,
        bound * 100.0,
        a.0.len(),
        b.0.len(),
        decided.label()
    );
    (line, decided)
}

/// Prints the table; `Ok(true)` when no pair is worse.
pub fn run(spec: &Spec, path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_runs(path_a)?, read_runs(path_b)?);
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:<6} {:>9} {:>7}  runs  verdict",
        "workload", "metric", "a (median)", "b (median)", "unit", "worse by", "bound"
    );
    let mut clean = true;
    let mut compared = 0;
    for workload in &spec.workloads {
        let (Some(a), Some(b)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for metric in &spec.end_to_end {
            let (Some(a), Some(b)) = (a.get(&metric.name), b.get(&metric.name)) else {
                continue;
            };
            let (line, decided) = row(workload, metric, a, b);
            println!("{line}");
            clean &= decided != Verdict::Worse;
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("the two files share no comparable (workload, metric) pair".to_string());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // Lower is better: +5 % inside a 10 % bound, +20 % outside it.
        assert_eq!(
            verdict(&steady, &[10.5, 10.4, 10.6, 10.5], true, 0.10, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.0], true, 0.10, false),
            Verdict::Worse
        );
        // Getting faster is never worse.
        assert_eq!(
            verdict(&steady, &[5.0, 5.1, 4.9, 5.0], true, 0.10, false),
            Verdict::Ok
        );
        // Higher is better: a drop of 20 % is worse, a rise is not.
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0], false, 0.10, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.0], false, 0.10, false),
            Verdict::Ok
        );
        // A flagged metric is unresolved whatever it reads.
        assert_eq!(
            verdict(&steady, &steady, true, 0.10, true),
            Verdict::Unresolved
        );
        // Spread wider than the bound and overlapping runs: unresolved, not ok.
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(
            verdict(&noisy, &[9.0, 10.5, 11.0, 13.0], true, 0.10, false),
            Verdict::Unresolved
        );
        // ... unless every run of b beats every run of a.
        assert_eq!(
            verdict(&noisy, &[5.0, 6.0, 7.0, 7.5], true, 0.10, false),
            Verdict::Ok
        );
        // Single runs carry no spread: judged on the values alone.
        assert_eq!(verdict(&[10.0], &[10.9], true, 0.10, false), Verdict::Ok);
        assert_eq!(verdict(&[10.0], &[11.1], true, 0.10, false), Verdict::Worse);
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((worse_by(&[100.0], &[110.0], true) - 0.10).abs() < 1e-12);
        assert!((worse_by(&[100.0], &[110.0], false) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by(&[0.0], &[1.0], true), 0.0);
    }
}
