//! What every workload takes and gives back, and the helpers they share.

use crate::host;
use crate::probes::Metrics;
use crate::stats::Timed;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "serve_local_open",
    "serve_sharded_closed",
    "infer_agg",
    "infer_comb",
    "codesign_cora",
];

/// One invocation's settings. Every random choice derives from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke mode: same code paths on quarter-size fixtures, one set-up,
    /// one-op minimums. Its numbers are not comparable with a full run's.
    pub quick: bool,
}

impl RunConfig {
    /// Rounds an untraced full run is cut into: each sets the fixture up
    /// afresh (timed) and measures for its share of `seconds`, so that the
    /// set-ups are spread over the whole run and one busy spell of the host
    /// cannot cover them all. Smoke mode runs one round.
    pub fn rounds(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// A fixture dimension, shrunk in smoke mode.
    pub fn size(&self, full: usize) -> usize {
        if self.quick {
            (full / 4).max(1)
        } else {
            full
        }
    }

    /// Repetitions of a millisecond-scale probe.
    pub fn probe_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Repetitions of a microsecond-scale probe.
    pub fn micro_reps(&self) -> usize {
        if self.quick {
            100
        } else {
            2000
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured windows, and how many of them
    /// errored, were refused, were lost or answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; one `false` fails the run.
    pub checks: Vec<(&'static str, bool)>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// How long each round's set-up took, in seconds.
    pub setups: Vec<f64>,
    /// Sample count behind each timing, printed beside it.
    pub samples: BTreeMap<&'static str, u64>,
    /// Metrics this run could not resolve (e.g. p99 under a late pacer).
    pub unresolved: Vec<&'static str>,
    /// Free-form facts for the result file and the console.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a check; a check made once per phase passes when every phase
    /// passed it.
    pub fn check(&mut self, name: &'static str, passed: bool) {
        match self.checks.iter_mut().find(|(known, _)| *known == name) {
            Some((_, so_far)) => *so_far &= passed,
            None => self.checks.push((name, passed)),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed)| *passed)
    }

    /// Runs one round's set-up and books its duration.
    pub fn set_up<F>(&mut self, build: impl FnOnce() -> Result<F, String>) -> Result<F, String> {
        let start = Instant::now();
        let fixture = build()?;
        self.setups.push(start.elapsed().as_secs_f64());
        Ok(fixture)
    }

    /// `setup_s` is the fastest of the run's set-ups: the host's
    /// interference only adds time, and a set-up is too short to window.
    pub fn set_setup(&mut self) {
        let fastest = self.setups.iter().copied().fold(f64::INFINITY, f64::min);
        self.set("setup_s", fastest);
        self.samples.insert("setup_s", self.setups.len() as u64);
        let all: Vec<String> = self.setups.iter().map(|s| format!("{s:.4}")).collect();
        self.notes.push(format!("set-ups (s): {}", all.join(" ")));
    }

    /// Sets a latency metric to the `p`-th percentile of the run's best
    /// window (see [`Timed`]) and records its sample count.
    pub fn set_quiet_latency(
        &mut self,
        name: &'static str,
        p: f64,
        min_samples: usize,
        ops: &Timed,
    ) {
        self.set(name, ops.quiet_percentile(p, min_samples));
        self.samples.insert(name, ops.len() as u64);
    }

    /// Sets a latency metric of a single caller to its fastest op (see
    /// [`Timed::fastest`]) and records its sample count.
    pub fn set_fastest(&mut self, name: &'static str, ops: &Timed) {
        self.set(name, ops.fastest());
        self.samples.insert(name, ops.len() as u64);
    }

    /// Fills the end-to-end metrics this workload is outside the matrix of
    /// with its `op_p50_ms`. The contract has every workload report every
    /// end-to-end metric, none of them 0, so a pair the matrix leaves out
    /// cannot be omitted; mirroring the median keeps it steady and makes it
    /// regress only when `op_p50_ms` already has.
    pub fn mirror_p50(&mut self, outside_matrix: &[&str]) {
        let p50 = self.metrics["op_p50_ms"];
        for name in outside_matrix {
            self.set(name, p50);
        }
    }

    /// Stamps the process's peak resident set; call when the workload ends.
    pub fn set_peak_rss(&mut self) {
        self.set("peak_rss_mb", host::peak_rss_mib());
    }

    /// Derives the timing metrics of a traced run and writes its trace file.
    pub fn finish_trace(&mut self, trace: &Trace, workload: &str, seed: u64) {
        crate::probes::derive_timings(trace, &mut self.metrics);
        let path = host::out_dir().join(format!("trace-{workload}-{seed}.json"));
        let json = trace.to_json(workload, seed, 200_000);
        match std::fs::write(&path, format!("{json}\n")) {
            Ok(()) => self.notes.push(format!(
                "trace: {} spans, written to {}",
                trace.spans.len(),
                path.display()
            )),
            Err(e) => self.notes.push(format!("trace file not written: {e}")),
        }
    }
}

/// Calls `op` until `seconds` have passed and at least `min_ops` ran. `op`
/// times its own measured part and returns it in ms (checks it makes on the
/// output stay outside the latency).
pub fn timed_ops(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Result<Timed, String> {
    let start = Instant::now();
    let mut timed = Timed::default();
    while start.elapsed().as_secs_f64() < seconds || timed.len() < min_ops {
        let ms = op()?;
        timed.push(ms, start.elapsed().as_secs_f64());
    }
    Ok(timed)
}
