//! Open-loop load generator for the serving front-end: Poisson arrivals at
//! a configured offered load, with log-bucketed latency histograms.
//!
//! The closed-loop sweeps in [`crate::sweeps`] measure *service time* —
//! each iteration submits a batch and waits for it, so the server is never
//! more loaded than one window. Tail latency under load needs the opposite
//! discipline: an **open loop**, where arrivals are paced by an external
//! clock (exponential inter-arrival gaps, i.e. a Poisson process) and keep
//! coming regardless of how far the server has fallen behind. That is what
//! exposes queueing delay, adaptive-batch behaviour and backpressure, and
//! it is the standard methodology for tail-latency measurement (the
//! coordinated-omission trap the closed loop falls into).
//!
//! Everything is seeded: the arrival process derives from [`SplitMix64`],
//! so two runs at the same seed offer the same arrival schedule (modulo
//! sleep jitter). Latencies are recorded into a [`LatencyHistogram`] with
//! ~6% value resolution, from which `p50`/`p99`/`p999` rows are extracted
//! for `BENCH_serve.json` (gated by `bench_gate`; the `load_harness` bin is
//! the CI smoke driver).

use crate::sweeps::{serve_classify_request, serve_server};
use gcod_runtime::{PopTimeout, SyncQueue};
use gcod_serve::{SubmitOptions, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered loads (requests/second) of the default open-loop sweep: one
/// comfortably under capacity, one near it, one past it (where adaptive
/// batching and queue backpressure carry the traffic).
pub const OPEN_LOOP_LOADS: &[f64] = &[100.0, 800.0, 2500.0];

/// Requests per offered load in the default sweep.
pub const OPEN_LOOP_REQUESTS: usize = 300;

/// The quantile rows committed to `BENCH_serve.json`: `(case, quantile)`.
pub const OPEN_LOOP_QUANTILES: &[(&str, f64)] =
    &[("open-p50", 0.50), ("open-p99", 0.99), ("open-p999", 0.999)];

/// SplitMix64: a tiny, high-quality seeded PRNG (the PCG paper's favourite
/// mixing finaliser). One `u64` of state, full 2^64 period, no vendored
/// dependency needed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponentially distributed gap with the given rate (events/sec),
    /// i.e. one inter-arrival time of a Poisson process.
    pub fn next_exp_gap(&mut self, rate_per_sec: f64) -> Duration {
        let u = self.next_f64();
        // -ln(1-u)/rate; 1-u is in (0, 1] so the log is finite.
        let secs = -(1.0 - u).ln() / rate_per_sec.max(f64::MIN_POSITIVE);
        Duration::from_secs_f64(secs.clamp(0.0, 60.0))
    }
}

/// Number of linear sub-buckets per power-of-two octave (16 → ~6% value
/// resolution, HDR-histogram style).
const SUBBUCKETS: usize = 16;
/// Bucket count: 16 exact buckets under 16ns plus 60 octaves × 16.
const BUCKETS: usize = SUBBUCKETS * 61;

/// A log-bucketed latency histogram: power-of-two octaves split into 16
/// linear sub-buckets (~6% value resolution), exact min/max, O(1) record,
/// O(buckets) quantile.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn bucket_index(ns: u64) -> usize {
        if ns < SUBBUCKETS as u64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize; // >= 4 here
        let sub = ((ns >> (exp - 4)) & 0xF) as usize;
        (exp - 3) * SUBBUCKETS + sub
    }

    /// The lower bound (ns) of bucket `index` — what quantiles report.
    fn bucket_value(index: usize) -> u64 {
        if index < SUBBUCKETS {
            return index as u64;
        }
        let group = index / SUBBUCKETS;
        let sub = (index % SUBBUCKETS) as u64;
        let exp = group + 3;
        (SUBBUCKETS as u64 + sub) << (exp - 4)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket_index(ns).min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact smallest recorded sample in nanoseconds (0 when empty).
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Exact largest recorded sample in nanoseconds (0 when empty).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The latency (ns) at quantile `q` in `[0, 1]`: the bucket holding the
    /// `ceil(q × count)`-th smallest sample, clamped to the exact min/max so
    /// `quantile(0)` and `quantile(1)` are exact. 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        if target == self.total {
            return self.max_ns;
        }
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Self::bucket_value(index).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Configuration of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered load in requests/second (the Poisson rate).
    pub offered_rps: f64,
    /// Total arrivals to generate.
    pub requests: usize,
    /// Seed of the arrival process.
    pub seed: u64,
    /// `max_batch` of the server under test.
    pub max_batch: usize,
    /// Per-submission deadline (`None` = none; expiries count as rejected
    /// work in the report, not as lost tickets).
    pub deadline: Option<Duration>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            offered_rps: 500.0,
            requests: OPEN_LOOP_REQUESTS,
            seed: 7,
            max_batch: 32,
            deadline: None,
        }
    }
}

/// Outcome of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The configured offered load (requests/second).
    pub offered_rps: f64,
    /// Arrivals generated.
    pub offered: u64,
    /// Submissions the server accepted.
    pub accepted: u64,
    /// Submissions rejected at the door (backpressure / overload / expired
    /// in queue — everything that resolved with a rejection).
    pub rejected: u64,
    /// Accepted tickets that never resolved within the collection timeout.
    /// **Must be zero**: a lost ticket is a serving-layer bug (the drain
    /// contract says every accepted ticket resolves).
    pub lost: u64,
    /// Completed requests per second of wall time, start of first arrival
    /// to last completion.
    pub achieved_rps: f64,
    /// Latency histogram over successfully completed requests
    /// (submission-to-completion, queueing included).
    pub histogram: LatencyHistogram,
}

impl OpenLoopReport {
    /// The latency (ns) at quantile `q` over completed requests.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.histogram.quantile(q)
    }
}

/// Runs one open-loop measurement: spawns the [`serve_server`] fixture,
/// answers one untimed warm-up request, paces `config.requests` Poisson
/// arrivals at `config.offered_rps`, and collects completion latencies on a
/// second thread (so waiting never back-pressures the arrival clock — that
/// would close the loop).
///
/// # Panics
///
/// Panics when the warm-up request fails or the collector thread panics (a
/// harness bug, not a load outcome).
pub fn run_open_loop(config: &OpenLoopConfig) -> OpenLoopReport {
    let handle = serve_server(config.max_batch).spawn();
    // A served model computes its full-graph logits on its first
    // classification. Pay for that pass before the arrival clock starts
    // (as the closed-loop cases' untimed first iteration does): inside the
    // window it would stall the handful of arrivals behind it, and with a
    // few hundred requests per load those few *are* the p99.
    let warm_up = handle.submit(serve_classify_request(0), SubmitOptions::default());
    warm_up.and_then(|t| t.wait()).expect("warm-up request");
    let inflight: Arc<SyncQueue<(Ticket, Instant)>> =
        Arc::new(SyncQueue::bounded(config.requests.max(1)));

    // The collector: FIFO over submission order (the dispatcher resolves in
    // pop order, so head-of-line waiting tracks completion order). Latency
    // is submit-to-observed-completion; a ticket unresolved after the
    // generous timeout is *lost* — the invariant the smoke harness asserts
    // on.
    let collector = {
        let inflight = Arc::clone(&inflight);
        std::thread::spawn(move || {
            let mut histogram = LatencyHistogram::new();
            let mut lost = 0u64;
            let mut rejected_in_queue = 0u64;
            let mut last_completion = None;
            loop {
                match inflight.pop_timeout(Duration::from_millis(100)) {
                    PopTimeout::Item((ticket, submitted_at)) => {
                        match ticket.wait_timeout(Duration::from_secs(10)) {
                            Some(Ok(_)) => {
                                let now = Instant::now();
                                histogram.record(now.duration_since(submitted_at));
                                last_completion = Some(now);
                            }
                            // Deadline expiry inside the queue resolves the
                            // ticket with a rejection: accounted, not lost.
                            Some(Err(_)) => rejected_in_queue += 1,
                            None => lost += 1,
                        }
                    }
                    PopTimeout::TimedOut => continue,
                    PopTimeout::Closed => break,
                }
            }
            (histogram, lost, rejected_in_queue, last_completion)
        })
    };

    let mut rng = SplitMix64::new(config.seed);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let options = match config.deadline {
        Some(deadline) => SubmitOptions::default().deadline(deadline),
        None => SubmitOptions::default(),
    };
    let started = Instant::now();
    let mut next_arrival = started;
    for i in 0..config.requests {
        next_arrival += rng.next_exp_gap(config.offered_rps);
        let now = Instant::now();
        if next_arrival > now {
            // gcod-check: allow(thread-sleep) — open-loop pacing: arrivals are driven by an external clock by definition; there is no peer to park on a condvar for.
            std::thread::sleep(next_arrival - now);
        }
        match handle.submit(serve_classify_request(i), options) {
            Ok(ticket) => {
                accepted += 1;
                let _ = inflight.try_push((ticket, Instant::now()));
            }
            Err(_) => rejected += 1,
        }
    }
    inflight.close();
    let (histogram, lost, rejected_in_queue, last_completion) =
        collector.join().expect("collector thread");
    handle.shutdown();

    let elapsed = last_completion
        .unwrap_or_else(Instant::now)
        .duration_since(started)
        .as_secs_f64();
    let achieved_rps = if elapsed > 0.0 {
        histogram.count() as f64 / elapsed
    } else {
        0.0
    };
    OpenLoopReport {
        offered_rps: config.offered_rps,
        offered: config.requests as u64,
        accepted,
        rejected: rejected + rejected_in_queue,
        lost,
        achieved_rps,
        histogram,
    }
}

/// Sweeps the open loop over `loads` (requests/second), `requests` arrivals
/// each, on one seed.
pub fn sweep_open_loop(loads: &[f64], requests: usize, seed: u64) -> Vec<OpenLoopReport> {
    loads
        .iter()
        .map(|&offered_rps| {
            run_open_loop(&OpenLoopConfig {
                offered_rps,
                requests,
                seed,
                ..OpenLoopConfig::default()
            })
        })
        .collect()
}

/// Flattens sweep reports into gate rows keyed exactly like the committed
/// `BENCH_serve.json` open-loop rows: `serve/<case>/<offered_rps>` with the
/// quantile latency (ns) as the value, for each of [`OPEN_LOOP_QUANTILES`].
pub fn open_loop_gate_rows(reports: &[OpenLoopReport]) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for report in reports {
        for &(case, q) in OPEN_LOOP_QUANTILES {
            rows.push((
                format!("serve/{case}/{:.0}", report.offered_rps),
                report.quantile_ns(q) as f64,
            ));
        }
    }
    rows
}

/// Renders sweep reports as `BENCH_serve.json`-shaped JSON objects (one
/// string per row, no surrounding array): `case` is the quantile name,
/// `batch` reuses the offered load as the numeric key column, `median_ns`
/// is the quantile latency.
pub fn open_loop_summary_rows(reports: &[OpenLoopReport], resolved_workers: usize) -> Vec<String> {
    let mut rows = Vec::new();
    for report in reports {
        for &(case, q) in OPEN_LOOP_QUANTILES {
            let ns = report.quantile_ns(q);
            rows.push(format!(
                "  {{\"case\": \"{case}\", \"batch\": {:.0}, \"median_ns\": {ns}, \
                 \"per_request_us\": {:.3}, \"throughput_rps\": {:.1}, \
                 \"resolved_workers\": {resolved_workers}}}",
                report.offered_rps,
                ns as f64 / 1e3,
                report.achieved_rps,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_well_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs[0], xs[1]);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64(), "different seed, different stream");
        for _ in 0..1000 {
            let u = c.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_gaps_have_roughly_the_configured_mean() {
        let mut rng = SplitMix64::new(9);
        let rate = 1000.0; // mean gap 1ms
        let n = 4000;
        let total: f64 = (0..n).map(|_| rng.next_exp_gap(rate).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!(
            (0.8e-3..1.2e-3).contains(&mean),
            "mean gap {mean}s for rate {rate}/s"
        );
    }

    #[test]
    fn histogram_buckets_round_trip_and_quantiles_are_ordered() {
        let mut hist = LatencyHistogram::new();
        assert_eq!(hist.quantile(0.5), 0);
        // A spread of values across several octaves.
        for ns in [50u64, 100, 100, 200, 400, 800, 1_600, 3_200, 1_000_000] {
            hist.record(Duration::from_nanos(ns));
        }
        assert_eq!(hist.count(), 9);
        assert_eq!(hist.min_ns(), 50);
        assert_eq!(hist.max_ns(), 1_000_000);
        let p50 = hist.quantile(0.50);
        let p99 = hist.quantile(0.99);
        let p999 = hist.quantile(0.999);
        assert!(p50 <= p99 && p99 <= p999, "quantiles must be monotone");
        assert!(p999 <= hist.max_ns());
        // ~6% bucket resolution: the p50 bucket holds the true median (400,
        // the 5th smallest of 9).
        assert!((375..=400).contains(&p50), "p50 bucket was {p50}");
        // Extremes are exact.
        assert_eq!(hist.quantile(0.0), 50);
        assert_eq!(hist.quantile(1.0), 1_000_000);
    }

    #[test]
    fn bucket_value_is_a_lower_bound_of_its_own_bucket() {
        for ns in [0u64, 1, 15, 16, 17, 31, 32, 1_000, 123_456, u64::MAX / 2] {
            let index = LatencyHistogram::bucket_index(ns);
            let value = LatencyHistogram::bucket_value(index);
            assert!(value <= ns, "bucket value {value} exceeds sample {ns}");
            if index + 1 < BUCKETS {
                assert!(
                    LatencyHistogram::bucket_value(index + 1) > ns,
                    "sample {ns} belongs to a later bucket"
                );
            }
        }
    }

    #[test]
    fn tiny_open_loop_run_loses_no_tickets() {
        let report = run_open_loop(&OpenLoopConfig {
            offered_rps: 400.0,
            requests: 24,
            seed: 3,
            ..OpenLoopConfig::default()
        });
        assert_eq!(report.offered, 24);
        assert_eq!(report.lost, 0, "every accepted ticket must resolve");
        assert_eq!(
            report.offered,
            report.histogram.count() + report.rejected + report.lost,
            "every arrival is completed, rejected or lost — none vanish"
        );
        assert!(report.histogram.count() > 0);
        assert!(report.quantile_ns(0.5) > 0);
    }

    #[test]
    fn gate_and_summary_rows_cover_every_quantile_per_load() {
        let report = run_open_loop(&OpenLoopConfig {
            offered_rps: 600.0,
            requests: 16,
            seed: 5,
            ..OpenLoopConfig::default()
        });
        let rows = open_loop_gate_rows(std::slice::from_ref(&report));
        assert_eq!(rows.len(), OPEN_LOOP_QUANTILES.len());
        assert!(rows.iter().any(|(k, _)| k == "serve/open-p50/600"));
        assert!(rows.iter().all(|(_, v)| *v > 0.0));
        let json = open_loop_summary_rows(std::slice::from_ref(&report), 1);
        assert_eq!(json.len(), OPEN_LOOP_QUANTILES.len());
        assert!(json[0].contains("\"case\": \"open-p50\""));
        assert!(json[0].contains("\"batch\": 600"));
    }
}
