//! The harness's own arithmetic: exact percentiles, quartile spread, and the
//! seeded random streams every input is derived from.

use std::collections::BTreeMap;

/// Exact nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns them (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples
}

/// Nearest-rank median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Length in seconds of the windows a run's timings are cut into: half a
/// second is a thousand requests of the open loop, which leaves ten samples
/// beyond a 99th percentile.
pub const WINDOW_S: f64 = 0.5;

/// The ops of one timed run, and the quiet-window statistics over them.
///
/// The reference box shares its host, and the host's interference comes and
/// goes over anything from a fraction of a second to minutes: the *same*
/// forward pass takes 100 ms or 160 ms, the `serve_local_open` median is
/// 2.8 ms or 5.5 ms, and a statistic pooled over the run reads the share of
/// the run a neighbour was busy (110-170 ms over runs of one commit and
/// seed). Interference only ever adds time, so every timing is taken per
/// window of [`WINDOW_S`] (windows by completion time; the exact
/// nearest-rank percentile of a window's samples) and the run reports its
/// **best window**: the familiar minimum-of-repeats, taken over a window so
/// that a percentile still means something. A regression in the code moves
/// every window and so moves the reading; a neighbour moves some windows
/// and does not. A run with no quiet window at all still reads high, which
/// the bounds are left wide for.
#[derive(Debug, Default)]
pub struct Timed {
    /// Each op's latency in ms.
    pub ms: Vec<f64>,
    /// When each op ended, in seconds since the run began (parallel to
    /// `ms`).
    pub at_s: Vec<f64>,
}

impl Timed {
    pub fn push(&mut self, ms: f64, at_s: f64) {
        self.ms.push(ms);
        self.at_s.push(at_s);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Adds the ops of a client that ran at the same time, on the same clock.
    pub fn merge(&mut self, other: Timed) {
        self.ms.extend(other.ms);
        self.at_s.extend(other.at_s);
    }

    /// Appends the ops of a later round, its clock starting at the next
    /// whole second after this one's last op, so that no window holds ops of
    /// two rounds.
    pub fn append(&mut self, other: Timed) {
        let shift_s = self.at_s.iter().copied().fold(0.0, f64::max).ceil();
        self.ms.extend(other.ms);
        self.at_s.extend(other.at_s.iter().map(|at| at + shift_s));
    }

    /// The latencies grouped into consecutive windows of [`WINDOW_S`] by
    /// `at_s`, in time order.
    fn windows(&self) -> Vec<Vec<f64>> {
        let mut grouped: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (&value, &at) in self.ms.iter().zip(&self.at_s) {
            grouped
                .entry((at / WINDOW_S) as u64)
                .or_default()
                .push(value);
        }
        grouped.into_values().collect()
    }

    /// The `p`-th latency percentile of the run's best window. Windows with
    /// fewer than `min_samples` are left out (a ragged last window, or one
    /// too thin for the percentile asked); with no window left, the pooled
    /// percentile.
    pub fn quiet_percentile(&self, p: f64, min_samples: usize) -> f64 {
        self.windows()
            .into_iter()
            .filter(|w| w.len() >= min_samples.max(1))
            .map(|w| percentile(&sorted(w), p))
            .reduce(f64::min)
            .unwrap_or_else(|| percentile(&sorted(self.ms.clone()), p))
    }

    /// Ops per second of a closed loop in its best window: `clients / mean
    /// latency` (Little's law; clients are never idle), which stays
    /// continuous when an op outlasts a window, as a count per window does
    /// not. `min_samples` as for [`Timed::quiet_percentile`].
    pub fn quiet_closed_rate(&self, clients: usize, min_samples: usize) -> f64 {
        let rate = |ms: &[f64]| clients as f64 * ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
        self.windows()
            .iter()
            .filter(|w| w.len() >= min_samples.max(1))
            .map(|w| rate(w))
            .reduce(f64::max)
            .unwrap_or_else(|| rate(&self.ms))
    }

    /// The fastest op: for a single caller, whose ops take from 20 ms to
    /// seconds, the quiet window is the op.
    pub fn fastest(&self) -> f64 {
        self.ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method) — the spread the acceptance rule uses.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The conventional median (mean of the two middle values of an even
/// count), as Python's `statistics.median`: what runs of one metric are
/// summarised by when two sets of runs are compared. 0 when empty.
pub fn center(values: &[f64]) -> f64 {
    let data = sorted(values.to_vec());
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Interquartile distance as a share of the median (`None` with fewer than
/// two values or a zero median).
pub fn spread_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = center(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// SplitMix64: one `u64` of state, full period, no dependency. Every random
/// choice of the benchmark (graph, weights, arrival gaps, queried nodes)
/// comes from one of these, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The generator of `stream` under `seed`: distinct streams of one seed
    /// are independent, the same (seed, stream) always repeats.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut mixer = Self {
            state: seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        };
        let state = mixer.next_u64();
        Self { state }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` node ids in `0..num_nodes` (duplicates allowed, as clients
    /// would send them).
    pub fn nodes(&mut self, count: usize, num_nodes: usize) -> Vec<usize> {
        (0..count).map(|_| self.below(num_nodes)).collect()
    }
}

/// Arrival offsets (ns from the start of the run) of a Poisson process at
/// `rate_per_s`, covering `seconds`. Reproducible from the seed.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    let mut rng = SplitMix64::stream(seed, 0xA771);
    let horizon = seconds * 1e9;
    let mut at = 0.0f64;
    let mut schedule = Vec::with_capacity((rate_per_s * seconds * 1.1) as usize + 16);
    loop {
        // -ln(1-u)/rate; 1-u is in (0, 1] so the log is finite.
        at += -(1.0 - rng.next_f64()).ln() / rate_per_s * 1e9;
        if at >= horizon {
            return schedule;
        }
        schedule.push(at as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 99.0), 99.0);
        assert_eq!(percentile(&data, 99.1), 100.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        // Five samples: p50 is the 3rd, p99 the 5th (no interpolation).
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 50.0), 30.0);
        assert_eq!(percentile(&five, 99.0), 50.0);
        assert_eq!(percentile(&five, 20.0), 10.0);
        assert_eq!(percentile(&five, 20.1), 20.0);
        // Even count: the lower middle, never an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quiet_statistics_read_the_undisturbed_windows() {
        // Eight half-second windows of 100 ops at 1 ms; a neighbour slows
        // five of them to 3 ms. Pooled, the median reads the neighbour; the
        // best window does not.
        let at: Vec<f64> = (0..800).map(|i| f64::from(i) / 200.0).collect();
        let mut ms = vec![1.0; 800];
        for window in [1, 2, 4, 5, 6] {
            for sample in &mut ms[window * 100..(window + 1) * 100] {
                *sample = 3.0;
            }
        }
        assert_eq!(median(&ms), 3.0);
        let timed = Timed { ms, at_s: at };
        assert_eq!(timed.quiet_percentile(50.0, 1), 1.0);
        assert_eq!(timed.quiet_percentile(99.0, 100), 1.0);
        // Too few samples per window for the percentile asked: pooled.
        assert_eq!(timed.quiet_percentile(99.0, 1000), 3.0);
        // One client, 1 ms per op: 1000 ops/s in the quiet windows.
        assert_eq!(timed.quiet_closed_rate(1, 1), 1000.0);
        assert_eq!(timed.quiet_closed_rate(2, 1), 2000.0);
        assert_eq!(timed.quiet_closed_rate(1, 1000), 800.0 / 1.8);
        assert_eq!(timed.fastest(), 1.0);
        // A change that slows every window moves the quiet reading too.
        let slower = Timed {
            ms: timed.ms.iter().map(|v| v * 2.0).collect(),
            at_s: timed.at_s.clone(),
        };
        assert_eq!(slower.quiet_percentile(50.0, 1), 2.0);
    }

    #[test]
    fn rounds_do_not_share_a_window() {
        let mut all = Timed::default();
        for round in 0..3 {
            let mut ops = Timed::default();
            // 0.3 s of ops per round, faster round by round; were rounds
            // laid end to end, the second window would mix two of them.
            for i in 0..30 {
                ops.push(f64::from(3 - round), f64::from(i) / 100.0);
            }
            all.append(ops);
        }
        assert_eq!(all.len(), 90);
        assert_eq!(all.at_s[30], 1.0);
        assert_eq!(all.at_s[60], 2.0);
        assert_eq!(all.quiet_percentile(50.0, 30), 1.0);
        assert_eq!(all.quiet_percentile(100.0, 30), 1.0);
        // Concurrent clients share a clock instead.
        let mut merged = Timed::default();
        merged.push(1.0, 0.1);
        let mut other = Timed::default();
        other.push(2.0, 0.2);
        merged.merge(other);
        assert_eq!(merged.at_s, [0.1, 0.2]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some((2.5, 5.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(center(&ten), 5.5);
        assert_eq!(center(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(spread_share(&ten), Some(5.5 / 5.5));
    }

    #[test]
    fn poisson_schedule_is_reproducible_and_on_rate() {
        let a = poisson_schedule(7, 2000.0, 5.0);
        assert_eq!(
            a,
            poisson_schedule(7, 2000.0, 5.0),
            "same seed, same arrivals"
        );
        assert_ne!(a, poisson_schedule(8, 2000.0, 5.0), "another seed differs");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert!(*a.last().unwrap() < 5_000_000_000);
        let rate = a.len() as f64 / 5.0;
        assert!((1900.0..2100.0).contains(&rate), "rate was {rate}/s");
    }

    #[test]
    fn streams_of_one_seed_are_independent_and_repeatable() {
        let mut a = SplitMix64::stream(3, 1);
        let mut b = SplitMix64::stream(3, 1);
        let mut c = SplitMix64::stream(3, 2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!(a.nodes(64, 10).iter().all(|&n| n < 10));
    }
}
