//! Load generators for the serving workloads: an open loop paced by a seeded
//! Poisson schedule and a closed loop of blocking clients. Both check every
//! answer against the oracle logits and account for every request offered.

use crate::host;
use crate::stats::{SplitMix64, Timed};
use crate::trace::{Recorder, Tracer};
use gcod_nn::Tensor;
use gcod_serve::{Handle, ServeRequest, ServeResponse, SubmitOptions, Ticket};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Name every benchmark fixture registers its model under.
pub const MODEL: &str = "bench";
/// Nodes per classification request.
pub const NODES_PER_REQUEST: usize = 8;
/// The latency limit of the serving workloads: a request later than this, or
/// failed, misses it.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(20);
/// How long a collector waits for one ticket before calling it lost.
const LOST_AFTER: Duration = Duration::from_secs(10);

/// Where every offered request ended up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub offered: u64,
    pub ok: u64,
    pub errored: u64,
    pub rejected: u64,
    pub lost: u64,
    /// Answered, but not bit-equal to the oracle.
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errored + self.rejected + self.lost + self.wrong
    }

    /// Count conservation: every offered request is in exactly one bucket.
    pub fn conserved(&self) -> bool {
        self.offered == self.ok + self.failed()
    }

    pub fn add(&mut self, other: &Tally) {
        self.offered += other.offered;
        self.ok += other.ok;
        self.errored += other.errored;
        self.rejected += other.rejected;
        self.lost += other.lost;
        self.wrong += other.wrong;
    }
}

/// Outcome of one load phase.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub tally: Tally,
    /// Every correct answer: its latency (open loop: from the instant the
    /// request was due; closed loop: from the submit call) and when it
    /// arrived.
    pub ops: Timed,
    /// Correct answers inside [`LATENCY_LIMIT`].
    pub within_limit: u64,
    /// First request to last completion (summed over rounds).
    pub wall_s: f64,
    /// Open loop only: how late (ms) the pacer sent each request.
    pub pacer_late_ms: Vec<f64>,
    /// Open loop only: submission-queue depth seen by the pacer a quarter of
    /// the way through the schedule and at its end (a growing backlog shows
    /// as the second exceeding the first).
    pub queue_depth: (usize, usize),
}

impl LoadResult {
    /// Adds a later round's result: counts add up, its ops follow this
    /// one's in time (from the next whole second, so that no window holds ops
    /// of two rounds), and the queue depths are the latest round's.
    pub fn absorb(&mut self, round: LoadResult) {
        self.tally.add(&round.tally);
        self.ops.append(round.ops);
        self.within_limit += round.within_limit;
        self.wall_s += round.wall_s;
        self.pacer_late_ms.extend(round.pacer_late_ms);
        self.queue_depth = round.queue_depth;
    }
}

/// Refuses load the box cannot generate honestly: with more load threads
/// than cores the generator itself becomes the bottleneck being measured.
pub fn check_load_threads(threads: usize) -> Result<(), String> {
    let nproc = host::nproc();
    if threads > nproc {
        return Err(format!(
            "refusing to run {threads} load threads on {nproc} core(s)"
        ));
    }
    Ok(())
}

/// Whether `response` carries exactly the oracle's logit rows for `nodes`.
pub fn answer_is_exact(response: &ServeResponse, nodes: &[usize], oracle: &Tensor) -> bool {
    let Some(answer) = response.as_classification() else {
        return false;
    };
    answer.logits.shape() == (nodes.len(), oracle.cols())
        && nodes.iter().enumerate().all(|(row, &node)| {
            let got = answer.logits.row(row);
            let want = oracle.row(node);
            got.iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Polls `ticket` until it resolves or `patience` runs out. The load threads
/// spin rather than sleep: a sleeping thread of this VM wakes 0.05-3 ms late
/// (its idle vCPU has to be scheduled by the host first), and that would be
/// charged to the server.
fn spin_for(ticket: &Ticket, patience: Duration) -> Option<gcod_serve::Result<ServeResponse>> {
    let give_up = Instant::now() + patience;
    loop {
        if let Some(outcome) = ticket.try_result() {
            return Some(outcome);
        }
        if Instant::now() >= give_up {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// One submitted request on its way from the pacer to the collector.
struct Pending {
    ticket: Ticket,
    due: Instant,
    nodes: Vec<usize>,
    /// `(root span id, op id)` when tracing.
    span: Option<(u64, u64)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorts a finished request into the tally; returns the completion instant
/// of a correct answer.
fn settle(
    outcome: Option<gcod_serve::Result<ServeResponse>>,
    nodes: &[usize],
    oracle: &Tensor,
    tally: &mut Tally,
) -> Option<Instant> {
    match outcome {
        Some(Ok(response)) => {
            let done = Instant::now();
            if answer_is_exact(&response, nodes, oracle) {
                tally.ok += 1;
                return Some(done);
            }
            tally.wrong += 1;
        }
        Some(Err(e)) if e.reject_reason().is_some() => tally.rejected += 1,
        Some(Err(_)) => tally.errored += 1,
        None => tally.lost += 1,
    }
    None
}

/// The open loop's books: what is outstanding and what has been measured.
struct OpenLoop<'a> {
    start: Instant,
    oracle: &'a Tensor,
    tracer: Option<&'a Tracer>,
    recorder: Option<Recorder<'a>>,
    pending: VecDeque<Pending>,
    result: LoadResult,
}

impl OpenLoop<'_> {
    /// Polls the oldest outstanding ticket and collects every request that
    /// resolves, until `until`; with `None`, until nothing is outstanding (a
    /// ticket still pending `LOST_AFTER` later is booked as lost). It spins
    /// rather than sleeps: a sleeping thread of this VM wakes 0.1-3 ms late,
    /// which the open loop would charge to the server.
    fn collect_until(&mut self, until: Option<Instant>) {
        let give_up = Instant::now() + LOST_AFTER;
        loop {
            let now = Instant::now();
            match self.pending.front() {
                Some(oldest) => {
                    if let Some(outcome) = oldest.ticket.try_result() {
                        let oldest = self.pending.pop_front().expect("front was some");
                        self.settle(oldest, Some(outcome), now);
                        continue;
                    }
                    if until.is_none() && now >= give_up {
                        let oldest = self.pending.pop_front().expect("front was some");
                        self.settle(oldest, None, now);
                        continue;
                    }
                }
                None if until.is_none() => return,
                None => {}
            }
            if until.is_some_and(|until| now >= until) {
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Takes a finished request off the books: tally, latency from the *due*
    /// instant, and its spans when tracing.
    fn settle(
        &mut self,
        request: Pending,
        outcome: Option<gcod_serve::Result<ServeResponse>>,
        waiting_from: Instant,
    ) {
        let result = &mut self.result;
        let done = settle(outcome, &request.nodes, self.oracle, &mut result.tally);
        let end = done.unwrap_or_else(Instant::now);
        if let Some(done) = done {
            let latency = done.saturating_duration_since(request.due);
            let at_s = done.saturating_duration_since(self.start).as_secs_f64();
            result.ops.push(ms(latency), at_s);
            result.within_limit += u64::from(latency <= LATENCY_LIMIT);
            result.wall_s = at_s;
        }
        if let (Some(t), Some(rec), Some((root, op))) =
            (self.tracer, self.recorder.as_mut(), request.span)
        {
            rec.record(root, 0, op, "load", "op", request.due, end);
            rec.record(t.new_id(), root, op, "serve", "wait", waiting_from, end);
        }
    }
}

/// Open loop: the calling thread submits at the instants of `schedule` (ns
/// offsets) whatever the server's state, and between two arrivals collects
/// the requests that resolved (tickets resolve in submission order, batch by
/// batch, so it watches the oldest). Latency runs from the *due* instant, so
/// a stalled generator or a full queue is charged to the requests it
/// delayed. One thread, not a pacer and a collector: the reference box has
/// two cores, and a second load thread takes the one the server computes on.
pub fn open_loop(
    handle: &Handle,
    oracle: &Tensor,
    schedule: &[u64],
    seed: u64,
    tracer: Option<&Tracer>,
) -> LoadResult {
    let mut rng = SplitMix64::stream(seed, 0x0DE5);
    let mut books = OpenLoop {
        start: Instant::now() + Duration::from_millis(2),
        oracle,
        tracer,
        recorder: tracer.map(Tracer::recorder),
        pending: VecDeque::new(),
        result: LoadResult::default(),
    };
    books.result.pacer_late_ms.reserve(schedule.len());
    for (i, &offset) in schedule.iter().enumerate() {
        let due = books.start + Duration::from_nanos(offset);
        books.collect_until(Some(due));
        let late = Instant::now().saturating_duration_since(due);
        books.result.pacer_late_ms.push(ms(late));
        let nodes = rng.nodes(NODES_PER_REQUEST, oracle.rows());
        let request = ServeRequest::classify(MODEL, nodes.clone());
        let span = tracer.map(|t| (t.new_id(), t.new_op()));
        let before = Instant::now();
        let submitted = handle.submit(request, SubmitOptions::default());
        if let (Some(t), Some(rec), Some((root, op))) = (tracer, books.recorder.as_mut(), span) {
            rec.record(
                t.new_id(),
                root,
                op,
                "serve",
                "submit",
                before,
                Instant::now(),
            );
        }
        books.result.tally.offered += 1;
        match submitted {
            Ok(ticket) => books.pending.push_back(Pending {
                ticket,
                due,
                nodes,
                span,
            }),
            Err(e) if e.reject_reason().is_some() => books.result.tally.rejected += 1,
            Err(_) => books.result.tally.errored += 1,
        }
        if i == schedule.len() / 4 {
            books.result.queue_depth.0 = handle.queue_len();
        }
    }
    books.result.queue_depth.1 = handle.queue_len();
    books.collect_until(None);
    books.result
}

/// One closed-loop client: keeps `window` blocking requests outstanding
/// (submit the window, poll until all of it has resolved, repeat) until
/// `deadline`. `wall_s` of its result is its own last completion.
fn closed_loop_client(
    handle: &Handle,
    oracle: &Tensor,
    window: usize,
    start: Instant,
    deadline: Instant,
    mut rng: SplitMix64,
    tracer: Option<&Tracer>,
) -> LoadResult {
    let mut recorder = tracer.map(Tracer::recorder);
    let mut result = LoadResult::default();
    let mut inflight: Vec<(Ticket, Instant, Instant, Vec<usize>)> = Vec::with_capacity(window);
    while Instant::now() < deadline {
        for _ in 0..window {
            let nodes = rng.nodes(NODES_PER_REQUEST, oracle.rows());
            let request = ServeRequest::classify(MODEL, nodes.clone());
            let before = Instant::now();
            let submitted = handle.submit(request, SubmitOptions::default().blocking());
            result.tally.offered += 1;
            match submitted {
                Ok(ticket) => inflight.push((ticket, before, Instant::now(), nodes)),
                Err(e) if e.reject_reason().is_some() => result.tally.rejected += 1,
                Err(_) => result.tally.errored += 1,
            }
        }
        for (ticket, before, submitted, nodes) in inflight.drain(..) {
            let outcome = spin_for(&ticket, LOST_AFTER);
            let done = settle(outcome, &nodes, oracle, &mut result.tally);
            let end = done.unwrap_or_else(Instant::now);
            if let Some(done) = done {
                let latency = done.saturating_duration_since(before);
                let at_s = done.saturating_duration_since(start).as_secs_f64();
                result.ops.push(ms(latency), at_s);
                result.within_limit += u64::from(latency <= LATENCY_LIMIT);
                result.wall_s = at_s;
            }
            if let (Some(rec), Some(t)) = (recorder.as_mut(), tracer) {
                let (root, op) = (t.new_id(), t.new_op());
                rec.record(root, 0, op, "load", "op", before, end);
                rec.record(t.new_id(), root, op, "serve", "submit", before, submitted);
                rec.record(t.new_id(), root, op, "serve", "wait", submitted, end);
            }
        }
    }
    result
}

/// Closed loop: `clients` threads, each keeping `window` blocking requests
/// outstanding until `seconds` have passed. A slow server therefore receives
/// less load.
pub fn closed_loop(
    handle: &Handle,
    oracle: &Tensor,
    clients: usize,
    window: usize,
    seconds: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> LoadResult {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<LoadResult> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                let rng = SplitMix64::stream(seed, 0xC105_ED00 + client as u64);
                scope.spawn(move || {
                    closed_loop_client(handle, oracle, window, start, deadline, rng, tracer)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });
    let mut result = LoadResult::default();
    for client in per_client {
        result.tally.add(&client.tally);
        result.ops.merge(client.ops);
        result.within_limit += client.within_limit;
        result.wall_s = result.wall_s.max(client.wall_s);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_conserves_counts() {
        let mut tally = Tally {
            offered: 10,
            ok: 6,
            errored: 1,
            rejected: 2,
            lost: 0,
            wrong: 1,
        };
        assert_eq!(tally.failed(), 4);
        assert!(tally.conserved());
        tally.add(&Tally {
            offered: 5,
            ok: 5,
            ..Tally::default()
        });
        assert_eq!((tally.offered, tally.ok), (15, 11));
        assert!(tally.conserved());
        // A request that vanished (offered but in no bucket) breaks it.
        tally.offered += 1;
        assert!(!tally.conserved());
    }

    #[test]
    fn load_threads_beyond_the_cores_are_refused() {
        assert!(check_load_threads(1).is_ok());
        assert!(check_load_threads(host::nproc()).is_ok());
        let err = check_load_threads(host::nproc() + 1).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
    }
}
