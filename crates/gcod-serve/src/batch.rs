//! Pure batching helpers: grouping compatible submissions and splitting a
//! fused result back into per-request pieces.
//!
//! Keeping these free of queue/thread state makes the coalescing logic unit
//! testable on its own; the dispatcher in [`crate::server`] is a thin driver
//! around them.

use gcod_nn::{Result as NnResult, Tensor};

/// Groups `items` by `key`, preserving arrival order both across groups
/// (first-appearance order of each key) and within a group (submission
/// order). This is the coalescing rule of the batcher: every member of a
/// group shares a served model — hence dataset, architecture and precision —
/// and may be answered by one gather.
pub(crate) fn group_in_arrival_order<T, K: Eq + Clone>(
    items: Vec<T>,
    key: impl Fn(&T) -> K,
) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for item in items {
        let k = key(&item);
        match groups.iter_mut().find(|(existing, _)| *existing == k) {
            Some((_, members)) => members.push(item),
            None => groups.push((k, vec![item])),
        }
    }
    groups
}

/// Splits a fused, row-stacked result tensor back into per-member tensors of
/// `lens[i]` rows each. Every row is a bitwise copy, so splitting a fused
/// pass yields exactly the tensors the members would have received from
/// independent passes.
///
/// # Errors
///
/// Propagates shape errors when `lens` does not sum to the stacked row count
/// (a dispatcher bug, surfaced rather than silently truncated).
pub(crate) fn split_stacked(stacked: &Tensor, lens: &[usize]) -> NnResult<Vec<Tensor>> {
    let mut pieces = Vec::with_capacity(lens.len());
    let mut offset = 0usize;
    for &len in lens {
        let rows: Vec<usize> = (offset..offset + len).collect();
        pieces.push(stacked.gather_rows(&rows)?);
        offset += len;
    }
    if offset != stacked.rows() {
        return Err(gcod_nn::NnError::ShapeMismatch {
            context: format!(
                "batch split covered {offset} of {} stacked rows",
                stacked.rows()
            ),
        });
    }
    Ok(pieces)
}

/// Picks the fusion-window size for one batch of compatible requests:
/// how many members one fused gather may carry before a request at
/// the *front* of the window would blow its deadline waiting for the pass
/// to finish.
///
/// `slack_ns` is the time remaining until the oldest (earliest) deadline in
/// the window, `None` when no member carries a deadline. `est_request_ns`
/// is the server's running estimate of per-request fused service time, `0`
/// while unknown (nothing measured yet).
///
/// The rule: without a deadline or without an estimate there is nothing to
/// adapt to, so the configured maximum stands (this is what makes adaptive
/// batching *bit-identical* to the fixed-batch oracle on deadline-less
/// traffic). With both, the window is the number of estimated request
/// slots that fit in the slack, clamped to `[1, configured]` — an
/// already-due member still gets one dedicated pass rather than a zero-size
/// window (its expiry is decided by deadline triage, not here).
pub(crate) fn adaptive_max_batch(
    configured: usize,
    slack_ns: Option<u64>,
    est_request_ns: u64,
) -> usize {
    let configured = configured.max(1);
    let Some(slack) = slack_ns else {
        return configured;
    };
    if est_request_ns == 0 {
        return configured;
    }
    usize::try_from(slack / est_request_ns)
        .unwrap_or(configured)
        .clamp(1, configured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_preserves_arrival_order() {
        let items = vec![("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)];
        let groups = group_in_arrival_order(items, |&(k, _)| k);
        let shape: Vec<(&str, Vec<i32>)> = groups
            .into_iter()
            .map(|(k, members)| (k, members.into_iter().map(|(_, v)| v).collect()))
            .collect();
        assert_eq!(
            shape,
            vec![("a", vec![1, 3]), ("b", vec![2, 5]), ("c", vec![4])]
        );
    }

    #[test]
    fn split_stacked_partitions_exactly() {
        let stacked = Tensor::from_vec(5, 2, (0..10).map(|v| v as f32).collect()).unwrap();
        let pieces = split_stacked(&stacked, &[2, 0, 3]).unwrap();
        assert_eq!(pieces.len(), 3);
        assert_eq!(pieces[0].data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(pieces[1].shape(), (0, 2));
        assert_eq!(pieces[2].data(), &[4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        // Lengths that do not cover the stack are a hard error.
        assert!(split_stacked(&stacked, &[2, 2]).is_err());
    }

    #[test]
    fn adaptive_window_defaults_to_configured_without_signal() {
        for configured in 1..=32 {
            // No deadline in the window: nothing to adapt to.
            assert_eq!(adaptive_max_batch(configured, None, 100), configured);
            // Deadline but no estimate yet: same.
            assert_eq!(adaptive_max_batch(configured, Some(1_000), 0), configured);
        }
        // A zero configured cap still serves one request per pass.
        assert_eq!(adaptive_max_batch(0, None, 0), 1);
    }

    #[test]
    fn adaptive_window_tracks_slack_over_estimate() {
        // est = 100ns per request: the window is slack/100, clamped.
        assert_eq!(adaptive_max_batch(32, Some(0), 100), 1);
        assert_eq!(adaptive_max_batch(32, Some(99), 100), 1);
        assert_eq!(adaptive_max_batch(32, Some(100), 100), 1);
        assert_eq!(adaptive_max_batch(32, Some(250), 100), 2);
        assert_eq!(adaptive_max_batch(32, Some(800), 100), 8);
        assert_eq!(adaptive_max_batch(32, Some(3_200), 100), 32);
        // Huge slack clamps to the configured maximum.
        assert_eq!(adaptive_max_batch(32, Some(u64::MAX), 1), 32);
    }

    #[test]
    fn adaptive_window_hits_every_choice_up_to_the_cap() {
        // Every fusion-window choice in [1, configured] is reachable.
        let configured = 8;
        let est = 1_000u64;
        for want in 1..=configured {
            let slack = est * want as u64;
            assert_eq!(adaptive_max_batch(configured, Some(slack), est), want);
        }
        // Beyond the cap the clamp holds.
        assert_eq!(
            adaptive_max_batch(configured, Some(est * 100), est),
            configured
        );
    }
}
