//! Deterministic-interleaving model test for the shard supervisor's
//! recovery state machine.
//!
//! The full `ShardedModel` is too heavy to model-check directly (every
//! explored execution would launch sockets and workers), so this test
//! checks the *protocol skeleton* the supervisor is built from: the
//! [`RecoveryGate`] that serialises respawn cycles and lets shutdown fence
//! new cycles while in-flight recovery drains. Properties proved on every
//! schedule:
//!
//! * **no double respawn** — two supervisors racing a worker failure never
//!   hold two recovery tokens at once;
//! * **no dangling cycle** — once both supervisors have returned, the gate
//!   is not mid-recovery;
//! * **shutdown-during-recovery drains cleanly** — a `close` racing an
//!   active cycle neither strands the recoverer nor leaves the gate
//!   mid-recovery.
//!
//! Build with `--features model` or `RUSTFLAGS='--cfg gcod_model'`; on a
//! plain build this file compiles to nothing.

#![cfg(any(feature = "model", gcod_model))]

use std::sync::Arc;

use gcod_runtime::sync::atomic::{AtomicU64, Ordering};
use gcod_runtime::sync::model::Model;
use gcod_runtime::sync::thread;
use gcod_runtime::RecoveryGate;

/// Two supervisors race the same worker failure. On every schedule at most
/// one holds a recovery token at a time, at least one cycle completes, and
/// afterwards no cycle is left in flight.
#[test]
fn racing_supervisors_never_double_respawn() {
    let report = Model {
        max_preemptions: 2,
        ..Model::default()
    }
    .check("shard-supervisor-single-respawner", || {
        let gate = Arc::new(RecoveryGate::new());
        let holders = Arc::new(AtomicU64::new(0));
        let respawns = Arc::new(AtomicU64::new(0));
        let supervisor = |name: &str| {
            let gate = Arc::clone(&gate);
            let holders = Arc::clone(&holders);
            let respawns = Arc::clone(&respawns);
            thread::spawn_named(name, move || {
                // `None` means the peer holds the cycle; the loser returns.
                if let Some(token) = gate.begin_recovery() {
                    assert_eq!(
                        holders.fetch_add(1, Ordering::SeqCst),
                        0,
                        "two recovery cycles ran concurrently"
                    );
                    respawns.fetch_add(1, Ordering::SeqCst);
                    holders.fetch_sub(1, Ordering::SeqCst);
                    gate.finish(token);
                }
            })
        };
        let a = supervisor("supervisor-a");
        let b = supervisor("supervisor-b");
        a.join().expect("supervisor a ran to completion");
        b.join().expect("supervisor b ran to completion");
        let completed = respawns.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&completed),
            "expected one or two completed cycles, got {completed}"
        );
        assert!(!gate.is_recovering(), "a cycle was left dangling");
    });
    assert!(
        report.interleavings >= 100,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}

/// Shutdown races an active recovery cycle. On every schedule the
/// recoverer either completes its cycle (close only fences *new* cycles)
/// or is refused because the close won — and the gate never ends up
/// mid-recovery or admitting post-close cycles.
#[test]
fn shutdown_during_recovery_drains_cleanly() {
    let report = Model {
        max_preemptions: 2,
        ..Model::default()
    }
    .check("shard-supervisor-close-races-recovery", || {
        let gate = Arc::new(RecoveryGate::new());
        let recoverer = {
            let gate = Arc::clone(&gate);
            thread::spawn_named("recoverer", move || match gate.begin_recovery() {
                Some(token) => {
                    gate.finish(token);
                    true
                }
                // Refusal is only legitimate when the close got there first.
                None => gate.is_closed(),
            })
        };
        let closer = {
            let gate = Arc::clone(&gate);
            thread::spawn_named("closer", move || gate.close())
        };
        closer.join().expect("closer ran to completion");
        let resolved = recoverer.join().expect("recoverer ran to completion");
        assert!(resolved, "recoverer was refused while the gate was open");
        assert!(gate.is_closed());
        assert!(
            !gate.is_recovering(),
            "shutdown left a recovery cycle dangling"
        );
        assert!(
            gate.begin_recovery().is_none(),
            "a closed gate admitted a new recovery cycle"
        );
    });
    assert!(
        report.interleavings >= 20,
        "expected a meaningful exploration, got {} interleavings",
        report.interleavings
    );
}
