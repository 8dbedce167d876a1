//! Deterministic fault injection for the shard transport.
//!
//! A [`FaultPlan`] scripts exactly which frame on which shard connection
//! misbehaves and how; [`ChaosConn`] wraps a [`ShardConn`] and executes the
//! transport-level part of the script at frame granularity. Because every
//! fault is keyed by `(shard, nth frame, direction)` and plans can be
//! generated from a seed, a chaos test is fully reproducible: the same
//! plan against the same workload takes the same recovery path.
//!
//! The action set mirrors the real failure taxonomy of a socket fabric:
//!
//! | action | what the peer observes | expected recovery |
//! |---|---|---|
//! | [`FaultAction::DropSend`] / [`FaultAction::DropRecv`] | silence | deadline → heartbeat probe → retry |
//! | [`FaultAction::CorruptSend`] / [`FaultAction::CorruptRecv`] | CRC mismatch | reject frame, retry the idempotent RPC |
//! | [`FaultAction::TruncateSend`] | partial frame then EOF | reconnect/respawn |
//! | [`FaultAction::DelaySendMs`] | a late frame | absorbed, or deadline → probe |
//! | [`FaultAction::CloseAfterSend`] | EOF | reconnect/respawn |
//! | [`FaultAction::KillWorker`] | process death (supervisor-executed) | respawn + state replay |
//!
//! Corruption flips one bit *inside the frame body* (never the length
//! prefix), so the stream stays framed and the receiver's CRC-32 check —
//! not luck — is what catches the damage.

use std::io::{Read, Write};
use std::time::Duration;

use crate::frame::MAX_FRAME_LEN;
use crate::transport::ShardConn;

/// One scripted misbehaviour of the transport or the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard the Nth frame written by the router.
    DropSend,
    /// Silently discard the Nth frame read by the router.
    DropRecv,
    /// Flip one bit in the body of the Nth written frame (caught by the
    /// receiver's CRC).
    CorruptSend,
    /// Flip one bit in the body of the Nth read frame (caught by the
    /// router's CRC).
    CorruptRecv,
    /// Write only the first `keep` bytes of the Nth frame, then sever the
    /// connection — a crash mid-send.
    TruncateSend {
        /// Bytes actually written before the cut.
        keep: usize,
    },
    /// Delay the Nth written frame by this many milliseconds.
    DelaySendMs(u64),
    /// Write the Nth frame normally, then sever the connection.
    CloseAfterSend,
    /// Kill the worker before the router issues its Nth RPC to that
    /// shard. Executed by the supervisor (a transport wrapper cannot kill
    /// a process): SIGKILL for process workers, a severed socket for
    /// thread workers.
    KillWorker,
}

impl FaultAction {
    /// Whether this action intercepts frames the router *writes*.
    fn is_send(self) -> bool {
        matches!(
            self,
            FaultAction::DropSend
                | FaultAction::CorruptSend
                | FaultAction::TruncateSend { .. }
                | FaultAction::DelaySendMs(_)
                | FaultAction::CloseAfterSend
        )
    }

    /// Whether this action intercepts frames the router *reads*.
    fn is_recv(self) -> bool {
        matches!(self, FaultAction::DropRecv | FaultAction::CorruptRecv)
    }
}

/// One fault at one scripted point of one shard's connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// Shard whose connection misbehaves.
    pub shard: u32,
    /// 1-based ordinal: the Nth frame in the action's direction on that
    /// connection (for [`FaultAction::KillWorker`], the Nth RPC the
    /// supervisor issues to that shard).
    pub nth: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic script of transport/worker faults.
///
/// Entries are one-shot: each fires at most once. Faults only apply to the
/// connections established at launch — a respawned worker gets a clean
/// connection, so every plan describes a *finite* amount of injected
/// trouble and recovery is always reachable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scripted faults, in no particular order.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (no faults — the wrapper becomes a pass-through).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: adds one scripted fault.
    #[must_use]
    pub fn with(mut self, shard: u32, nth: u64, action: FaultAction) -> Self {
        self.entries.push(FaultEntry { shard, nth, action });
        self
    }

    /// A reproducible pseudo-random plan of `faults` entries over `shards`
    /// connections, derived from `seed` with a xorshift64* generator (no
    /// external RNG, no wall clock — same seed, same plan, forever).
    ///
    /// Seeded plans draw from the full recoverable taxonomy: drops,
    /// corruption in both directions, small delays, and connection closes.
    /// `KillWorker` and `TruncateSend` are left to explicit scripts so a
    /// seeded sweep exercises both the retry and the respawn paths without
    /// every seed degenerating into "respawn everything".
    pub fn seeded(seed: u64, shards: u32, faults: usize) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let r = next();
            let shard = (r % shards.max(1) as u64) as u32;
            let nth = 1 + (next() % 6);
            let action = match next() % 6 {
                0 => FaultAction::DropSend,
                1 => FaultAction::DropRecv,
                2 => FaultAction::CorruptSend,
                3 => FaultAction::CorruptRecv,
                4 => FaultAction::DelaySendMs(1 + next() % 3),
                _ => FaultAction::CloseAfterSend,
            };
            plan.entries.push(FaultEntry { shard, nth, action });
        }
        plan
    }

    /// Splits out the transport-level entries for one shard's connection
    /// (everything except [`FaultAction::KillWorker`]).
    pub fn transport_entries(&self, shard: u32) -> Vec<FaultEntry> {
        self.entries
            .iter()
            .filter(|e| e.shard == shard && e.action != FaultAction::KillWorker)
            .copied()
            .collect()
    }

    /// The scripted worker kills, as `(shard, nth RPC)` pairs.
    pub fn kill_entries(&self) -> Vec<(u32, u64)> {
        self.entries
            .iter()
            .filter(|e| e.action == FaultAction::KillWorker)
            .map(|e| (e.shard, e.nth))
            .collect()
    }
}

/// A [`ShardConn`] wrapper executing the transport part of a
/// [`FaultPlan`] at frame granularity.
///
/// With no scripted faults every call delegates straight to the inner
/// connection (zero-copy pass-through); with faults, writes are buffered
/// until `flush` (the frame layer writes exactly one frame per flush) and
/// reads are served whole-frame so a fault applies to a complete frame,
/// never a fragment the script did not ask for.
#[derive(Debug)]
pub struct ChaosConn {
    inner: ShardConn,
    faults: Vec<FaultEntry>,
    sent: u64,
    received: u64,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    rpos: usize,
}

impl ChaosConn {
    /// Wraps `inner` with this connection's scripted faults (see
    /// [`FaultPlan::transport_entries`]).
    pub fn with_faults(inner: ShardConn, faults: Vec<FaultEntry>) -> Self {
        ChaosConn {
            inner,
            faults,
            sent: 0,
            received: 0,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            rpos: 0,
        }
    }

    /// Sets the read deadline on the underlying socket.
    ///
    /// # Errors
    ///
    /// Propagates the transport error when the OS rejects the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> crate::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    /// Sets the write deadline on the underlying socket.
    ///
    /// # Errors
    ///
    /// Propagates the transport error when the OS rejects the option.
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> crate::Result<()> {
        self.inner.set_write_timeout(timeout)
    }

    /// Severs both directions of the underlying connection.
    pub fn shutdown_both(&self) {
        self.inner.shutdown_both();
    }

    /// Removes and returns the first unfired fault matching `nth` in the
    /// given direction.
    fn take_fault(&mut self, nth: u64, send: bool) -> Option<FaultAction> {
        let idx = self.faults.iter().position(|e| {
            e.nth == nth
                && if send {
                    e.action.is_send()
                } else {
                    e.action.is_recv()
                }
        })?;
        Some(self.faults.remove(idx).action)
    }

    /// Reads exactly `buf.len()` bytes from the inner connection; `Ok(false)`
    /// on clean EOF before the first byte.
    fn read_full(&mut self, buf: &mut [u8]) -> std::io::Result<bool> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(false),
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Pulls the next whole frame from the inner connection into `rbuf`,
    /// applying any scripted recv-direction fault; `Ok(false)` on clean
    /// EOF.
    fn fill_read_buffer(&mut self) -> std::io::Result<bool> {
        loop {
            let mut len_bytes = [0u8; 4];
            if !self.read_full(&mut len_bytes)? {
                return Ok(false);
            }
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len as u64 > MAX_FRAME_LEN {
                // A garbage length prefix is not something the script can
                // meaningfully intercept: hand the bytes through and let
                // the frame layer produce its FrameTooLarge error.
                self.rbuf = len_bytes.to_vec();
                self.rpos = 0;
                return Ok(true);
            }
            // Body (version + payload) plus the trailing CRC.
            let mut rest = vec![0u8; len + 4];
            if !self.read_full(&mut rest)? {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            self.received += 1;
            match self.take_fault(self.received, false) {
                Some(FaultAction::DropRecv) => continue,
                Some(FaultAction::CorruptRecv) => {
                    // Flip a bit in the middle of the body: the length
                    // prefix stays intact (the stream remains framed), the
                    // CRC check catches the damage.
                    rest[len / 2] ^= 0x20;
                }
                _ => {}
            }
            let mut frame = Vec::with_capacity(4 + rest.len());
            frame.extend_from_slice(&len_bytes);
            frame.extend_from_slice(&rest);
            self.rbuf = frame;
            self.rpos = 0;
            return Ok(true);
        }
    }

    /// Applies the scripted send-direction fault (if any) to the complete
    /// frame sitting in `wbuf`, then writes whatever survives.
    fn flush_frame(&mut self) -> std::io::Result<()> {
        self.sent += 1;
        let frame = std::mem::take(&mut self.wbuf);
        match self.take_fault(self.sent, true) {
            Some(FaultAction::DropSend) => Ok(()),
            Some(FaultAction::CorruptSend) => {
                let mut frame = frame;
                if frame.len() > 8 {
                    // Inside the body: past the 4-byte length prefix,
                    // before the 4-byte CRC.
                    let mid = 4 + (frame.len() - 8) / 2;
                    frame[mid] ^= 0x20;
                }
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
            Some(FaultAction::TruncateSend { keep }) => {
                let cut = keep.min(frame.len());
                self.inner.write_all(&frame[..cut])?;
                let _ = self.inner.flush();
                self.inner.shutdown_both();
                Ok(())
            }
            Some(FaultAction::DelaySendMs(ms)) => {
                // gcod-check: allow(thread-sleep) — the chaos clock: a scripted transport delay must really stall the wire to exercise the router's deadline path.
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
            Some(FaultAction::CloseAfterSend) => {
                self.inner.write_all(&frame)?;
                let _ = self.inner.flush();
                self.inner.shutdown_both();
                Ok(())
            }
            _ => {
                self.inner.write_all(&frame)?;
                self.inner.flush()
            }
        }
    }
}

impl Read for ChaosConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.faults.is_empty() && self.rpos >= self.rbuf.len() {
            return self.inner.read(buf);
        }
        if self.rpos >= self.rbuf.len() && !self.fill_read_buffer()? {
            return Ok(0);
        }
        let available = &self.rbuf[self.rpos..];
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.rpos += n;
        Ok(n)
    }
}

impl Write for ChaosConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.faults.is_empty() && self.wbuf.is_empty() {
            return self.inner.write(buf);
        }
        self.wbuf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.wbuf.is_empty() {
            return self.inner.flush();
        }
        self.flush_frame()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        for seed in [0u64, 1, 7, 42, 1 << 40] {
            let a = FaultPlan::seeded(seed, 4, 8);
            let b = FaultPlan::seeded(seed, 4, 8);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert_eq!(a.entries.len(), 8);
            for e in &a.entries {
                assert!(e.shard < 4);
                assert!((1..=6).contains(&e.nth));
                assert_ne!(e.action, FaultAction::KillWorker);
            }
        }
        assert_ne!(FaultPlan::seeded(1, 4, 8), FaultPlan::seeded(2, 4, 8));
    }

    #[test]
    fn plan_splits_transport_and_kill_entries() {
        let plan = FaultPlan::new()
            .with(0, 2, FaultAction::CorruptSend)
            .with(1, 3, FaultAction::KillWorker)
            .with(0, 5, FaultAction::DropRecv);
        assert_eq!(plan.transport_entries(0).len(), 2);
        assert!(plan.transport_entries(1).is_empty());
        assert_eq!(plan.kill_entries(), vec![(1, 3)]);
    }

    #[test]
    fn direction_classification_is_total() {
        let all = [
            FaultAction::DropSend,
            FaultAction::DropRecv,
            FaultAction::CorruptSend,
            FaultAction::CorruptRecv,
            FaultAction::TruncateSend { keep: 3 },
            FaultAction::DelaySendMs(1),
            FaultAction::CloseAfterSend,
        ];
        for action in all {
            assert!(
                action.is_send() ^ action.is_recv(),
                "{action:?} must belong to exactly one direction"
            );
        }
        assert!(!FaultAction::KillWorker.is_send());
        assert!(!FaultAction::KillWorker.is_recv());
    }
}
