//! The shard worker: loads one [`ShardSpec`] and serves partial forward
//! passes over a socket.
//!
//! The protocol state machine lives in `ShardWorker::handle`, a pure
//! function from request to reply, so the whole worker can be unit-tested
//! without sockets; [`run`] wires it to a [`ShardConn`] and
//! [`worker_main`] is the CLI entry point the `shard_worker` binary (and
//! self-spawning examples) delegate to.

use gcod_nn::layers::shard_layer_forward;
use gcod_nn::Tensor;

use crate::error::{Result, ShardError};
use crate::frame::{read_frame, write_frame};
use crate::proto::{ShardReply, ShardRequest, ShardSpec};
use crate::transport::{ShardAddr, ShardConn};
use crate::wire::WireError;

/// Loaded shard state between protocol steps.
#[derive(Debug)]
struct LoadedShard {
    spec: ShardSpec,
    /// Activations of every local node feeding the next layer.
    h_local: Tensor,
    /// Owned-row output of the last `RunLayer`, if any.
    owned_out: Option<Tensor>,
}

/// One shard's protocol state machine.
///
/// Errors never tear the worker down: a bad request yields a
/// [`ShardReply::Err`] and the connection stays usable.
#[derive(Debug, Default)]
pub(crate) struct ShardWorker {
    state: Option<LoadedShard>,
}

impl ShardWorker {
    /// A worker with no shard loaded yet.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether a shard has been loaded.
    #[cfg(test)]
    fn is_loaded(&self) -> bool {
        self.state.is_some()
    }

    /// Process one request, producing the reply to send back.
    pub(crate) fn handle(&mut self, request: ShardRequest) -> ShardReply {
        match self.try_handle(request) {
            Ok(reply) => reply,
            Err(message) => ShardReply::Err { message },
        }
    }

    fn try_handle(&mut self, request: ShardRequest) -> std::result::Result<ShardReply, String> {
        match request {
            ShardRequest::Ping => Ok(ShardReply::Pong),
            ShardRequest::Load(spec) => self.load(*spec),
            ShardRequest::RunLayer { layer } => self.run_layer(layer as usize),
            ShardRequest::Advance { halo } => self.advance(halo),
            ShardRequest::Gather { rows } => self.gather(&rows),
            ShardRequest::Shutdown => Ok(ShardReply::Bye),
        }
    }

    fn load(&mut self, spec: ShardSpec) -> std::result::Result<ShardReply, String> {
        let locals = spec.local_count();
        if spec.features.rows() != locals {
            return Err(format!(
                "spec features have {} rows but owned+halo = {locals}",
                spec.features.rows()
            ));
        }
        if spec.prop.rows() != spec.owned_count() || spec.prop.cols() != locals {
            return Err(format!(
                "spec propagation is {}x{} but owned = {} and locals = {locals}",
                spec.prop.rows(),
                spec.prop.cols(),
                spec.owned_count()
            ));
        }
        let mut position_used = vec![false; locals];
        for &pos in spec.owned_pos.iter().chain(&spec.halo_pos) {
            let pos = pos as usize;
            if pos >= locals || position_used[pos] {
                return Err(format!("local position {pos} out of range or duplicated"));
            }
            position_used[pos] = true;
        }
        if spec
            .export_rows
            .iter()
            .any(|&r| r as usize >= spec.owned_count())
        {
            return Err("export row index out of owned range".to_string());
        }
        if spec.layers.is_empty() {
            return Err("spec carries no layers".to_string());
        }
        let reply = ShardReply::Loaded {
            owned: spec.owned_count() as u32,
            halo: spec.halo_count() as u32,
        };
        self.state = Some(LoadedShard {
            h_local: spec.features.clone(),
            spec,
            owned_out: None,
        });
        Ok(reply)
    }

    fn run_layer(&mut self, layer: usize) -> std::result::Result<ShardReply, String> {
        let state = self.state.as_mut().ok_or("no shard loaded")?;
        if layer >= state.spec.layers.len() {
            return Err(format!(
                "layer {layer} out of range ({} layers)",
                state.spec.layers.len()
            ));
        }
        if layer == 0 {
            // A new inference starts: reset activations from features.
            state.h_local = state.spec.features.clone();
        }
        let owned_out = shard_layer_forward(
            &state.spec.layers[layer],
            &state.spec.prop,
            &state.h_local,
            &state.spec.owned_pos,
            state.spec.residual,
            layer,
        )
        .map_err(|e| format!("layer {layer} forward failed: {e}"))?;
        let export_rows: Vec<usize> = state.spec.export_rows.iter().map(|&r| r as usize).collect();
        let exports = owned_out
            .gather_rows(&export_rows)
            .map_err(|e| format!("gathering export rows failed: {e}"))?;
        state.owned_out = Some(owned_out);
        Ok(ShardReply::LayerDone { exports })
    }

    fn advance(&mut self, halo: Tensor) -> std::result::Result<ShardReply, String> {
        let state = self.state.as_mut().ok_or("no shard loaded")?;
        let owned_out = state
            .owned_out
            .as_ref()
            .ok_or("Advance before any RunLayer")?;
        if halo.rows() != state.spec.halo_count() {
            return Err(format!(
                "halo tensor has {} rows but shard has {} halo nodes",
                halo.rows(),
                state.spec.halo_count()
            ));
        }
        if state.spec.halo_count() > 0 && halo.cols() != owned_out.cols() {
            return Err(format!(
                "halo width {} does not match layer output width {}",
                halo.cols(),
                owned_out.cols()
            ));
        }
        let d = owned_out.cols();
        let mut next = Tensor::zeros(state.spec.local_count(), d);
        for (rank, &pos) in state.spec.owned_pos.iter().enumerate() {
            next.row_mut(pos as usize)
                .copy_from_slice(owned_out.row(rank));
        }
        for (rank, &pos) in state.spec.halo_pos.iter().enumerate() {
            next.row_mut(pos as usize).copy_from_slice(halo.row(rank));
        }
        state.h_local = next;
        Ok(ShardReply::Advanced)
    }

    fn gather(&mut self, rows: &[u32]) -> std::result::Result<ShardReply, String> {
        let state = self.state.as_ref().ok_or("no shard loaded")?;
        let owned_out = state
            .owned_out
            .as_ref()
            .ok_or("Gather before any RunLayer")?;
        if let Some(&bad) = rows.iter().find(|&&r| r as usize >= owned_out.rows()) {
            return Err(format!(
                "gather row {bad} out of range ({} owned rows)",
                owned_out.rows()
            ));
        }
        let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        let gathered = owned_out
            .gather_rows(&rows)
            .map_err(|e| format!("gathering result rows failed: {e}"))?;
        Ok(ShardReply::Rows(gathered))
    }
}

/// Serve one connection until `Shutdown` or the peer hangs up.
///
/// Sends `Hello{shard_id}` first, then answers one reply per request.
///
/// Frame-level decode failures (a corrupt body caught by the CRC, an
/// unknown tag, trailing bytes, ...) do **not** kill the worker: the
/// length prefix already consumed the damaged frame, so the byte stream is
/// still in sync and the worker answers [`ShardReply::Err`] and keeps
/// serving — the router retries the idempotent RPC. Only a broken
/// transport (`Io`) is fatal; a clean `Closed` is a normal exit.
pub fn run(mut conn: ShardConn, shard_id: u32) -> Result<()> {
    write_frame(&mut conn, &ShardReply::Hello { shard: shard_id })?;
    let mut worker = ShardWorker::new();
    loop {
        let request: ShardRequest = match read_frame(&mut conn) {
            Ok((req, _)) => req,
            Err(WireError::Closed) => return Ok(()),
            // A timed-out or broken read may have left a partial frame on
            // the stream — no way back into sync, so exit.
            Err(e @ (WireError::Io { .. } | WireError::TimedOut { .. })) => {
                return Err(ShardError::Wire(e))
            }
            Err(recoverable) => {
                // The frame was fully consumed before decoding failed, so
                // the stream stays framed; report and continue serving.
                write_frame(
                    &mut conn,
                    &ShardReply::Err {
                        message: format!("bad frame: {recoverable}"),
                    },
                )?;
                continue;
            }
        };
        let shutdown = request == ShardRequest::Shutdown;
        let reply = worker.handle(request);
        write_frame(&mut conn, &reply)?;
        if shutdown {
            return Ok(());
        }
    }
}

/// CLI entry point for worker processes: parse `--addr <addr> --shard
/// <id>`, dial the router, serve until shutdown. Returns the process exit
/// code; errors go to stderr.
pub fn worker_main<I: IntoIterator<Item = String>>(args: I) -> i32 {
    let mut addr: Option<String> = None;
    let mut shard: Option<u32> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = iter.next(),
            "--shard" => shard = iter.next().and_then(|s| s.parse().ok()),
            other => {
                eprintln!("shard worker: unknown argument '{other}'");
                return 2;
            }
        }
    }
    let (Some(addr), Some(shard)) = (addr, shard) else {
        eprintln!("usage: shard_worker --addr <uds:path|tcp:ip:port> --shard <id>");
        return 2;
    };
    let parsed = match ShardAddr::parse(&addr) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shard worker {shard}: {e}");
            return 2;
        }
    };
    let conn = match ShardConn::dial(&parsed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("shard worker {shard}: {e}");
            return 1;
        }
    };
    match run(conn, shard) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("shard worker {shard}: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_graph::CsrMatrix;
    use gcod_nn::layers::{Activation, DenseLayer};

    /// A 3-node path graph sharded as {0,1} + halo {2}: prop rows of the
    /// owned nodes over local columns, identity-ish weights so expected
    /// outputs are easy to compute by hand.
    fn spec() -> ShardSpec {
        ShardSpec {
            shard_id: 0,
            num_shards: 2,
            layers: vec![
                DenseLayer {
                    weight: Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).expect("w0"),
                    bias: Tensor::from_vec(1, 2, vec![0.0, 0.0]).expect("b0"),
                    activation: Activation::Linear,
                },
                DenseLayer {
                    weight: Tensor::from_vec(2, 2, vec![2.0, 0.0, 0.0, 2.0]).expect("w1"),
                    bias: Tensor::from_vec(1, 2, vec![0.0, 0.0]).expect("b1"),
                    activation: Activation::Linear,
                },
            ],
            residual: false,
            prop: CsrMatrix::from_parts(
                2,
                3,
                vec![0, 2, 5],
                vec![0, 1, 0, 1, 2],
                vec![0.5, 0.5, 0.25, 0.5, 0.25],
            )
            .expect("prop"),
            features: Tensor::from_vec(3, 2, vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0]).expect("f"),
            owned_pos: vec![0, 1],
            halo_pos: vec![2],
            export_rows: vec![1],
        }
    }

    #[test]
    fn full_protocol_walkthrough() {
        let mut w = ShardWorker::new();
        assert_eq!(w.handle(ShardRequest::Ping), ShardReply::Pong);
        assert!(!w.is_loaded());

        let reply = w.handle(ShardRequest::Load(Box::new(spec())));
        assert_eq!(reply, ShardReply::Loaded { owned: 2, halo: 1 });

        // Layer 0: row0 = 0.5*f0 + 0.5*f1 = [4,6]; row1 = .25*f0+.5*f1+.25*f2 = [6, 8].
        let reply = w.handle(ShardRequest::RunLayer { layer: 0 });
        let exports = match reply {
            ShardReply::LayerDone { exports } => exports,
            other => panic!("expected LayerDone, got {other:?}"),
        };
        assert_eq!(exports.rows(), 1);
        assert_eq!(exports.row(0), &[6.0, 8.0]);

        // Ship a made-up halo row for node 2, then run layer 1.
        let halo = Tensor::from_vec(1, 2, vec![10.0, 20.0]).expect("halo");
        assert_eq!(
            w.handle(ShardRequest::Advance { halo }),
            ShardReply::Advanced
        );
        let reply = w.handle(ShardRequest::RunLayer { layer: 1 });
        let exports = match reply {
            ShardReply::LayerDone { exports } => exports,
            other => panic!("expected LayerDone, got {other:?}"),
        };
        // Layer 1 row1 = (0.25*[4,6] + 0.5*[6,8] + 0.25*[10,20]) * 2.
        assert_eq!(exports.row(0), &[13.0, 21.0]);

        let reply = w.handle(ShardRequest::Gather { rows: vec![0, 1] });
        let rows = match reply {
            ShardReply::Rows(rows) => rows,
            other => panic!("expected Rows, got {other:?}"),
        };
        assert_eq!(rows.rows(), 2);
        assert_eq!(w.handle(ShardRequest::Shutdown), ShardReply::Bye);
    }

    #[test]
    fn rerunning_layer_zero_resets_state() {
        let mut w = ShardWorker::new();
        w.handle(ShardRequest::Load(Box::new(spec())));
        let first = w.handle(ShardRequest::RunLayer { layer: 0 });
        // Advance with arbitrary halo, then restart from layer 0: the
        // result must match the first run, not leak the advanced state.
        let halo = Tensor::from_vec(1, 2, vec![-5.0, -5.0]).expect("halo");
        w.handle(ShardRequest::Advance { halo });
        let again = w.handle(ShardRequest::RunLayer { layer: 0 });
        assert_eq!(first, again);
    }

    #[test]
    fn protocol_misuse_yields_err_replies_not_panics() {
        let mut w = ShardWorker::new();
        for req in [
            ShardRequest::RunLayer { layer: 0 },
            ShardRequest::Advance {
                halo: Tensor::zeros(1, 2),
            },
            ShardRequest::Gather { rows: vec![0] },
        ] {
            assert!(
                matches!(w.handle(req), ShardReply::Err { .. }),
                "unloaded worker must reject"
            );
        }
        w.handle(ShardRequest::Load(Box::new(spec())));
        assert!(matches!(
            w.handle(ShardRequest::RunLayer { layer: 9 }),
            ShardReply::Err { .. }
        ));
        assert!(matches!(
            w.handle(ShardRequest::Gather { rows: vec![0] }),
            ShardReply::Err { .. }
        ));
        w.handle(ShardRequest::RunLayer { layer: 0 });
        assert!(matches!(
            w.handle(ShardRequest::Advance {
                halo: Tensor::zeros(5, 2),
            }),
            ShardReply::Err { .. }
        ));
        assert!(matches!(
            w.handle(ShardRequest::Gather { rows: vec![99] }),
            ShardReply::Err { .. }
        ));
    }

    #[test]
    fn malformed_specs_rejected_at_load() {
        let mut w = ShardWorker::new();
        let mut bad = spec();
        bad.owned_pos = vec![0, 0]; // duplicate position
        assert!(matches!(
            w.handle(ShardRequest::Load(Box::new(bad))),
            ShardReply::Err { .. }
        ));
        let mut bad = spec();
        bad.export_rows = vec![7];
        assert!(matches!(
            w.handle(ShardRequest::Load(Box::new(bad))),
            ShardReply::Err { .. }
        ));
        let mut bad = spec();
        bad.layers.clear();
        assert!(matches!(
            w.handle(ShardRequest::Load(Box::new(bad))),
            ShardReply::Err { .. }
        ));
        assert!(!w.is_loaded());
    }
}
