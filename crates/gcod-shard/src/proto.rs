//! Shard control messages and the self-contained shard description.
//!
//! The router drives a synchronous request/reply protocol; every message
//! is one [frame](crate::frame). Per inference the exchange is:
//!
//! ```text
//! router                                   worker (one per shard)
//!   |  <- Hello{shard}                        (on connect)
//!   |  Load(ShardSpec) ->                     (once)
//!   |  <- Loaded{owned, halo}
//!   |  RunLayer{layer: 0} ->                  (resets h from features)
//!   |  <- LayerDone{exports}                  (boundary rows other shards need)
//!   |  Advance{halo} ->                       (halo rows gathered from peers)
//!   |  <- Advanced
//!   |  ... RunLayer / Advance per layer ...
//!   |  Gather{rows} ->                        (after the final layer)
//!   |  <- Rows(tensor)
//!   |  Shutdown ->
//!   |  <- Bye
//! ```

use gcod_graph::CsrMatrix;
use gcod_nn::layers::DenseLayer;
use gcod_nn::Tensor;

use crate::wire::{Wire, WireError, WireReader, WireResult};

/// Everything one worker needs to serve its shard, shipped once at load
/// time. All indices are *local* (positions in the shard's node ordering)
/// except where noted; the router keeps the global↔local maps.
///
/// A shard's local node ordering is `sorted(owned ∪ halo)` by global id —
/// a monotone remap, so sliced propagation rows keep their columns sorted
/// and f32 accumulation order matches the single-process path bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// This shard's id in `0..num_shards`.
    pub shard_id: u32,
    /// Total shard count in the plan.
    pub num_shards: u32,
    /// Dense layers of the model, in forward order (weights are
    /// replicated on every shard; only node state is partitioned).
    pub layers: Vec<DenseLayer>,
    /// Whether the model applies residual connections (layer index > 0,
    /// matching dimensions), mirroring `GnnModel::forward`.
    pub residual: bool,
    /// Propagation rows of the *owned* nodes over local columns:
    /// `|owned| x (|owned| + |halo|)`, sliced (not renormalised) from the
    /// full-graph propagation matrix.
    pub prop: CsrMatrix,
    /// Input features for every local node: `(|owned| + |halo|) x f`.
    pub features: Tensor,
    /// Positions of owned nodes within the local ordering, ascending.
    pub owned_pos: Vec<u32>,
    /// Positions of halo nodes within the local ordering, in the same
    /// order the router ships halo rows in [`ShardRequest::Advance`].
    pub halo_pos: Vec<u32>,
    /// Rows of the owned output (local owned index) to return in
    /// [`ShardReply::LayerDone`] after each non-final layer — exactly the
    /// boundary rows some other shard needs as halo input.
    pub export_rows: Vec<u32>,
}

impl ShardSpec {
    /// Number of nodes this shard owns.
    pub(crate) fn owned_count(&self) -> usize {
        self.owned_pos.len()
    }

    /// Number of halo (replicated boundary) nodes this shard reads.
    pub(crate) fn halo_count(&self) -> usize {
        self.halo_pos.len()
    }

    /// Total local nodes (owned + halo).
    pub(crate) fn local_count(&self) -> usize {
        self.owned_pos.len() + self.halo_pos.len()
    }
}

impl Wire for ShardSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard_id.encode(out);
        self.num_shards.encode(out);
        self.layers.encode(out);
        self.residual.encode(out);
        self.prop.encode(out);
        self.features.encode(out);
        self.owned_pos.encode(out);
        self.halo_pos.encode(out);
        self.export_rows.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(ShardSpec {
            shard_id: u32::decode(r)?,
            num_shards: u32::decode(r)?,
            layers: Vec::decode(r)?,
            residual: bool::decode(r)?,
            prop: CsrMatrix::decode(r)?,
            features: Tensor::decode(r)?,
            owned_pos: Vec::decode(r)?,
            halo_pos: Vec::decode(r)?,
            export_rows: Vec::decode(r)?,
        })
    }
}

/// Router → worker control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// Liveness probe; the worker answers [`ShardReply::Pong`].
    Ping,
    /// Ship the shard description; the worker answers
    /// [`ShardReply::Loaded`] (boxed: a spec embeds whole tensors).
    Load(Box<ShardSpec>),
    /// Run one layer of the partial forward over owned rows. `layer == 0`
    /// implicitly resets local activations from the stored features.
    RunLayer {
        /// Layer index in `0..layers.len()`.
        layer: u32,
    },
    /// Deliver halo activations for the next layer: one row per entry of
    /// `halo_pos`, in that order.
    Advance {
        /// `|halo| x d` activations gathered from owning shards.
        halo: Tensor,
    },
    /// Fetch owned output rows after the final layer.
    Gather {
        /// Local owned indices (`0..owned_count`) to return, in order.
        rows: Vec<u32>,
    },
    /// Orderly shutdown; the worker answers [`ShardReply::Bye`] and
    /// closes the connection.
    Shutdown,
}

impl Wire for ShardRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardRequest::Ping => 0u8.encode(out),
            ShardRequest::Load(spec) => {
                1u8.encode(out);
                spec.encode(out);
            }
            ShardRequest::RunLayer { layer } => {
                2u8.encode(out);
                layer.encode(out);
            }
            ShardRequest::Advance { halo } => {
                3u8.encode(out);
                halo.encode(out);
            }
            ShardRequest::Gather { rows } => {
                4u8.encode(out);
                rows.encode(out);
            }
            ShardRequest::Shutdown => 5u8.encode(out),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::decode(r)? {
            0 => Ok(ShardRequest::Ping),
            1 => Ok(ShardRequest::Load(Box::new(ShardSpec::decode(r)?))),
            2 => Ok(ShardRequest::RunLayer {
                layer: u32::decode(r)?,
            }),
            3 => Ok(ShardRequest::Advance {
                halo: Tensor::decode(r)?,
            }),
            4 => Ok(ShardRequest::Gather {
                rows: Vec::decode(r)?,
            }),
            5 => Ok(ShardRequest::Shutdown),
            tag => Err(WireError::UnknownTag {
                context: "ShardRequest",
                tag,
            }),
        }
    }
}

/// Worker → router replies.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardReply {
    /// First message after connecting: which shard this worker serves.
    Hello {
        /// Shard id the worker was launched for.
        shard: u32,
    },
    /// Answer to [`ShardRequest::Ping`].
    Pong,
    /// Shard loaded and validated.
    Loaded {
        /// Owned node count, echoed for cross-checking.
        owned: u32,
        /// Halo node count, echoed for cross-checking.
        halo: u32,
    },
    /// Layer finished; carries the export rows
    /// (`|export_rows| x d_out`) other shards need as halo input.
    LayerDone {
        /// Boundary activations in `export_rows` order.
        exports: Tensor,
    },
    /// Halo activations installed; ready for the next layer.
    Advanced,
    /// Answer to [`ShardRequest::Gather`]: requested owned output rows.
    Rows(Tensor),
    /// Orderly shutdown acknowledgement.
    Bye,
    /// The worker hit an error serving the previous request. The
    /// connection stays usable; state may need a fresh `RunLayer{0}`.
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

impl Wire for ShardReply {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardReply::Hello { shard } => {
                0u8.encode(out);
                shard.encode(out);
            }
            ShardReply::Pong => 1u8.encode(out),
            ShardReply::Loaded { owned, halo } => {
                2u8.encode(out);
                owned.encode(out);
                halo.encode(out);
            }
            ShardReply::LayerDone { exports } => {
                3u8.encode(out);
                exports.encode(out);
            }
            ShardReply::Advanced => 4u8.encode(out),
            ShardReply::Rows(rows) => {
                5u8.encode(out);
                rows.encode(out);
            }
            ShardReply::Bye => 6u8.encode(out),
            ShardReply::Err { message } => {
                7u8.encode(out);
                message.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::decode(r)? {
            0 => Ok(ShardReply::Hello {
                shard: u32::decode(r)?,
            }),
            1 => Ok(ShardReply::Pong),
            2 => Ok(ShardReply::Loaded {
                owned: u32::decode(r)?,
                halo: u32::decode(r)?,
            }),
            3 => Ok(ShardReply::LayerDone {
                exports: Tensor::decode(r)?,
            }),
            4 => Ok(ShardReply::Advanced),
            5 => Ok(ShardReply::Rows(Tensor::decode(r)?)),
            6 => Ok(ShardReply::Bye),
            7 => Ok(ShardReply::Err {
                message: String::decode(r)?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "ShardReply",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcod_nn::layers::Activation;

    fn tiny_spec() -> ShardSpec {
        ShardSpec {
            shard_id: 1,
            num_shards: 2,
            layers: vec![DenseLayer {
                weight: Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).expect("weight"),
                bias: Tensor::from_vec(1, 2, vec![0.1, -0.1]).expect("bias"),
                activation: Activation::Relu,
            }],
            residual: true,
            prop: CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![0.5, 0.5, 1.0])
                .expect("prop"),
            features: Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).expect("feat"),
            owned_pos: vec![0, 2],
            halo_pos: vec![1],
            export_rows: vec![0],
        }
    }

    #[test]
    fn spec_roundtrips_and_counts() {
        let spec = tiny_spec();
        assert_eq!(spec.owned_count(), 2);
        assert_eq!(spec.halo_count(), 1);
        assert_eq!(spec.local_count(), 3);
        let back = ShardSpec::from_wire(&spec.to_wire()).expect("roundtrip");
        assert_eq!(back, spec);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let variants = vec![
            ShardRequest::Ping,
            ShardRequest::Load(Box::new(tiny_spec())),
            ShardRequest::RunLayer { layer: 3 },
            ShardRequest::Advance {
                halo: Tensor::from_vec(1, 2, vec![7.0, 8.0]).expect("halo"),
            },
            ShardRequest::Gather { rows: vec![0, 1] },
            ShardRequest::Shutdown,
        ];
        for msg in variants {
            let back = ShardRequest::from_wire(&msg.to_wire()).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_reply_variant_roundtrips() {
        let variants = vec![
            ShardReply::Hello { shard: 4 },
            ShardReply::Pong,
            ShardReply::Loaded { owned: 10, halo: 3 },
            ShardReply::LayerDone {
                exports: Tensor::from_vec(1, 1, vec![2.5]).expect("exports"),
            },
            ShardReply::Advanced,
            ShardReply::Rows(Tensor::zeros(2, 2)),
            ShardReply::Bye,
            ShardReply::Err {
                message: "shard 1: no shard loaded".to_string(),
            },
        ];
        for msg in variants {
            let back = ShardReply::from_wire(&msg.to_wire()).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let err = ShardRequest::from_wire(&[99]).expect_err("must reject");
        assert_eq!(
            err,
            WireError::UnknownTag {
                context: "ShardRequest",
                tag: 99
            }
        );
        let err = ShardReply::from_wire(&[200]).expect_err("must reject");
        assert_eq!(
            err,
            WireError::UnknownTag {
                context: "ShardReply",
                tag: 200
            }
        );
    }
}
