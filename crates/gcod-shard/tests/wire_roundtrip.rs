//! Property tests for the shard wire codec: arbitrary protocol messages
//! survive encode → frame → decode bit-for-bit, and corrupt or truncated
//! frames are rejected with typed errors — never a panic.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;

use gcod_nn::layers::{Activation, DenseLayer};
use gcod_nn::Tensor;
use gcod_shard::{read_frame, write_frame, ShardReply, ShardRequest, ShardSpec, Wire, WireError};

/// Arbitrary f32 values drawn through the shim's f64 range (the vendored
/// proptest has no f32 strategy), plus exact dyadic fractions so the
/// round-trip sees "clean" values too.
fn arb_f32() -> impl Strategy<Value = f32> {
    (-1.0e6f64..1.0e6f64).prop_map(|v| v as f32)
}

fn arb_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1usize..max_dim, 1usize..max_dim).prop_flat_map(|(rows, cols)| {
        vec(arb_f32(), rows * cols..rows * cols + 1)
            .prop_map(move |data| Tensor::from_vec(rows, cols, data).expect("valid tensor"))
    })
}

fn arb_string() -> impl Strategy<Value = String> {
    (0u64..u64::MAX).prop_map(|v| format!("msg-{v:x}-\u{2713}"))
}

fn arb_layer() -> impl Strategy<Value = DenseLayer> {
    (1usize..4, 1usize..4, 0u32..2).prop_flat_map(|(din, dout, act)| {
        (
            vec(arb_f32(), din * dout..din * dout + 1),
            vec(arb_f32(), dout..dout + 1),
        )
            .prop_map(move |(w, b)| DenseLayer {
                weight: Tensor::from_vec(din, dout, w).expect("weight"),
                bias: Tensor::from_vec(1, dout, b).expect("bias"),
                activation: if act == 0 {
                    Activation::Relu
                } else {
                    Activation::Linear
                },
            })
    })
}

/// A structurally coherent random spec: `owned + halo` local nodes in a
/// sorted ordering, a diagonal-ish propagation slice, per-local features.
fn arb_spec() -> impl Strategy<Value = ShardSpec> {
    (1usize..5, 0usize..4, 1usize..4).prop_flat_map(|(owned, halo, fdim)| {
        let locals = owned + halo;
        (
            vec(arb_f32(), locals * fdim..locals * fdim + 1),
            arb_layer(),
            0u32..u32::MAX,
        )
            .prop_map(move |(feat, layer, salt)| {
                // Alternate owned/halo positions deterministically from the
                // salt so both interleavings are exercised.
                let mut owned_pos = Vec::new();
                let mut halo_pos = Vec::new();
                for pos in 0..locals as u32 {
                    let want_owned = (salt >> (pos % 31)) & 1 == 0;
                    if (want_owned && owned_pos.len() < owned) || halo_pos.len() >= halo {
                        owned_pos.push(pos);
                    } else {
                        halo_pos.push(pos);
                    }
                }
                let indptr: Vec<u64> = (0..=owned as u64).collect();
                let indices: Vec<u32> = owned_pos.clone();
                let values: Vec<f32> = (0..owned).map(|i| 0.5 + i as f32).collect();
                ShardSpec {
                    shard_id: salt % 8,
                    num_shards: 8,
                    layers: vec![layer],
                    residual: salt % 2 == 0,
                    prop: gcod_graph::CsrMatrix::from_parts(owned, locals, indptr, indices, values)
                        .expect("valid prop"),
                    features: Tensor::from_vec(locals, fdim, feat).expect("features"),
                    owned_pos,
                    halo_pos,
                    export_rows: (0..owned as u32).collect(),
                }
            })
    })
}

fn arb_request() -> impl Strategy<Value = ShardRequest> {
    (0usize..6).prop_flat_map(|variant| {
        // One strategy per variant, all unified through prop_map into the
        // enum; cheap variants reuse Just-like mapping of dummy draws.
        ((arb_spec(), arb_tensor(4)), (vec(0u32..64, 0..5), 0u32..8)).prop_map(
            move |((spec, tensor), (rows, layer))| match variant {
                0 => ShardRequest::Ping,
                1 => ShardRequest::Load(Box::new(spec)),
                2 => ShardRequest::RunLayer { layer },
                3 => ShardRequest::Advance { halo: tensor },
                4 => ShardRequest::Gather { rows },
                _ => ShardRequest::Shutdown,
            },
        )
    })
}

fn arb_reply() -> impl Strategy<Value = ShardReply> {
    (0usize..8).prop_flat_map(|variant| {
        ((arb_tensor(4), arb_string()), (0u32..1024, 0u32..1024)).prop_map(
            move |((tensor, message), (a, b))| match variant {
                0 => ShardReply::Hello { shard: a },
                1 => ShardReply::Pong,
                2 => ShardReply::Loaded { owned: a, halo: b },
                3 => ShardReply::LayerDone { exports: tensor },
                4 => ShardReply::Advanced,
                5 => ShardReply::Rows(tensor),
                6 => ShardReply::Bye,
                _ => ShardReply::Err { message },
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests survive encode → frame → decode bit-identically.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &req).expect("write frame");
        prop_assert_eq!(written, buf.len());
        let (back, consumed): (ShardRequest, usize) =
            read_frame(&mut Cursor::new(&buf)).expect("read frame");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(back, req);
    }

    /// Replies survive encode → frame → decode bit-identically.
    #[test]
    fn replies_roundtrip(reply in arb_reply()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &reply).expect("write frame");
        let (back, _): (ShardReply, usize) =
            read_frame(&mut Cursor::new(&buf)).expect("read frame");
        prop_assert_eq!(back, reply);
    }

    /// Flipping any single bit inside the frame *body* (version byte or
    /// payload, both covered by the CRC) is always rejected as a checksum
    /// mismatch — CRC-32 detects all single-bit errors.
    #[test]
    fn corrupt_body_bits_always_rejected(reply in arb_reply(), pick in 0usize..1_000_000, bit in 0usize..8) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &reply).expect("write frame");
        let body_len = buf.len() - 8; // minus length prefix and checksum
        let target = 4 + pick % body_len;
        buf[target] ^= 1 << bit;
        let result: Result<(ShardReply, usize), WireError> =
            read_frame(&mut Cursor::new(&buf));
        prop_assert!(
            matches!(result, Err(WireError::BadChecksum { .. })),
            "expected BadChecksum, got {:?}", result
        );
    }

    /// Truncating the stream anywhere short of a full frame yields a typed
    /// error (Closed at offset 0, otherwise an I/O error), never a panic
    /// and never a bogus message.
    #[test]
    fn truncated_frames_always_rejected(req in arb_request(), pick in 0usize..1_000_000) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).expect("write frame");
        let cut = pick % buf.len();
        let result: Result<(ShardRequest, usize), WireError> =
            read_frame(&mut Cursor::new(&buf[..cut]));
        match result {
            Err(WireError::Closed) => prop_assert!(cut < 4, "Closed only before a full header"),
            Err(WireError::Io { .. }) => prop_assert!(cut >= 4),
            other => prop_assert!(false, "expected typed rejection, got {:?}", other),
        }
    }

    /// Overwriting one byte of a real payload (past the frame, so the CRC
    /// cannot reject it first) either decodes or yields a typed error,
    /// never a panic. A mutant that decodes re-encodes to exactly its own
    /// bytes: every value has one encoding.
    #[test]
    fn corrupted_payloads_decode_or_reject(
        req in arb_request(),
        reply in arb_reply(),
        pick in 0usize..1_000_000,
        byte in 0u64..256,
    ) {
        let mut bytes = req.to_wire();
        let at = pick % bytes.len();
        bytes[at] = byte as u8;
        if let Ok(back) = ShardRequest::from_wire(&bytes) {
            prop_assert_eq!(back.to_wire(), bytes);
        }
        let mut bytes = reply.to_wire();
        let at = pick % bytes.len();
        bytes[at] = byte as u8;
        if let Ok(back) = ShardReply::from_wire(&bytes) {
            prop_assert_eq!(back.to_wire(), bytes);
        }
    }

    /// Feeding arbitrary garbage to the raw decoder returns without
    /// panicking: either a (valid) message or a typed error.
    #[test]
    fn garbage_bytes_never_panic(bytes in vec(0u64..256, 0..64)) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = ShardRequest::from_wire(&raw);
        let _ = ShardReply::from_wire(&raw);
        let _ = read_frame::<_, ShardReply>(&mut Cursor::new(&raw));
    }
}
