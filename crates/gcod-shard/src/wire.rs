//! Hand-rolled binary serialisation for everything that crosses a shard
//! socket.
//!
//! The repo's vendored `serde` shim derives metadata but has no real
//! serialiser, and the whole point of this crate is a **zero-dependency**
//! wire protocol, so encoding is written out by hand: little-endian fixed
//! width integers, `u32` length prefixes for sequences, and one tag byte
//! per enum variant. Decoding is fully defensive — every malformed input
//! maps to a typed [`WireError`], never a panic, because frames arrive
//! from another process.
//!
//! Layout conventions:
//!
//! | type        | encoding                                            |
//! |-------------|-----------------------------------------------------|
//! | `bool`      | one byte, `0` or `1`                                |
//! | `u8`..`u64` | little-endian, fixed width                          |
//! | `usize`     | as `u64` (decode fails if it overflows the target)  |
//! | `f32`/`f64` | IEEE-754 bits, little-endian                        |
//! | `String`    | `u32` byte length + UTF-8 bytes                     |
//! | `Vec<T>`    | `u32` element count + elements                      |
//! | enums       | `u8` variant tag + fields in declaration order      |

use std::fmt;

use gcod_graph::CsrMatrix;
use gcod_nn::layers::{Activation, DenseLayer};
use gcod_nn::Tensor;
use gcod_platform::energy::EnergyBreakdown;
use gcod_platform::memory::TrafficCounter;
use gcod_platform::report::PerfReport;

/// Errors produced while decoding (or framing) wire data.
///
/// Every variant is a *rejection*, not a crash: corrupt or truncated input
/// from a peer must surface as an `Err`, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a field could be fully read.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A frame carried an unknown protocol version byte.
    BadVersion {
        /// Version byte found on the wire.
        got: u8,
        /// Version this build speaks.
        expected: u8,
    },
    /// The frame checksum did not match the received payload.
    BadChecksum {
        /// Checksum recomputed over the received bytes.
        expected: u32,
        /// Checksum carried by the frame.
        got: u32,
    },
    /// An enum tag byte did not match any known variant.
    UnknownTag {
        /// Type being decoded.
        context: &'static str,
        /// Offending tag byte.
        tag: u8,
    },
    /// A frame header announced a length above `MAX_FRAME_LEN`.
    FrameTooLarge {
        /// Announced body length.
        len: u64,
        /// Maximum this build accepts.
        max: u64,
    },
    /// A frame decoded cleanly but left unconsumed payload bytes behind.
    TrailingBytes {
        /// Number of leftover bytes.
        remaining: usize,
    },
    /// The bytes were structurally readable but semantically invalid
    /// (bad UTF-8, inconsistent matrix dimensions, ...).
    Malformed {
        /// Human-readable description of the violation.
        context: String,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// A socket read/write deadline expired before the frame completed.
    ///
    /// Distinct from [`WireError::Io`] so supervisors can tell a wedged
    /// (but possibly alive) peer from a broken transport: after a timeout
    /// the stream may hold a partially transferred frame, so the safe
    /// recovery is a heartbeat probe and, failing that, a reconnect.
    TimedOut {
        /// What the caller was doing when the deadline expired.
        context: String,
    },
    /// An I/O error from the underlying socket.
    Io {
        /// Stringified `std::io::Error`.
        context: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => write!(
                f,
                "truncated wire data: needed {needed} more bytes, {available} available"
            ),
            WireError::BadVersion { got, expected } => {
                write!(f, "bad protocol version {got} (expected {expected})")
            }
            WireError::BadChecksum { expected, got } => write!(
                f,
                "frame checksum mismatch: computed {expected:#010x}, frame carried {got:#010x}"
            ),
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown tag {tag} while decoding {context}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoding frame payload")
            }
            WireError::Malformed { context } => write!(f, "malformed wire data: {context}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::TimedOut { context } => {
                write!(f, "socket deadline expired: {context}")
            }
            WireError::Io { context } => write!(f, "socket i/o error: {context}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for wire operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// A cursor over a received payload.
///
/// All decoding goes through this reader so bounds checks live in one
/// place; running off the end yields [`WireError::Truncated`].
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a payload slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes, or fail with `Truncated`.
    pub fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

/// Types that can be written to and read back from the wire.
///
/// `decode` must be total: any byte sequence either decodes or returns a
/// typed [`WireError`]. Implementations must round-trip
/// (`decode(encode(x)) == x`) — pinned by the proptest suite in
/// `tests/wire_roundtrip.rs`.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader, advancing it.
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self>;

    /// Convenience: encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode from a complete buffer, rejecting leftovers.
    fn from_wire(buf: &[u8]) -> WireResult<Self> {
        let mut r = WireReader::new(buf);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(value)
    }
}

macro_rules! wire_int {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
                Ok(<$ty>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let raw = u64::decode(r)?;
        usize::try_from(raw).map_err(|_| WireError::Malformed {
            context: format!("u64 value {raw} does not fit usize on this platform"),
        })
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag {
                context: "bool",
                tag,
            }),
        }
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(f32::from_bits(u32::decode(r)?))
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

/// Decode a `u32` length prefix, guarding against allocation bombs: the
/// claimed count must not exceed the bytes actually remaining (every
/// element encodes to at least one byte).
fn decode_len(r: &mut WireReader<'_>, context: &'static str) -> WireResult<usize> {
    let len = u32::decode(r)? as usize;
    if len > r.remaining() {
        return Err(WireError::Malformed {
            context: format!(
                "{context}: claimed length {len} exceeds {} remaining payload bytes",
                r.remaining()
            ),
        });
    }
    Ok(len)
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    debug_assert!(len <= u32::MAX as usize, "sequence too long for the wire");
    (len as u32).encode(out);
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = decode_len(r, "String")?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed {
            context: "String: invalid UTF-8".to_string(),
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let len = decode_len(r, "Vec")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Wire for Tensor {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.rows() as u32).encode(out);
        (self.cols() as u32).encode(out);
        for &v in self.data() {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let rows = u32::decode(r)? as usize;
        let cols = u32::decode(r)? as usize;
        let total = rows.checked_mul(cols).ok_or_else(|| WireError::Malformed {
            context: format!("Tensor: {rows}x{cols} element count overflows"),
        })?;
        // Cheap pre-check before allocating: every f32 needs 4 bytes.
        if total > r.remaining() / 4 {
            return Err(WireError::Truncated {
                needed: total * 4,
                available: r.remaining(),
            });
        }
        let mut data = Vec::with_capacity(total);
        for _ in 0..total {
            data.push(f32::decode(r)?);
        }
        Tensor::from_vec(rows, cols, data).map_err(|e| WireError::Malformed {
            context: format!("Tensor: {e}"),
        })
    }
}

impl Wire for CsrMatrix {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.rows() as u32).encode(out);
        (self.cols() as u32).encode(out);
        self.indptr().to_vec().encode(out);
        self.indices().to_vec().encode(out);
        self.values().to_vec().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let rows = u32::decode(r)? as usize;
        let cols = u32::decode(r)? as usize;
        let indptr = Vec::<u64>::decode(r)?;
        let indices = Vec::<u32>::decode(r)?;
        let values = Vec::<f32>::decode(r)?;
        // `from_parts` re-validates every CSR invariant (monotone indptr,
        // sorted duplicate-free columns, bounds), so a hostile payload
        // cannot smuggle in a structurally broken matrix.
        CsrMatrix::from_parts(rows, cols, indptr, indices, values).map_err(|e| {
            WireError::Malformed {
                context: format!("CsrMatrix: {e}"),
            }
        })
    }
}

impl Wire for Activation {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Activation::Relu => 0,
            Activation::Linear => 1,
        };
        tag.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::decode(r)? {
            0 => Ok(Activation::Relu),
            1 => Ok(Activation::Linear),
            tag => Err(WireError::UnknownTag {
                context: "Activation",
                tag,
            }),
        }
    }
}

impl Wire for DenseLayer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.weight.encode(out);
        self.bias.encode(out);
        self.activation.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        let weight = Tensor::decode(r)?;
        let bias = Tensor::decode(r)?;
        let activation = Activation::decode(r)?;
        Ok(DenseLayer {
            weight,
            bias,
            activation,
        })
    }
}

impl Wire for EnergyBreakdown {
    fn encode(&self, out: &mut Vec<u8>) {
        self.compute_combination.encode(out);
        self.on_chip_combination.encode(out);
        self.off_chip_combination.encode(out);
        self.compute_aggregation.encode(out);
        self.on_chip_aggregation.encode(out);
        self.off_chip_aggregation.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(EnergyBreakdown {
            compute_combination: f64::decode(r)?,
            on_chip_combination: f64::decode(r)?,
            off_chip_combination: f64::decode(r)?,
            compute_aggregation: f64::decode(r)?,
            on_chip_aggregation: f64::decode(r)?,
            off_chip_aggregation: f64::decode(r)?,
        })
    }
}

impl Wire for TrafficCounter {
    fn encode(&self, out: &mut Vec<u8>) {
        self.off_chip_read_combination.encode(out);
        self.off_chip_write_combination.encode(out);
        self.off_chip_read_aggregation.encode(out);
        self.off_chip_write_aggregation.encode(out);
        self.on_chip_combination.encode(out);
        self.on_chip_aggregation.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(TrafficCounter {
            off_chip_read_combination: u64::decode(r)?,
            off_chip_write_combination: u64::decode(r)?,
            off_chip_read_aggregation: u64::decode(r)?,
            off_chip_write_aggregation: u64::decode(r)?,
            on_chip_combination: u64::decode(r)?,
            on_chip_aggregation: u64::decode(r)?,
        })
    }
}

impl Wire for PerfReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.platform.encode(out);
        self.dataset.encode(out);
        self.model.encode(out);
        self.latency_ms.encode(out);
        self.cycles.encode(out);
        self.off_chip_bytes.encode(out);
        self.off_chip_accesses.encode(out);
        self.peak_bandwidth_gbps.encode(out);
        self.utilization.encode(out);
        self.energy.encode(out);
        self.traffic.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(PerfReport {
            platform: String::decode(r)?,
            dataset: String::decode(r)?,
            model: String::decode(r)?,
            latency_ms: f64::decode(r)?,
            cycles: u64::decode(r)?,
            off_chip_bytes: u64::decode(r)?,
            off_chip_accesses: u64::decode(r)?,
            peak_bandwidth_gbps: f64::decode(r)?,
            utilization: f64::decode(r)?,
            energy: EnergyBreakdown::decode(r)?,
            traffic: TrafficCounter::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_wire();
        let back = T::from_wire(&bytes).expect("roundtrip decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(1.5f32);
        roundtrip(-0.0f64);
        roundtrip(String::from("halo"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip((7u32, String::from("x")));
    }

    #[test]
    fn nan_payload_survives_bitwise() {
        let bits = 0x7fc0_1234u32;
        let bytes = f32::from_bits(bits).to_wire();
        let back = f32::from_wire(&bytes).expect("decode nan");
        assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn tensor_and_csr_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).expect("tensor");
        roundtrip(t);
        let m = CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])
            .expect("csr");
        roundtrip(m);
    }

    #[test]
    fn truncated_input_is_typed_error() {
        let bytes = 0xdead_beefu32.to_wire();
        let err = u32::from_wire(&bytes[..3]).expect_err("must reject");
        assert_eq!(
            err,
            WireError::Truncated {
                needed: 4,
                available: 3
            }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_wire();
        bytes.push(0);
        let err = u32::from_wire(&bytes).expect_err("must reject");
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        // Claims u32::MAX elements but carries 4 bytes of payload.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let err = Vec::<u64>::from_wire(&bytes).expect_err("must reject");
        assert!(matches!(err, WireError::Malformed { .. }), "got {err:?}");
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let err = String::from_wire(&bytes).expect_err("must reject");
        assert!(matches!(err, WireError::Malformed { .. }));
    }

    #[test]
    fn invalid_csr_structure_rejected() {
        // Unsorted columns within a row: from_parts must refuse it.
        let m = CsrMatrix::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(m.is_err());
        let good =
            CsrMatrix::from_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).expect("valid csr");
        let mut bytes = good.to_wire();
        // Swap the two column indices in place to corrupt sortedness:
        // layout = rows(4) cols(4) indptr(4 + 2*8) indices(4 + 2*4) ...
        let idx_base = 4 + 4 + 4 + 16 + 4;
        bytes.swap(idx_base, idx_base + 4);
        let err = CsrMatrix::from_wire(&bytes).expect_err("must reject");
        assert!(matches!(err, WireError::Malformed { .. }));
    }

    #[test]
    fn perf_report_roundtrips() {
        let report = PerfReport {
            platform: "hygcn".into(),
            dataset: "cora".into(),
            model: "gcn".into(),
            latency_ms: 1.25,
            cycles: 123_456,
            off_chip_bytes: 789,
            off_chip_accesses: 10,
            peak_bandwidth_gbps: 256.0,
            utilization: 0.5,
            energy: EnergyBreakdown {
                compute_combination: 1.0,
                on_chip_combination: 2.0,
                off_chip_combination: 3.0,
                compute_aggregation: 4.0,
                on_chip_aggregation: 5.0,
                off_chip_aggregation: 6.0,
            },
            traffic: TrafficCounter {
                off_chip_read_combination: 1,
                off_chip_write_combination: 2,
                off_chip_read_aggregation: 3,
                off_chip_write_aggregation: 4,
                on_chip_combination: 5,
                on_chip_aggregation: 6,
            },
        };
        roundtrip(report);
    }
}
