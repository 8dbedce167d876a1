//! Length-prefixed framing with a version byte and CRC-32 checksum.
//!
//! Every message on a shard socket is one frame:
//!
//! ```text
//! +----------------+---------+-----------------+----------------+
//! | u32 LE: length | u8: ver |     payload     | u32 LE: crc32  |
//! +----------------+---------+-----------------+----------------+
//!        |              \________ length ________/       |
//!        |                 (version byte included)       |
//!        +-- body length = 1 + payload bytes             |
//!                            crc32(version || payload) --+
//! ```
//!
//! The length covers the version byte plus the payload; the CRC is the
//! IEEE CRC-32 of those same bytes, so a flipped bit anywhere in the body
//! (including the version) is caught before decoding is attempted. The
//! length itself is sanity-capped at [`MAX_FRAME_LEN`], and the body buffer
//! grows only as bytes arrive, so a corrupt header cannot trigger a giant
//! allocation.

use std::io::{ErrorKind, Read, Write};

use crate::wire::{Wire, WireError, WireReader, WireResult};

/// Wire protocol version carried in every frame.
pub(crate) const PROTOCOL_VERSION: u8 = 1;

/// Maximum accepted frame body length (version byte + payload).
///
/// Large enough for a full `ShardSpec` of a Reddit-scale shard (features
/// dominate: ~60k rows x 602 f32 columns is ~145 MB), small enough to
/// reject garbage length prefixes outright.
pub(crate) const MAX_FRAME_LEN: u64 = 1 << 30;

/// Body bytes reserved before any of them has arrived: a frame up to this
/// size is read in one call into a buffer of its exact length; a longer one
/// grows with the bytes actually received.
const BODY_PREALLOC: usize = 64 * 1024;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    // Reflected IEEE CRC-32 (polynomial 0xEDB88320), the classic zlib one.
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `data` (the zlib/PNG variant).
pub fn crc32(data: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &byte in data {
        let idx = ((state ^ byte as u32) & 0xFF) as usize;
        state = (state >> 8) ^ CRC_TABLE[idx];
    }
    !state
}

fn io_err(context: &str, e: std::io::Error) -> WireError {
    // Expired read/write deadlines surface as `WouldBlock` (unix sockets)
    // or `TimedOut` (TCP); both mean "deadline passed", not "transport
    // broken", and get their own typed variant so callers can probe the
    // peer instead of tearing the connection down unconditionally.
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        return WireError::TimedOut {
            context: format!("{context}: {e}"),
        };
    }
    WireError::Io {
        context: format!("{context}: {e}"),
    }
}

/// Encode `msg` and write it as one frame. Returns total bytes written
/// (header + body + checksum) so callers can account traffic.
pub fn write_frame<W: Write, T: Wire>(w: &mut W, msg: &T) -> WireResult<usize> {
    let mut body = Vec::with_capacity(64);
    body.push(PROTOCOL_VERSION);
    msg.encode(&mut body);
    if body.len() as u64 > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len: body.len() as u64,
            max: MAX_FRAME_LEN,
        });
    }
    let checksum = crc32(&body);
    w.write_all(&(body.len() as u32).to_le_bytes())
        .map_err(|e| io_err("write frame length", e))?;
    w.write_all(&body)
        .map_err(|e| io_err("write frame body", e))?;
    w.write_all(&checksum.to_le_bytes())
        .map_err(|e| io_err("write frame checksum", e))?;
    w.flush().map_err(|e| io_err("flush frame", e))?;
    Ok(4 + body.len() + 4)
}

/// Read one frame and decode its payload as `T`. Returns the decoded
/// message plus total bytes consumed from the stream.
///
/// A clean EOF *before* the length prefix maps to [`WireError::Closed`]
/// (the peer hung up between frames); anything else — short body, bad
/// version, checksum mismatch, decode failure, leftover payload — is the
/// corresponding typed error. Never panics on hostile input.
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> WireResult<(T, usize)> {
    let mut len_buf = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len_buf) {
        return Err(if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            io_err("read frame length", e)
        });
    }
    let len = u32::from_le_bytes(len_buf) as u64;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    if len == 0 {
        return Err(WireError::Malformed {
            context: "frame body length 0 (missing version byte)".to_string(),
        });
    }
    let len = len as usize;
    let mut body = vec![0u8; len.min(BODY_PREALLOC)];
    r.read_exact(&mut body)
        .map_err(|e| io_err("read frame body", e))?;
    if len > body.len() {
        let rest = (len - body.len()) as u64;
        r.by_ref()
            .take(rest)
            .read_to_end(&mut body)
            .map_err(|e| io_err("read frame body", e))?;
        if body.len() < len {
            return Err(io_err("read frame body", ErrorKind::UnexpectedEof.into()));
        }
    }
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)
        .map_err(|e| io_err("read frame checksum", e))?;
    let got = u32::from_le_bytes(crc_buf);
    let expected = crc32(&body);
    if got != expected {
        return Err(WireError::BadChecksum { expected, got });
    }
    if body[0] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion {
            got: body[0],
            expected: PROTOCOL_VERSION,
        });
    }
    let mut reader = WireReader::new(&body[1..]);
    let msg = T::decode(&mut reader)?;
    if reader.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            remaining: reader.remaining(),
        });
    }
    Ok((msg, 4 + body.len() + 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_with_byte_accounting() {
        let mut buf = Vec::new();
        let msg = String::from("halo exchange");
        let written = write_frame(&mut buf, &msg).expect("write");
        assert_eq!(written, buf.len());
        let (back, consumed): (String, usize) = read_frame(&mut Cursor::new(&buf)).expect("read");
        assert_eq!(back, msg);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn eof_between_frames_is_closed() {
        let err = read_frame::<_, u32>(&mut Cursor::new(&[])).expect_err("must fail");
        assert_eq!(err, WireError::Closed);
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &0x1234_5678u32).expect("write");
        buf[6] ^= 0x40; // flip a payload bit
        let err = read_frame::<_, u32>(&mut Cursor::new(&buf)).expect_err("must fail");
        assert!(matches!(err, WireError::BadChecksum { .. }), "got {err:?}");
    }

    #[test]
    fn bad_version_rejected_after_checksum() {
        // Hand-build a frame with version 9 and a *valid* checksum so the
        // version check itself is exercised.
        let mut body = vec![9u8];
        0xABu8.encode(&mut body);
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = read_frame::<_, u8>(&mut Cursor::new(&buf)).expect_err("must fail");
        assert_eq!(
            err,
            WireError::BadVersion {
                got: 9,
                expected: PROTOCOL_VERSION
            }
        );
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        let err = read_frame::<_, u32>(&mut Cursor::new(&buf)).expect_err("must fail");
        assert!(
            matches!(err, WireError::FrameTooLarge { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn corrupt_length_prefix_reserves_at_most_one_chunk() {
        /// Records the largest buffer the frame reader asks it to fill.
        struct LargestAsk<R> {
            inner: R,
            largest: usize,
        }
        impl<R: Read> Read for LargestAsk<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.inner.read(buf)
            }
        }
        let mut buf = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0xA5; 16]);
        let mut reader = LargestAsk {
            inner: Cursor::new(buf),
            largest: 0,
        };
        let err = read_frame::<_, String>(&mut reader).expect_err("must fail");
        assert!(matches!(err, WireError::Io { .. }), "got {err:?}");
        assert!(
            reader.largest <= BODY_PREALLOC,
            "asked for {}",
            reader.largest
        );
    }

    #[test]
    fn body_longer_than_one_chunk_round_trips() {
        let mut buf = Vec::new();
        let msg = "x".repeat(3 * BODY_PREALLOC + 17);
        write_frame(&mut buf, &msg).expect("write");
        let (back, consumed): (String, usize) = read_frame(&mut Cursor::new(&buf)).expect("read");
        assert_eq!(back, msg);
        assert_eq!(consumed, buf.len());
        buf.truncate(buf.len() - 4 - BODY_PREALLOC);
        let err = read_frame::<_, String>(&mut Cursor::new(&buf)).expect_err("must fail");
        assert!(matches!(err, WireError::Io { .. }), "got {err:?}");
    }

    #[test]
    fn truncated_body_is_io_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &String::from("chopped")).expect("write");
        buf.truncate(buf.len() - 6);
        let err = read_frame::<_, String>(&mut Cursor::new(&buf)).expect_err("must fail");
        assert!(matches!(err, WireError::Io { .. }), "got {err:?}");
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut body = vec![PROTOCOL_VERSION];
        7u32.encode(&mut body);
        body.push(0xEE); // one extra byte the decoder will not consume
        let mut buf = (body.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = read_frame::<_, u32>(&mut Cursor::new(&buf)).expect_err("must fail");
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }
}
