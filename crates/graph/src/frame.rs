//! Length-prefixed frame transport over any [`Read`]/[`Write`] pair.
//!
//! The serving layer ships `.tsb`-encoded edge blocks and small control
//! messages over a TCP socket. A socket, unlike a file, has no natural end:
//! message boundaries must be explicit. This module defines the one framing
//! primitive the wire protocol (see `docs/PROTOCOL.md`) is built on:
//!
//! ```text
//! offset  size  field
//! ------  ----  --------------------------------------------
//!      0     1  frame type (u8, semantics owned by the peer)
//!      1     4  payload length (u32, little-endian)
//!      5     …  payload (exactly `length` bytes)
//! ```
//!
//! Frame *semantics* — which type bytes exist, what their payloads mean —
//! live in `tristream-serve::protocol`. This module only moves opaque
//! `(type, payload)` pairs, with the same corruption discipline as the
//! [`.tsb` codec](crate::binary): a truncated frame or an oversized length
//! prefix surfaces as [`GraphError::Binary`] (never a panic), and real I/O
//! failures — including read timeouts, which the server's drain loop relies
//! on — pass through as [`GraphError::Io`].

use crate::error::GraphError;
use std::io::{IoSlice, Read, Write};

/// Upper bound on a frame payload, in bytes (64 MiB). A length prefix above
/// this is treated as corruption: it protects the reader from allocating
/// unbounded memory on a hostile or desynchronised stream, and no legitimate
/// frame comes close (a 64 MiB edge payload is over four million records).
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 26;

fn frame_error(offset: u64, reason: &'static str) -> GraphError {
    GraphError::Binary { offset, reason }
}

/// Classifies a failed `read_exact` mid-frame: an unexpected EOF means the
/// peer hung up inside a frame (corruption); anything else is a real I/O
/// failure.
fn read_failed(e: std::io::Error, offset: u64, reason: &'static str) -> GraphError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        frame_error(offset, reason)
    } else {
        GraphError::Io(e)
    }
}

/// Writes one frame. The caller flushes (frames are often followed
/// immediately by a read of the peer's reply, so flushing is part of the
/// request/response discipline, not the framing).
///
/// The 5-byte header and the payload go out together through
/// [`Write::write_vectored`], without copying the payload. On a socket the
/// kernel then sees the whole frame at once: a frame below one segment
/// leaves as one segment. Written in pieces, the header would leave alone,
/// and with Nagle's algorithm on the rest would wait for the peer to ACK
/// it, which the peer delays (40 ms on Linux). Short writes continue from
/// where they stopped, `Interrupted` is retried, and a writer that accepts
/// nothing fails with [`std::io::ErrorKind::WriteZero`].
///
/// A payload longer than [`MAX_FRAME_PAYLOAD`] is refused with
/// [`GraphError::Binary`] before anything is written, so a partial frame
/// never reaches the wire.
pub fn write_frame<W: Write>(
    writer: &mut W,
    frame_type: u8,
    payload: &[u8],
) -> Result<(), GraphError> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(frame_error(1, "frame payload exceeds MAX_FRAME_PAYLOAD"));
    }
    let mut header = [frame_type, 0, 0, 0, 0];
    header[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match writer.write_vectored(pending) {
            Ok(0) => {
                return Err(GraphError::Io(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                )))
            }
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(GraphError::Io(e)),
        }
    }
    Ok(())
}

/// Reads the 1-byte frame type, the only read on which a clean shutdown is
/// legal: `Ok(None)` means the peer closed the connection at a frame
/// boundary. A read timeout (the server's drain loop polls with one)
/// surfaces as [`GraphError::Io`] with the platform's timeout error kind and
/// consumes nothing, so the caller can simply retry.
pub fn read_frame_type<R: Read>(reader: &mut R) -> Result<Option<u8>, GraphError> {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(GraphError::Io(e)),
        }
    }
}

/// Reads the length prefix and payload of a frame whose type byte has
/// already been consumed by [`read_frame_type`]. Offsets in errors are
/// relative to the start of the frame.
pub fn read_frame_body<R: Read>(reader: &mut R) -> Result<Vec<u8>, GraphError> {
    let mut len = [0u8; 4];
    reader
        .read_exact(&mut len)
        .map_err(|e| read_failed(e, 1, "truncated frame length prefix"))?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_PAYLOAD {
        return Err(frame_error(1, "frame payload exceeds MAX_FRAME_PAYLOAD"));
    }
    let mut payload = vec![0u8; len as usize];
    reader
        .read_exact(&mut payload)
        .map_err(|e| read_failed(e, 5, "truncated frame payload"))?;
    Ok(payload)
}

/// Reads one whole frame: `Ok(None)` on a clean EOF at a frame boundary,
/// `Ok(Some((type, payload)))` otherwise.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<(u8, Vec<u8>)>, GraphError> {
    match read_frame_type(reader)? {
        None => Ok(None),
        Some(frame_type) => Ok(Some((frame_type, read_frame_body(reader)?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(frame_type: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame_type, payload).unwrap();
        buf
    }

    #[test]
    fn frames_round_trip() {
        let buf = encode(0x42, b"hello frames");
        assert_eq!(buf[0], 0x42);
        assert_eq!(buf.len(), 1 + 4 + 12);
        let (t, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(t, 0x42);
        assert_eq!(payload, b"hello frames");
    }

    #[test]
    fn empty_payloads_round_trip() {
        let buf = encode(0x01, b"");
        assert_eq!(buf.len(), 5);
        let (t, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(t, 0x01);
        assert!(payload.is_empty());
    }

    #[test]
    fn back_to_back_frames_keep_their_boundaries() {
        let mut buf = encode(0x01, b"first");
        buf.extend(encode(0x02, b"second"));
        let mut reader = buf.as_slice();
        let (t1, p1) = read_frame(&mut reader).unwrap().unwrap();
        let (t2, p2) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!((t1, p1.as_slice()), (0x01, &b"first"[..]));
        assert_eq!((t2, p2.as_slice()), (0x02, &b"second"[..]));
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_at_a_frame_boundary_is_none_not_an_error() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        assert!(read_frame_type(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn truncation_inside_a_frame_is_corruption() {
        let buf = encode(0x07, b"payload");
        // Inside the length prefix.
        let err = read_frame(&mut &buf[..3]).unwrap_err();
        assert!(matches!(err, GraphError::Binary { offset: 1, .. }), "{err}");
        assert!(err.to_string().contains("length prefix"), "{err}");
        // Inside the payload.
        let err = read_frame(&mut &buf[..buf.len() - 2]).unwrap_err();
        assert!(matches!(err, GraphError::Binary { offset: 5, .. }), "{err}");
        assert!(err.to_string().contains("payload"), "{err}");
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating() {
        let mut buf = vec![0x01];
        buf.extend(u32::MAX.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("MAX_FRAME_PAYLOAD"),
            "hostile length prefix must be corruption, got {err}"
        );
    }

    #[test]
    fn oversized_writes_are_refused_before_touching_the_wire() {
        let payload = vec![0u8; MAX_FRAME_PAYLOAD as usize + 1];
        let mut out = CallRecorder::default();
        let err = write_frame(&mut out, 0x01, &payload).unwrap_err();
        assert!(matches!(err, GraphError::Binary { .. }), "{err}");
        assert!(out.bytes.is_empty(), "no partial frame on the wire");
        assert_eq!((out.writes, out.vectored), (0, 0), "no write call at all");
    }

    /// Accepts every byte it is offered and counts the calls by kind.
    #[derive(Default)]
    struct CallRecorder {
        bytes: Vec<u8>,
        writes: usize,
        vectored: usize,
    }

    impl Write for CallRecorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored += 1;
            let before = self.bytes.len();
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_vectored_write() {
        let mut out = CallRecorder::default();
        write_frame(&mut out, 0x01, b"first").unwrap();
        write_frame(&mut out, 0x02, b"").unwrap();
        write_frame(&mut out, 0x03, &[7u8; 4096]).unwrap();
        assert_eq!(out.vectored, 3, "one write_vectored per frame");
        assert_eq!(out.writes, 0, "no separate header or payload write");
        let mut expected = encode(0x01, b"first");
        expected.extend(encode(0x02, b""));
        expected.extend(encode(0x03, &[7u8; 4096]));
        assert_eq!(out.bytes, expected);
    }

    #[test]
    fn short_and_interrupted_writes_still_deliver_the_whole_frame() {
        use crate::fault::FaultyWriter;
        use std::io::ErrorKind;
        let payload: Vec<u8> = (0..32).collect();
        // Every call takes at most 3 bytes: the first write stops inside
        // the 5-byte header, and later ones stop inside the payload (the
        // second crosses from header into payload). An `Interrupted`
        // fires at byte 11, inside the payload.
        let mut out = FaultyWriter::new(Vec::new())
            .short_writes(3)
            .fail_at(11, ErrorKind::Interrupted);
        write_frame(&mut out, 0x09, &payload).unwrap();
        assert_eq!(out.into_inner(), encode(0x09, &payload));
    }

    #[test]
    fn a_writer_that_accepts_nothing_is_a_write_zero_error() {
        struct Stalled;
        impl Write for Stalled {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        match write_frame(&mut Stalled, 0x01, b"payload").unwrap_err() {
            GraphError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::WriteZero),
            other => panic!("expected Io, got {other}"),
        }
    }

    /// Fails every read with a non-EOF I/O error.
    struct FailingReader;

    impl Read for FailingReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("wire on fire"))
        }
    }

    #[test]
    fn real_io_failures_are_not_misreported_as_corruption() {
        let err = read_frame(&mut FailingReader).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    #[test]
    fn timeouts_pass_through_as_io_errors() {
        struct TimingOut;
        impl Read for TimingOut {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        let err = read_frame_type(&mut TimingOut).unwrap_err();
        match err {
            GraphError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            other => panic!("expected Io, got {other}"),
        }
    }
}
