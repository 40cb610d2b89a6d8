//! The `tristream serve` wire protocol: frame types, error codes, and pure
//! encode/decode of every request and response payload.
//!
//! The normative specification lives in `docs/PROTOCOL.md`; this module is
//! its implementation, and the `protocol_doc` integration test holds the
//! two together (every [`FrameType`] and [`ErrorCode`] variant must appear
//! in the spec by name). The transport — `[type u8][len u32 LE][payload]`
//! frames — is [`tristream_graph::frame`]; edge payloads embed a complete
//! `.tsb` stream and are decoded by [`tristream_graph::binary`], so the
//! magic/version/corruption discipline of the file format carries over to
//! the socket unchanged.
//!
//! Everything here is pure: bytes in, values out, no sockets, no clocks.
//! Malformed input is always an [`Err`] carrying a [`WireError`] the server
//! can answer with — never a panic.

use std::fmt;
use tristream_graph::binary::{read_edges_binary, write_edges_binary};
use tristream_graph::{Edge, GraphError};

/// The four magic bytes opening every connection's HELLO payload —
/// "tristream serve protocol", mirroring the `.tsb` file magic.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"TSP\0";

/// The protocol version this module speaks. Versioning follows the `.tsb`
/// discipline: a server refuses versions it does not know with an
/// [`ErrorCode::UnsupportedVersion`] error frame rather than guessing.
///
/// Version 2 added the SNAPSHOT / RESTORE / SNAPSHOT_DATA frames and the
/// SNAPSHOT_UNSUPPORTED / BAD_SNAPSHOT error codes — a purely additive
/// change, so servers keep speaking to version-1 clients (see
/// [`MIN_PROTOCOL_VERSION`] and `docs/PROTOCOL.md` §versioning).
pub const PROTOCOL_VERSION: u16 = 2;

/// The oldest protocol version a server still accepts in HELLO. Version 2
/// is additive over version 1 (new frames, no changed ones), so a v1
/// client that never sends the new frames sees identical behaviour.
pub const MIN_PROTOCOL_VERSION: u16 = 1;

/// Every frame type on the wire. Requests (client → server) use the low
/// range `0x00–0x7F`; responses (server → client) set the high bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Connection opener: magic + protocol version.
    Hello = 0x00,
    /// Create a named stream running a registry algorithm.
    Create = 0x01,
    /// Tear down a named stream, joining its engine workers.
    Delete = 0x02,
    /// Ingest one batch of edges (an embedded `.tsb` stream) into a stream.
    Edges = 0x03,
    /// Ask for a stream's live estimate.
    Query = 0x04,
    /// Ask for per-stream counters across the whole server.
    Stats = 0x05,
    /// Begin a graceful drain of the whole server.
    Shutdown = 0x06,
    /// Ask for a stream's checkpoint (a `TSS\0` container; v2).
    Snapshot = 0x07,
    /// Recreate a stream from a checkpoint taken with SNAPSHOT (v2).
    Restore = 0x08,
    /// Success, nothing to report.
    Ok = 0x81,
    /// A live estimate (reply to [`FrameType::Query`]).
    Estimate = 0x82,
    /// Per-stream counters (reply to [`FrameType::Stats`]).
    StatsReport = 0x83,
    /// A stream checkpoint (reply to [`FrameType::Snapshot`]; v2).
    SnapshotData = 0x84,
    /// The request failed; carries an [`ErrorCode`] and a message.
    Error = 0x8F,
}

impl FrameType {
    /// Every frame type, in wire-value order — what the doc-drift test
    /// iterates to hold `docs/PROTOCOL.md` to the implementation.
    pub const ALL: [FrameType; 14] = [
        FrameType::Hello,
        FrameType::Create,
        FrameType::Delete,
        FrameType::Edges,
        FrameType::Query,
        FrameType::Stats,
        FrameType::Shutdown,
        FrameType::Snapshot,
        FrameType::Restore,
        FrameType::Ok,
        FrameType::Estimate,
        FrameType::StatsReport,
        FrameType::SnapshotData,
        FrameType::Error,
    ];

    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    pub fn from_byte(byte: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.byte() == byte)
    }

    /// The spec name, exactly as it appears in `docs/PROTOCOL.md`.
    pub fn name(self) -> &'static str {
        match self {
            FrameType::Hello => "HELLO",
            FrameType::Create => "CREATE",
            FrameType::Delete => "DELETE",
            FrameType::Edges => "EDGES",
            FrameType::Query => "QUERY",
            FrameType::Stats => "STATS",
            FrameType::Shutdown => "SHUTDOWN",
            FrameType::Snapshot => "SNAPSHOT",
            FrameType::Restore => "RESTORE",
            FrameType::Ok => "OK",
            FrameType::Estimate => "ESTIMATE",
            FrameType::StatsReport => "STATS_REPORT",
            FrameType::SnapshotData => "SNAPSHOT_DATA",
            FrameType::Error => "ERROR",
        }
    }
}

/// Error codes carried by [`FrameType::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame's payload did not decode (bad lengths, bad UTF-8, wrong
    /// magic, unknown frame type, …).
    MalformedFrame = 1,
    /// The named stream does not exist.
    UnknownStream = 2,
    /// CREATE named a stream that already exists.
    DuplicateStream = 3,
    /// CREATE named an algorithm the registry does not know.
    UnknownAlgorithm = 4,
    /// An EDGES payload failed `.tsb` validation (bad magic, truncation,
    /// self-loop record, trailing bytes).
    BadEdgePayload = 5,
    /// The server is draining and no longer accepts this request.
    Draining = 6,
    /// HELLO carried a protocol version this server does not speak.
    UnsupportedVersion = 7,
    /// SNAPSHOT named a stream whose algorithm does not support
    /// checkpoints, or CREATE asked a checkpointing server (`--state-dir`)
    /// for such an algorithm (v2).
    SnapshotUnsupported = 8,
    /// A RESTORE payload failed `TSS\0` checkpoint validation (bad magic,
    /// truncation, checksum mismatch, incompatible parameters) (v2).
    BadSnapshot = 9,
}

impl ErrorCode {
    /// Every error code, in wire-value order (doc-drift test input).
    pub const ALL: [ErrorCode; 9] = [
        ErrorCode::MalformedFrame,
        ErrorCode::UnknownStream,
        ErrorCode::DuplicateStream,
        ErrorCode::UnknownAlgorithm,
        ErrorCode::BadEdgePayload,
        ErrorCode::Draining,
        ErrorCode::UnsupportedVersion,
        ErrorCode::SnapshotUnsupported,
        ErrorCode::BadSnapshot,
    ];

    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte.
    pub fn from_byte(byte: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.byte() == byte)
    }

    /// The spec name, exactly as it appears in `docs/PROTOCOL.md`.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "MALFORMED_FRAME",
            ErrorCode::UnknownStream => "UNKNOWN_STREAM",
            ErrorCode::DuplicateStream => "DUPLICATE_STREAM",
            ErrorCode::UnknownAlgorithm => "UNKNOWN_ALGORITHM",
            ErrorCode::BadEdgePayload => "BAD_EDGE_PAYLOAD",
            ErrorCode::Draining => "DRAINING",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::SnapshotUnsupported => "SNAPSHOT_UNSUPPORTED",
            ErrorCode::BadSnapshot => "BAD_SNAPSHOT",
        }
    }
}

/// A protocol-level failure: what a server puts in an ERROR frame, and what
/// a decode function returns on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail, carried verbatim on the wire.
    pub message: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

fn malformed(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::MalformedFrame, message)
}

/// A client → server request, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Connection opener; the version is validated by the server, not the
    /// decoder, so an old server can answer a new client with a proper
    /// [`ErrorCode::UnsupportedVersion`] error frame.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Create a named stream.
    Create {
        /// Stream name (1–65535 UTF-8 bytes, like every wire string).
        name: String,
        /// Registry algorithm name.
        algo: String,
        /// Root RNG seed; shard seeds derive from it exactly as in the
        /// offline `count --parallel` path.
        seed: u64,
        /// Memory budget in 8-byte words (see `memory_words()` in
        /// `tristream-core`); the server resolves the algorithm's space
        /// parameter from it.
        budget_words: u64,
        /// Engine shards (worker threads); 0 means the server default.
        shards: u16,
        /// Sliding-window size for the `sliding` algorithm; 0 means the
        /// registry default, other algorithms ignore it.
        window: u64,
    },
    /// Tear down a named stream.
    Delete {
        /// Stream name.
        name: String,
    },
    /// Ingest one batch of edges. One EDGES frame is one engine batch, so
    /// the client's framing defines the batch boundaries bulk algorithms
    /// are sensitive to.
    Edges {
        /// Stream name.
        name: String,
        /// The decoded batch.
        edges: Vec<Edge>,
    },
    /// Ask for a live estimate.
    Query {
        /// Stream name.
        name: String,
    },
    /// Ask for per-stream counters.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
    /// Ask for a stream's checkpoint (v2): the stream's CREATE parameters,
    /// its replay offset, and its engine state, as one `TSS\0` container
    /// the server can later recreate the stream from.
    Snapshot {
        /// Stream name.
        name: String,
    },
    /// Recreate a stream from a checkpoint (v2). The payload is the raw
    /// container from a SNAPSHOT_DATA reply — self-delimiting, so it
    /// occupies the rest of the frame with no extra framing.
    Restore {
        /// The checkpoint container, verbatim.
        checkpoint: Vec<u8>,
    },
}

/// Per-stream counters in a [`Response::StatsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Stream name.
    pub name: String,
    /// Registry algorithm the stream runs.
    pub algo: String,
    /// Edges ingested so far.
    pub edges: u64,
    /// Current estimate (synchronised at report time).
    pub estimate: f64,
    /// Measured `memory_words()` across the stream's shards.
    pub memory_words: u64,
    /// EDGES frames ingested.
    pub ingest_batches: u64,
    /// Total nanoseconds spent enqueueing EDGES frames.
    pub ingest_nanos: u64,
    /// QUERY frames answered.
    pub queries: u64,
    /// Total nanoseconds spent answering QUERY frames (includes any wait
    /// for the frontier to cover the querying connection's writes).
    pub query_nanos: u64,
}

/// A server → client response, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success, nothing to report.
    Ok,
    /// Reply to QUERY.
    Estimate {
        /// The stream's current estimate. Encoded as raw IEEE-754 bits, so
        /// the value a client sees is bit-identical to the server's.
        estimate: f64,
        /// Edges ingested so far.
        edges: u64,
        /// Measured `memory_words()` across the stream's shards.
        memory_words: u64,
    },
    /// Reply to STATS: one record per live stream, in creation order.
    StatsReport(Vec<StreamStats>),
    /// Reply to SNAPSHOT: the stream's checkpoint container, verbatim (v2).
    SnapshotData(Vec<u8>),
    /// The request failed.
    Error(WireError),
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_str(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    let len = u16::try_from(s.len())
        .ok()
        .filter(|&l| l > 0)
        .ok_or_else(|| malformed("string field must be 1–65535 bytes"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

impl Request {
    /// The frame type this request travels as.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Request::Hello { .. } => FrameType::Hello,
            Request::Create { .. } => FrameType::Create,
            Request::Delete { .. } => FrameType::Delete,
            Request::Edges { .. } => FrameType::Edges,
            Request::Query { .. } => FrameType::Query,
            Request::Stats => FrameType::Stats,
            Request::Shutdown => FrameType::Shutdown,
            Request::Snapshot { .. } => FrameType::Snapshot,
            Request::Restore { .. } => FrameType::Restore,
        }
    }

    /// Encodes the payload bytes (without the frame header).
    pub fn encode_payload(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                out.extend_from_slice(&PROTOCOL_MAGIC);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Request::Create {
                name,
                algo,
                seed,
                budget_words,
                shards,
                window,
            } => {
                out.extend_from_slice(&seed.to_le_bytes());
                out.extend_from_slice(&budget_words.to_le_bytes());
                out.extend_from_slice(&window.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                push_str(&mut out, name)?;
                push_str(&mut out, algo)?;
            }
            Request::Delete { name } | Request::Query { name } | Request::Snapshot { name } => {
                push_str(&mut out, name)?;
            }
            Request::Restore { checkpoint } => {
                out.extend_from_slice(checkpoint);
            }
            Request::Edges { name, edges } => {
                push_str(&mut out, name)?;
                // An EDGES payload embeds a complete `.tsb` stream; writing
                // into a Vec cannot fail, but the codec's signature is
                // fallible, so propagate rather than unwrap.
                write_edges_binary(edges, &mut out)
                    .map_err(|e| WireError::new(ErrorCode::BadEdgePayload, e.to_string()))?;
            }
            Request::Stats | Request::Shutdown => {}
        }
        Ok(out)
    }

    /// Decodes a request from its frame type byte and payload.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Request, WireError> {
        let frame_type = FrameType::from_byte(frame_type)
            .ok_or_else(|| malformed(format!("unknown frame type byte 0x{frame_type:02x}")))?;
        let mut cur = Cursor::new(payload);
        let request = match frame_type {
            FrameType::Hello => {
                let magic = cur.bytes(4)?;
                if magic != PROTOCOL_MAGIC {
                    return Err(malformed("bad HELLO magic (expected \"TSP\\0\")"));
                }
                Request::Hello {
                    version: cur.u16()?,
                }
            }
            FrameType::Create => {
                let seed = cur.u64()?;
                let budget_words = cur.u64()?;
                let window = cur.u64()?;
                let shards = cur.u16()?;
                let name = cur.string()?;
                let algo = cur.string()?;
                Request::Create {
                    name,
                    algo,
                    seed,
                    budget_words,
                    shards,
                    window,
                }
            }
            FrameType::Delete => Request::Delete {
                name: cur.string()?,
            },
            FrameType::Edges => {
                let name = cur.string()?;
                // Decoded on the connection's own thread: the `.tsb` block
                // decoder runs far ahead of the estimation shards.
                let edges = read_edges_binary(cur.rest())
                    .map_err(|e| WireError::new(ErrorCode::BadEdgePayload, e.to_string()))?;
                return Ok(Request::Edges {
                    name,
                    edges: edges.into_edges(),
                });
            }
            FrameType::Query => Request::Query {
                name: cur.string()?,
            },
            FrameType::Stats => Request::Stats,
            FrameType::Shutdown => Request::Shutdown,
            FrameType::Snapshot => Request::Snapshot {
                name: cur.string()?,
            },
            // The checkpoint container validates itself (magic, checksums,
            // trailing bytes) when the server applies it; the wire layer
            // only carries the bytes.
            FrameType::Restore => Request::Restore {
                checkpoint: cur.rest().to_vec(),
            },
            FrameType::Ok
            | FrameType::Estimate
            | FrameType::StatsReport
            | FrameType::SnapshotData
            | FrameType::Error => {
                return Err(malformed(format!(
                    "response frame {} sent as a request",
                    frame_type.name()
                )))
            }
        };
        cur.finish()?;
        Ok(request)
    }
}

impl Response {
    /// The frame type this response travels as.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Response::Ok => FrameType::Ok,
            Response::Estimate { .. } => FrameType::Estimate,
            Response::StatsReport(_) => FrameType::StatsReport,
            Response::SnapshotData(_) => FrameType::SnapshotData,
            Response::Error(_) => FrameType::Error,
        }
    }

    /// Encodes the payload bytes (without the frame header).
    pub fn encode_payload(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        match self {
            Response::Ok => {}
            Response::Estimate {
                estimate,
                edges,
                memory_words,
            } => {
                out.extend_from_slice(&estimate.to_bits().to_le_bytes());
                out.extend_from_slice(&edges.to_le_bytes());
                out.extend_from_slice(&memory_words.to_le_bytes());
            }
            Response::StatsReport(streams) => {
                let count = u32::try_from(streams.len())
                    .map_err(|_| malformed("too many streams for a STATS_REPORT"))?;
                out.extend_from_slice(&count.to_le_bytes());
                for s in streams {
                    push_str(&mut out, &s.name)?;
                    push_str(&mut out, &s.algo)?;
                    out.extend_from_slice(&s.edges.to_le_bytes());
                    out.extend_from_slice(&s.estimate.to_bits().to_le_bytes());
                    out.extend_from_slice(&s.memory_words.to_le_bytes());
                    out.extend_from_slice(&s.ingest_batches.to_le_bytes());
                    out.extend_from_slice(&s.ingest_nanos.to_le_bytes());
                    out.extend_from_slice(&s.queries.to_le_bytes());
                    out.extend_from_slice(&s.query_nanos.to_le_bytes());
                }
            }
            Response::SnapshotData(checkpoint) => {
                out.extend_from_slice(checkpoint);
            }
            Response::Error(err) => {
                out.push(err.code.byte());
                // Sanitise so ERROR frames always encode: an empty message
                // gets a placeholder, an oversized one is truncated on a
                // char boundary to fit the u16 length prefix.
                let message = if err.message.is_empty() {
                    "(no detail)"
                } else {
                    let mut end = err.message.len().min(u16::MAX as usize);
                    while !err.message.is_char_boundary(end) {
                        end -= 1;
                    }
                    &err.message[..end]
                };
                push_str(&mut out, message)?;
            }
        }
        Ok(out)
    }

    /// Decodes a response from its frame type byte and payload.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Response, WireError> {
        let frame_type = FrameType::from_byte(frame_type)
            .ok_or_else(|| malformed(format!("unknown frame type byte 0x{frame_type:02x}")))?;
        let mut cur = Cursor::new(payload);
        let response = match frame_type {
            FrameType::Ok => Response::Ok,
            FrameType::Estimate => Response::Estimate {
                estimate: f64::from_bits(cur.u64()?),
                edges: cur.u64()?,
                memory_words: cur.u64()?,
            },
            FrameType::StatsReport => {
                let count = cur.u32()?;
                let mut streams = Vec::with_capacity(count.min(1 << 16) as usize);
                for _ in 0..count {
                    streams.push(StreamStats {
                        name: cur.string()?,
                        algo: cur.string()?,
                        edges: cur.u64()?,
                        estimate: f64::from_bits(cur.u64()?),
                        memory_words: cur.u64()?,
                        ingest_batches: cur.u64()?,
                        ingest_nanos: cur.u64()?,
                        queries: cur.u64()?,
                        query_nanos: cur.u64()?,
                    });
                }
                Response::StatsReport(streams)
            }
            FrameType::SnapshotData => Response::SnapshotData(cur.rest().to_vec()),
            FrameType::Error => {
                let code = cur.u8()?;
                let code = ErrorCode::from_byte(code)
                    .ok_or_else(|| malformed(format!("unknown error code {code}")))?;
                Response::Error(WireError {
                    code,
                    message: cur.string()?,
                })
            }
            other => {
                return Err(malformed(format!(
                    "request frame {} sent as a response",
                    other.name()
                )))
            }
        };
        cur.finish()?;
        Ok(response)
    }
}

// ---------------------------------------------------------------------------
// Decoding cursor
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over a payload slice. Every
/// shortfall is a [`WireError`], never a panic or a silent truncation.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| malformed("payload shorter than its fields"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// A length-prefixed UTF-8 string (u16 length, 1–65535 bytes).
    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()?;
        if len == 0 {
            return Err(malformed("empty string field"));
        }
        let raw = self.bytes(len as usize)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| malformed("string field is not UTF-8"))
    }

    /// Everything not yet consumed (used for embedded `.tsb` payloads).
    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    /// Trailing bytes after the final field are corruption, exactly as in
    /// the `.tsb` codec.
    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(malformed("trailing bytes after the final field"))
        }
    }
}

/// Maps a transport-level [`GraphError`] (bad framing, truncated frame) to
/// the ERROR frame a server should answer with before closing the
/// connection.
pub fn transport_error(err: &GraphError) -> WireError {
    malformed(err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode_payload().unwrap();
        let decoded = Request::decode(req.frame_type().byte(), &payload).unwrap();
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode_payload().unwrap();
        let decoded = Response::decode(resp.frame_type().byte(), &payload).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip_request(Request::Create {
            name: "clicks".into(),
            algo: "neighborhood-bulk".into(),
            seed: 42,
            budget_words: 1 << 16,
            shards: 4,
            window: 0,
        });
        round_trip_request(Request::Delete {
            name: "clicks".into(),
        });
        round_trip_request(Request::Edges {
            name: "clicks".into(),
            edges: vec![Edge::new(1u64, 2u64), Edge::new(2u64, 3u64)],
        });
        round_trip_request(Request::Query {
            name: "clicks".into(),
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Snapshot {
            name: "clicks".into(),
        });
        round_trip_request(Request::Restore {
            checkpoint: vec![0x54, 0x53, 0x53, 0x00, 1, 0, 0, 0],
        });
        round_trip_request(Request::Restore {
            checkpoint: Vec::new(),
        });
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Ok);
        round_trip_response(Response::Estimate {
            estimate: 1234.5678,
            edges: 3_000,
            memory_words: 8_192,
        });
        round_trip_response(Response::StatsReport(vec![StreamStats {
            name: "clicks".into(),
            algo: "sliding".into(),
            edges: 10,
            estimate: 2.5,
            memory_words: 64,
            ingest_batches: 3,
            ingest_nanos: 1_000,
            queries: 2,
            query_nanos: 5_000,
        }]));
        round_trip_response(Response::StatsReport(Vec::new()));
        round_trip_response(Response::SnapshotData(vec![0xAA; 64]));
        round_trip_response(Response::SnapshotData(Vec::new()));
        round_trip_response(Response::Error(WireError::new(
            ErrorCode::UnknownStream,
            "no stream named \"nope\"",
        )));
        round_trip_response(Response::Error(WireError::new(
            ErrorCode::BadSnapshot,
            "corrupt snapshot at byte 12: bad section checksum",
        )));
    }

    #[test]
    fn version_two_is_additive_over_version_one() {
        // The v1 wire bytes are untouched: every v1 frame type keeps its
        // byte, and the new v2 bytes were previously unassigned.
        assert_eq!(PROTOCOL_VERSION, 2);
        assert_eq!(MIN_PROTOCOL_VERSION, 1);
        assert_eq!(FrameType::Shutdown.byte(), 0x06);
        assert_eq!(FrameType::Snapshot.byte(), 0x07);
        assert_eq!(FrameType::Restore.byte(), 0x08);
        assert_eq!(FrameType::SnapshotData.byte(), 0x84);
        assert_eq!(FrameType::Error.byte(), 0x8F);
        assert_eq!(ErrorCode::SnapshotUnsupported.byte(), 8);
        assert_eq!(ErrorCode::BadSnapshot.byte(), 9);
    }

    #[test]
    fn estimate_bits_survive_the_wire_exactly() {
        // NaN-boxing-hostile values and signed zero must round-trip
        // bit-for-bit: the parity guarantee is stated in bits, not in ==.
        for value in [0.1 + 0.2, -0.0, f64::MIN_POSITIVE, 1e300] {
            let resp = Response::Estimate {
                estimate: value,
                edges: 0,
                memory_words: 0,
            };
            let payload = resp.encode_payload().unwrap();
            match Response::decode(FrameType::Estimate.byte(), &payload).unwrap() {
                Response::Estimate { estimate, .. } => {
                    assert_eq!(estimate.to_bits(), value.to_bits());
                }
                other => panic!("expected Estimate, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_type_bytes_round_trip_and_unknowns_are_rejected() {
        for t in FrameType::ALL {
            assert_eq!(FrameType::from_byte(t.byte()), Some(t));
        }
        assert_eq!(FrameType::from_byte(0x7F), None);
        let err = Request::decode(0x7F, &[]).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);
        assert!(err.message.contains("0x7f"), "{err}");
    }

    #[test]
    fn error_code_bytes_round_trip() {
        for c in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_byte(c.byte()), Some(c));
        }
        assert_eq!(ErrorCode::from_byte(0), None);
        assert_eq!(ErrorCode::from_byte(200), None);
    }

    #[test]
    fn hello_magic_and_truncations_are_malformed() {
        let mut payload = Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode_payload()
        .unwrap();
        payload[0] = b'X';
        let err = Request::decode(FrameType::Hello.byte(), &payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);
        assert!(err.message.contains("magic"), "{err}");
        // Truncated payload.
        let err = Request::decode(FrameType::Hello.byte(), &payload[..3]).unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedFrame);
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = Request::Query {
            name: "clicks".into(),
        }
        .encode_payload()
        .unwrap();
        payload.push(0);
        let err = Request::decode(FrameType::Query.byte(), &payload).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn empty_and_non_utf8_names_are_malformed() {
        // Empty name.
        let err = Request::decode(FrameType::Query.byte(), &[0, 0]).unwrap_err();
        assert!(err.message.contains("empty"), "{err}");
        // Invalid UTF-8.
        let payload = [2u8, 0, 0xFF, 0xFE];
        let err = Request::decode(FrameType::Query.byte(), &payload).unwrap_err();
        assert!(err.message.contains("UTF-8"), "{err}");
    }

    #[test]
    fn corrupt_embedded_tsb_is_a_bad_edge_payload() {
        let good = Request::Edges {
            name: "s".into(),
            edges: vec![Edge::new(1u64, 2u64)],
        }
        .encode_payload()
        .unwrap();
        // Truncate inside the record data.
        let err = Request::decode(FrameType::Edges.byte(), &good[..good.len() - 3]).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadEdgePayload);
        // Corrupt the embedded magic (right after the 2-byte name prefix +
        // 1-byte name).
        let mut bad = good.clone();
        bad[3] = b'X';
        let err = Request::decode(FrameType::Edges.byte(), &bad).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadEdgePayload);
        assert!(err.message.contains("magic"), "{err}");
    }

    #[test]
    fn responses_and_requests_cannot_swap_directions() {
        let err = Request::decode(FrameType::Ok.byte(), &[]).unwrap_err();
        assert!(err.message.contains("response frame"), "{err}");
        let err = Response::decode(FrameType::Query.byte(), &[]).unwrap_err();
        assert!(err.message.contains("request frame"), "{err}");
    }

    #[test]
    fn spec_names_are_unique() {
        let mut names: Vec<&str> = FrameType::ALL.iter().map(|t| t.name()).collect();
        names.extend(ErrorCode::ALL.iter().map(|c| c.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate spec names");
    }
}
