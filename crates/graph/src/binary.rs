//! `.tsb` — the tristream binary edge-stream format.
//!
//! Text edge lists are convenient but slow: every edge costs a line split,
//! two integer parses and an allocation-churning `String`. Once the
//! estimators themselves are `O(r + w)` per batch (Theorem 3.5), end-to-end
//! throughput is bounded by parsing — so this module defines a compact
//! binary encoding that the batched readers can decode at memcpy speed and
//! feed straight into the sharded engine.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     4  magic, the bytes "TSB\0"
//!      4     2  format version (u16, currently 1)
//!      6     2  flags (u16; bit 0 = records carry a timestamp column)
//!      8     8  record count (u64)
//!     16     …  records
//! ```
//!
//! Each record is two `u64` vertex ids (`16` bytes). The writers set no
//! flags. Files from earlier builds may set flag bit 0, which gives every
//! record a third `u64`, a timestamp (`24` bytes — `u`, `v`, `timestamp`);
//! readers accept such files and skip the column, so they decode to the
//! same edges as the plain file.
//!
//! Readers validate the header and the record count: a bad magic, an
//! unsupported version, unknown flag bits, a truncated record, a self-loop
//! record, or trailing bytes after the final record all surface as
//! [`GraphError::Binary`] (never a panic). Writers always go through a
//! [`BufWriter`], mirroring the text writer.

use crate::edge::Edge;
use crate::error::GraphError;
use crate::stream::EdgeStream;
use crate::vertex::VertexId;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// The four magic bytes opening every `.tsb` file.
pub const TSB_MAGIC: [u8; 4] = *b"TSB\0";

/// The format version this module reads and writes.
pub const TSB_VERSION: u16 = 1;

/// Flag bit 0: every record carries a trailing `u64` timestamp, which
/// readers skip. Only files from earlier builds set it.
const FLAG_TIMESTAMPS: u16 = 1;

/// Size of the fixed header in bytes.
const HEADER_LEN: u64 = 16;

/// The parsed fixed header of a `.tsb` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsbHeader {
    /// Format version (currently always [`TSB_VERSION`]).
    pub version: u16,
    /// Whether records carry a trailing `u64` timestamp column.
    pub timestamped: bool,
    /// Number of records that follow the header.
    pub edges: u64,
}

impl TsbHeader {
    /// Bytes per record under this header.
    pub fn record_len(&self) -> usize {
        if self.timestamped {
            24
        } else {
            16
        }
    }
}

/// Whether a path has the `.tsb` extension (how the CLI and bench harness
/// decide between the text and binary codecs).
pub fn is_tsb_path<P: AsRef<Path>>(path: P) -> bool {
    path.as_ref()
        .extension()
        .is_some_and(|ext| ext.eq_ignore_ascii_case("tsb"))
}

fn binary_error(offset: u64, reason: &'static str) -> GraphError {
    GraphError::Binary { offset, reason }
}

/// Classifies a failed `read_exact`: only an unexpected EOF means the
/// stream is truncated (corruption); any other kind is a real I/O failure
/// and must surface as such, so a transient disk error is never
/// misdiagnosed as a malformed file.
fn read_failed(e: std::io::Error, offset: u64, reason: &'static str) -> GraphError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        binary_error(offset, reason)
    } else {
        GraphError::Io(e)
    }
}

/// Reads until `buf` is full or the stream ends and returns the number of
/// bytes read. Unlike `read_exact`, a short stream says how far it got, so
/// a truncation is located at its record rather than at the block start.
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<usize, GraphError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(GraphError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads and validates the 16-byte header, leaving the reader positioned at
/// the first record.
pub fn read_tsb_header<R: Read>(reader: &mut R) -> Result<TsbHeader, GraphError> {
    let mut header = [0u8; HEADER_LEN as usize];
    reader
        .read_exact(&mut header)
        .map_err(|e| read_failed(e, 0, "truncated header (shorter than 16 bytes)"))?;
    if header[0..4] != TSB_MAGIC {
        return Err(binary_error(0, "bad magic (not a .tsb stream)"));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != TSB_VERSION {
        return Err(binary_error(4, "unsupported .tsb version"));
    }
    let flags = u16::from_le_bytes([header[6], header[7]]);
    if flags & !FLAG_TIMESTAMPS != 0 {
        return Err(binary_error(6, "unknown flag bits set"));
    }
    #[allow(clippy::expect_used)]
    // analyze: allow(P1, reason = "infallible: an 8-byte subslice of the fixed 16-byte header array always converts to [u8; 8]")
    let edges = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    Ok(TsbHeader {
        version,
        timestamped: flags & FLAG_TIMESTAMPS != 0,
        edges,
    })
}

fn write_header<W: Write>(out: &mut W, edges: u64) -> Result<(), GraphError> {
    out.write_all(&TSB_MAGIC)?;
    out.write_all(&TSB_VERSION.to_le_bytes())?;
    out.write_all(&0u16.to_le_bytes())?;
    out.write_all(&edges.to_le_bytes())?;
    Ok(())
}

/// Writes edges as a version-1 `.tsb` stream (no timestamp column), through
/// a [`BufWriter`].
pub fn write_edges_binary<W: Write>(edges: &[Edge], writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::with_capacity(1 << 16, writer);
    write_header(&mut out, edges.len() as u64)?;
    for e in edges {
        out.write_all(&e.u().raw().to_le_bytes())?;
        out.write_all(&e.v().raw().to_le_bytes())?;
    }
    out.flush()?;
    Ok(())
}

/// Writes edges as a `.tsb` file.
pub fn write_edges_binary_file<P: AsRef<Path>>(edges: &[Edge], path: P) -> Result<(), GraphError> {
    write_edges_binary(edges, File::create(path)?)
}

/// Decodes one record. `offset` is the record's byte offset, for errors.
fn decode_edge(raw: &[u8], offset: u64) -> Result<Edge, GraphError> {
    #[allow(clippy::expect_used)]
    // analyze: allow(P1, reason = "infallible: callers hand decode_edge chunks_exact(record_len >= 16) slices, so the constant-width subslice always converts")
    let u = u64::from_le_bytes(raw[0..8].try_into().expect("8-byte slice"));
    #[allow(clippy::expect_used)]
    // analyze: allow(P1, reason = "infallible: callers hand decode_edge chunks_exact(record_len >= 16) slices, so the constant-width subslice always converts")
    let v = u64::from_le_bytes(raw[8..16].try_into().expect("8-byte slice"));
    Edge::try_new(VertexId(u), VertexId(v))
        .map_err(|_| binary_error(offset, "self-loop record (u == v)"))
}

/// Shared block decoder state for the whole-stream and batched readers:
/// reads records in large blocks straight off the underlying reader (no
/// per-record syscall, no line parsing).
#[derive(Debug)]
struct RecordReader<R> {
    reader: R,
    header: TsbHeader,
    /// Records decoded so far.
    decoded: u64,
    /// Scratch block buffer, reused across reads.
    block: Vec<u8>,
}

impl<R: Read> RecordReader<R> {
    fn new(mut reader: R) -> Result<Self, GraphError> {
        let header = read_tsb_header(&mut reader)?;
        Ok(Self {
            reader,
            header,
            decoded: 0,
            block: Vec::new(),
        })
    }

    fn remaining(&self) -> u64 {
        self.header.edges - self.decoded
    }

    /// Byte offset of the next record, for error reporting.
    fn offset(&self) -> u64 {
        HEADER_LEN + self.decoded * self.header.record_len() as u64
    }

    /// Reads and decodes up to `max` records into `out`, skipping the
    /// timestamp column if the stream has one.
    ///
    /// Errors come in stream order at the offset of the record they concern,
    /// whatever `max` is: a stream that ends mid-block first has its whole
    /// records decoded (so an earlier self-loop wins), then reports the
    /// first incomplete record. The whole-stream and batched readers
    /// therefore fail identically on the same bytes.
    fn read_records(&mut self, max: usize, out: &mut Vec<Edge>) -> Result<(), GraphError> {
        let rec = self.header.record_len();
        let count = (self.remaining().min(max as u64)) as usize;
        self.block.resize(count * rec, 0);
        let whole = read_full(&mut self.reader, &mut self.block)? / rec;
        // Room for the records that arrived, not for the header's claim.
        out.reserve(whole);
        // Split the immutable view off before mutating `decoded`, so record
        // offsets in errors stay accurate per record.
        for (i, raw) in self.block[..whole * rec].chunks_exact(rec).enumerate() {
            let offset = self.offset() + (i * rec) as u64;
            out.push(decode_edge(raw, offset)?);
        }
        if whole < count {
            let offset = self.offset() + (whole * rec) as u64;
            return Err(binary_error(offset, "truncated record data"));
        }
        self.decoded += count as u64;
        Ok(())
    }

    /// After the final record, any further byte is corruption.
    fn check_no_trailing_bytes(&mut self) -> Result<(), GraphError> {
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(binary_error(
                self.offset(),
                "trailing bytes after the final record",
            )),
            Err(e) => Err(GraphError::Io(e)),
        }
    }
}

/// Records decoded per block by the whole-stream readers.
const BLOCK_RECORDS: usize = 1 << 16;

/// Reads a whole `.tsb` stream into an [`EdgeStream`]. A timestamp column,
/// if present, is skipped. No deduplication is performed —
/// `.tsb` files are machine-written and carry stream semantics, so
/// duplicates are preserved as-is.
///
/// The header's record count sizes nothing up front but one decode block
/// (65,536 records): the edge vector grows by the records each block
/// actually delivers. A stream below one block gets a vector of its
/// own size, and a hostile header (a serve EDGES frame claiming 2^24
/// records and carrying none) costs one block buffer, not the claim.
pub fn read_edges_binary<R: Read>(reader: R) -> Result<EdgeStream, GraphError> {
    let mut records = RecordReader::new(reader)?;
    let mut edges = Vec::new();
    while records.remaining() > 0 {
        records.read_records(BLOCK_RECORDS, &mut edges)?;
    }
    records.check_no_trailing_bytes()?;
    Ok(EdgeStream::new(edges))
}

/// Opens a `.tsb` file and reads it whole.
pub fn read_edges_binary_file<P: AsRef<Path>>(path: P) -> Result<EdgeStream, GraphError> {
    read_edges_binary(File::open(path)?)
}

/// Streaming batched reader over a `.tsb` stream: yields `Vec<Edge>`
/// batches of at most `batch_size` edges without materialising the stream,
/// the binary counterpart of
/// [`read_edge_list_batched`](crate::io::read_edge_list_batched). The
/// header is read (and validated) eagerly, so a malformed file fails here
/// rather than on the first batch.
///
/// Iteration stops permanently after the first error.
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn read_edges_binary_batched<R: Read>(
    reader: R,
    batch_size: usize,
) -> Result<TsbBatches<R>, GraphError> {
    assert!(batch_size > 0, "batch size must be positive");
    Ok(TsbBatches {
        records: RecordReader::new(reader)?,
        batch_size,
        done: false,
    })
}

/// Opens `path` and returns a [batched binary reader](read_edges_binary_batched).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn read_edges_binary_batched_file<P: AsRef<Path>>(
    path: P,
    batch_size: usize,
) -> Result<TsbBatches<File>, GraphError> {
    read_edges_binary_batched(File::open(path)?, batch_size)
}

/// Iterator of `Vec<Edge>` batches produced by [`read_edges_binary_batched`].
#[derive(Debug)]
pub struct TsbBatches<R> {
    records: RecordReader<R>,
    batch_size: usize,
    /// Set after the final batch or the first error; the iterator is fused.
    done: bool,
}

impl<R> TsbBatches<R> {
    /// The validated header of the underlying stream.
    pub fn header(&self) -> TsbHeader {
        self.records.header
    }
}

impl<R: Read> Iterator for TsbBatches<R> {
    type Item = Result<Vec<Edge>, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.records.remaining() == 0 {
            self.done = true;
            return match self.records.check_no_trailing_bytes() {
                Ok(()) => None,
                Err(e) => Some(Err(e)),
            };
        }
        let mut batch = Vec::with_capacity(self.batch_size.min(self.records.remaining() as usize));
        if let Err(e) = self.records.read_records(self.batch_size, &mut batch) {
            self.done = true;
            return Some(Err(e));
        }
        Some(Ok(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_edge_list;

    fn path_edges(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    fn encode(edges: &[Edge]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_edges_binary(edges, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let edges = vec![
            Edge::new(1u64, 2u64),
            Edge::new(u64::MAX - 1, u64::MAX),
            Edge::new(0u64, 7u64),
            Edge::new(1u64, 2u64), // duplicates are preserved
        ];
        let buf = encode(&edges);
        let reread = read_edges_binary(buf.as_slice()).unwrap();
        assert_eq!(reread.edges(), edges.as_slice());
        // Re-encoding the decoded stream reproduces the exact bytes.
        assert_eq!(encode(reread.edges()), buf);
    }

    /// `edges` as a stream with the timestamp column (flag bit 0, 24-byte
    /// records), as earlier builds wrote it.
    fn encode_timestamped(edges: &[Edge], timestamps: &[u64]) -> Vec<u8> {
        let mut buf = TSB_MAGIC.to_vec();
        buf.extend_from_slice(&TSB_VERSION.to_le_bytes());
        buf.extend_from_slice(&FLAG_TIMESTAMPS.to_le_bytes());
        buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for (e, ts) in edges.iter().zip(timestamps) {
            for word in [e.u().raw(), e.v().raw(), *ts] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        buf
    }

    #[test]
    fn timestamped_streams_decode_to_the_plain_streams_edges() {
        // Timestamps that are not stream positions: the column is skipped,
        // never read as data.
        let edges = path_edges(20);
        let timestamps: Vec<u64> = (0..20u64).map(|i| u64::MAX - 7 * i).collect();
        let buf = encode_timestamped(&edges, &timestamps);
        assert_eq!(buf.len(), HEADER_LEN as usize + 20 * 24);
        let header = read_tsb_header(&mut buf.as_slice()).unwrap();
        assert!(header.timestamped);
        assert_eq!(header.record_len(), 24);

        let plain = read_edges_binary(encode(&edges).as_slice()).unwrap();
        assert_eq!(read_edges_binary(buf.as_slice()).unwrap(), plain);
        for batch in [1, 7, 64] {
            let batches: Vec<Vec<Edge>> = read_edges_binary_batched(buf.as_slice(), batch)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            let plain_batches: Vec<Vec<Edge>> =
                read_edges_binary_batched(encode(&edges).as_slice(), batch)
                    .unwrap()
                    .collect::<Result<_, _>>()
                    .unwrap();
            assert_eq!(batches, plain_batches, "batch {batch}");
        }
        // Errors are located by 24-byte records.
        let err = read_edges_binary(&buf[..buf.len() - 5]).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("byte {}", HEADER_LEN + 19 * 24)),
            "{err}"
        );
    }

    #[test]
    fn header_is_validated() {
        let mut h = read_tsb_header(&mut encode(&path_edges(3)).as_slice()).unwrap();
        assert_eq!(h.version, TSB_VERSION);
        assert!(!h.timestamped);
        assert_eq!(h.edges, 3);
        assert_eq!(h.record_len(), 16);
        h.timestamped = true;
        assert_eq!(h.record_len(), 24);
    }

    #[test]
    fn corrupt_headers_error_instead_of_panicking() {
        // Too short for a header at all.
        let err = read_edges_binary(&b"TSB"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Binary { offset: 0, .. }), "{err}");
        // Wrong magic.
        let mut buf = encode(&path_edges(2));
        buf[0] = b'X';
        let err = read_edges_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // Unsupported version.
        let mut buf = encode(&path_edges(2));
        buf[4] = 9;
        let err = read_edges_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Unknown flag bits.
        let mut buf = encode(&path_edges(2));
        buf[6] = 0xFE;
        let err = read_edges_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("flag"), "{err}");
    }

    #[test]
    fn truncated_and_padded_record_data_is_detected() {
        let buf = encode(&path_edges(4));
        // Chop the final record short.
        let err = read_edges_binary(&buf[..buf.len() - 5]).unwrap_err();
        assert!(
            matches!(err, GraphError::Binary { .. }) && err.to_string().contains("truncated"),
            "{err}"
        );
        // Trailing garbage after the declared record count.
        let mut padded = buf.clone();
        padded.extend_from_slice(&[0u8; 3]);
        let err = read_edges_binary(padded.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // A header claiming 2^24 records over the same 4 real ones.
        let mut hostile = buf.clone();
        hostile[8..16].copy_from_slice(&(1u64 << 24).to_le_bytes());
        let err = read_edges_binary(hostile.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn the_edge_buffer_grows_with_the_records_read() {
        // Below one block the vector is exactly the stream's size.
        let stream = read_edges_binary(encode(&path_edges(1_000)).as_slice()).unwrap();
        assert_eq!(stream.into_edges().capacity(), 1_000);
        // Past one block it grows block by block.
        let long = path_edges(2 * BLOCK_RECORDS as u64 + 2);
        let stream = read_edges_binary(encode(&long).as_slice()).unwrap();
        assert_eq!(stream.edges(), long.as_slice());
    }

    #[test]
    fn self_loop_records_error_with_their_offset() {
        let mut buf = Vec::new();
        write_header(&mut buf, 2).unwrap();
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&8u64.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes()); // self-loop, second record
        let err = read_edges_binary(buf.as_slice()).unwrap_err();
        match err {
            GraphError::Binary { offset, reason } => {
                assert_eq!(offset, HEADER_LEN + 16);
                assert!(reason.contains("self-loop"));
            }
            other => panic!("expected a binary error, got {other}"),
        }
    }

    /// The first error of `buf` as the batched reader reports it.
    fn first_batched_error(buf: &[u8], batch: usize) -> GraphError {
        read_edges_binary_batched(buf, batch)
            .unwrap()
            .find_map(Result::err)
            .expect("the stream is malformed")
    }

    #[test]
    fn errors_are_located_the_same_whatever_the_block_size() {
        let mut truncated = encode(&path_edges(40));
        truncated.truncate(HEADER_LEN as usize + 25 * 16 + 5);
        let mut self_loop = Vec::new();
        write_header(&mut self_loop, 40).unwrap();
        for i in 0..40u64 {
            let v = if i == 25 { i } else { i + 1 };
            self_loop.extend_from_slice(&i.to_le_bytes());
            self_loop.extend_from_slice(&v.to_le_bytes());
        }
        let expected = HEADER_LEN + 25 * 16;
        for (buf, reason) in [
            (truncated, "truncated record data"),
            (self_loop, "self-loop record (u == v)"),
        ] {
            let whole = read_edges_binary(buf.as_slice()).unwrap_err();
            assert!(
                matches!(whole, GraphError::Binary { offset, reason: r } if offset == expected && r == reason),
                "{whole}"
            );
            for batch in [1, 3, 16, 26, 64] {
                let batched = first_batched_error(&buf, batch);
                assert_eq!(batched.to_string(), whole.to_string(), "batch {batch}");
            }
        }
        // A self-loop before a truncation in the same block wins.
        let mut both = encode(&path_edges(40));
        both[HEADER_LEN as usize + 3 * 16 + 8..HEADER_LEN as usize + 4 * 16]
            .copy_from_slice(&3u64.to_le_bytes());
        both.truncate(HEADER_LEN as usize + 25 * 16 + 5);
        for batch in [1, 16, 64] {
            let err = first_batched_error(&both, batch);
            assert!(
                err.to_string().contains("self-loop"),
                "batch {batch}: {err}"
            );
        }
        assert!(read_edges_binary(both.as_slice())
            .unwrap_err()
            .to_string()
            .contains(&format!("byte {}", HEADER_LEN + 3 * 16)));
    }

    #[test]
    fn unnormalised_records_decode_to_normalised_edges() {
        let mut buf = Vec::new();
        write_header(&mut buf, 1).unwrap();
        buf.extend_from_slice(&9u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        let s = read_edges_binary(buf.as_slice()).unwrap();
        assert_eq!(s.edges(), &[Edge::new(2u64, 9u64)]);
    }

    #[test]
    fn batched_reader_covers_the_stream_without_overlap() {
        let edges = path_edges(10);
        let buf = encode(&edges);
        let it = read_edges_binary_batched(buf.as_slice(), 4).unwrap();
        assert_eq!(it.header().edges, 10);
        let batches: Vec<Vec<Edge>> = it.collect::<Result<_, _>>().unwrap();
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        let flat: Vec<Edge> = batches.into_iter().flatten().collect();
        assert_eq!(flat, edges);
    }

    #[test]
    fn batched_reader_fails_fast_on_a_bad_header_and_fuses_on_errors() {
        assert!(matches!(
            read_edges_binary_batched(&b"not a tsb file"[..], 8),
            Err(GraphError::Binary { .. })
        ));
        let buf = encode(&path_edges(6));
        let mut it = read_edges_binary_batched(&buf[..buf.len() - 1], 4).unwrap();
        assert_eq!(it.next().unwrap().unwrap().len(), 4);
        assert!(it.next().unwrap().is_err(), "truncated final batch");
        assert!(it.next().is_none(), "the iterator fuses after an error");
    }

    #[test]
    fn empty_streams_round_trip() {
        let buf = encode(&[]);
        assert_eq!(buf.len() as u64, HEADER_LEN);
        assert!(read_edges_binary(buf.as_slice()).unwrap().is_empty());
        assert!(read_edges_binary_batched(buf.as_slice(), 8)
            .unwrap()
            .next()
            .is_none());
    }

    #[test]
    #[should_panic]
    fn batched_reader_rejects_zero_batch_size() {
        let buf = encode(&path_edges(1));
        let _ = read_edges_binary_batched(buf.as_slice(), 0);
    }

    #[test]
    fn tsb_path_detection() {
        assert!(is_tsb_path("graph.tsb"));
        assert!(is_tsb_path("dir/graph.TSB"));
        assert!(!is_tsb_path("graph.txt"));
        assert!(!is_tsb_path("graph"));
        assert!(!is_tsb_path("tsb"));
    }

    #[test]
    fn binary_and_text_codecs_agree_on_the_same_stream() {
        let edges = path_edges(257);
        let mut text = String::new();
        for e in &edges {
            text.push_str(&format!("{} {}\n", e.u().raw(), e.v().raw()));
        }
        let from_text = read_edge_list(text.as_bytes(), false).unwrap();
        let from_binary = read_edges_binary(encode(&edges).as_slice()).unwrap();
        assert_eq!(from_text.edges(), from_binary.edges());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("tristream-binary-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip-{}.tsb", std::process::id()));
        let edges = path_edges(1_000);
        write_edges_binary_file(&edges, &path).unwrap();
        let reread = read_edges_binary_file(&path).unwrap();
        assert_eq!(reread.edges(), edges.as_slice());
        let flat: Vec<Edge> = read_edges_binary_batched_file(&path, 128)
            .unwrap()
            .collect::<Result<Vec<Vec<Edge>>, _>>()
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(flat, edges);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_edges_binary_file("/nonexistent/definitely/not/here.tsb").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    /// Yields `prefix`, then fails every read with a non-EOF I/O error.
    struct FailingReader<'a> {
        prefix: &'a [u8],
    }

    impl Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.prefix.is_empty() {
                return Err(std::io::Error::other("disk on fire"));
            }
            let n = self.prefix.len().min(buf.len());
            buf[..n].copy_from_slice(&self.prefix[..n]);
            self.prefix = &self.prefix[n..];
            Ok(n)
        }
    }

    #[test]
    fn real_io_failures_are_not_misreported_as_corruption() {
        let buf = encode(&path_edges(4));
        // Mid-records failure: the file is fine, the disk is not.
        let err = read_edges_binary(FailingReader {
            prefix: &buf[..buf.len() - 8],
        })
        .unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
        assert!(err.to_string().contains("disk on fire"), "{err}");
        // Mid-header failure, same contract.
        let err = read_edges_binary(FailingReader { prefix: &buf[..3] }).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    use crate::test_util::CountingWriter;

    #[test]
    fn binary_writers_are_buffered_not_one_write_per_record() {
        // 10,000 records are 160 KB; with the 64 KB BufWriter that is a
        // handful of block writes, not 20,000+ field writes.
        let edges = path_edges(10_000);
        let mut writes = 0usize;
        write_edges_binary(
            &edges,
            CountingWriter {
                writes: &mut writes,
            },
        )
        .unwrap();
        assert!(writes > 0);
        assert!(
            writes < 10,
            "10k records reached the writer in {writes} writes — buffering is broken"
        );
    }
}
