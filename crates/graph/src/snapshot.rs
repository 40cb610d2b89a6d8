//! Versioned binary snapshot container — the `.tss` sibling of the `.tsb`
//! edge codec ([`crate::binary`]).
//!
//! Estimator checkpoints (`ROADMAP` item 4: durable state) are
//! serialized as a *sectioned container* so that every layer — the core
//! estimator pool, the sharded engine, the serve stream table — can own its
//! own payload without inventing a new framing discipline each time:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "TSS\0" (0x54 0x53 0x53 0x00)
//! 4       2     format version, u16 LE (currently 1)
//! 6       2     section count, u16 LE
//! 8       …     sections, each:
//!                 id        u16 LE   (strictly increasing across the file)
//!                 length    u64 LE   (payload bytes)
//!                 payload   length bytes
//!                 checksum  u64 LE   (FNV-1a 64 over the payload)
//! ```
//!
//! The discipline mirrors `.tsb`: little-endian fixed-width integers, a
//! magic + version header, and *no trailing bytes* — anything after the
//! last section is corruption. Section ids must be strictly increasing, so
//! a reordered (or duplicated) section is a structural error rather than a
//! silently different decode. Every way a snapshot can be damaged — bad
//! magic, unsupported version, truncation, checksum mismatch, out-of-order
//! sections, trailing garbage — surfaces as a typed [`SnapshotError`],
//! never a panic: restore paths run at daemon startup where an `unwrap`
//! would turn one bad file into a crash loop.
//!
//! The container does not interpret payloads. Writers append sections with
//! [`SnapshotWriter::section`]; readers parse eagerly ([`SnapshotReader::parse`]
//! validates the whole container up front, checksums included) and then
//! pull sections by id, decoding fields through [`SectionReader`], which
//! reports absolute file offsets in its errors.

use std::error::Error;
use std::fmt;
use std::io;

/// Leading magic of a serialized snapshot: `TSS\0`.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSS\0";

/// Container format version this build writes and the only one it reads.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Byte length of the container header (magic + version + section count).
pub const SNAPSHOT_HEADER_LEN: usize = 8;

/// Per-section overhead: id (2) + length (8) + checksum (8).
#[cfg(test)]
const SECTION_OVERHEAD: usize = 18;

/// How reading or interpreting a snapshot fails.
///
/// `Corrupt` means the *bytes* are damaged (offsets are absolute container
/// offsets); `Incompatible` means the bytes decode fine but describe a
/// state the receiver cannot adopt (wrong estimator kind, shard-count
/// mismatch, impossible field values); `Unsupported` means the estimator
/// or algorithm has no snapshot capability at all.
#[derive(Debug)]
pub enum SnapshotError {
    /// Structural damage at `offset`: bad magic, truncation, checksum
    /// mismatch, out-of-order sections, trailing bytes, short fields.
    Corrupt {
        /// Byte offset into the container where the damage was detected.
        offset: u64,
        /// Static description of what was expected there.
        reason: &'static str,
    },
    /// The snapshot decodes but cannot be applied to the receiver.
    Incompatible {
        /// What about the decoded state conflicts with the receiver.
        reason: String,
    },
    /// The estimator (or algorithm registry entry) does not implement
    /// snapshots; carries the name of what refused.
    Unsupported {
        /// Name of the estimator/algorithm lacking snapshot support.
        what: String,
    },
    /// An underlying I/O failure while reading or writing snapshot bytes.
    Io(io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Corrupt { offset, reason } => {
                write!(f, "corrupt snapshot at byte {offset}: {reason}")
            }
            Self::Incompatible { reason } => {
                write!(f, "incompatible snapshot: {reason}")
            }
            Self::Unsupported { what } => {
                write!(f, "{what} does not support snapshots")
            }
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl Error for SnapshotError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Shorthand used by the decode paths below.
fn corrupt(offset: u64, reason: &'static str) -> SnapshotError {
    SnapshotError::Corrupt { offset, reason }
}

/// FNV-1a 64-bit checksum — the per-section integrity check. Deliberately
/// simple: the goal is detecting torn writes and bit rot in checkpoint
/// files, not adversarial tampering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds a snapshot container in memory. Append sections in strictly
/// increasing id order, then call [`finish`](Self::finish).
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    sections: u16,
    last_id: Option<u16>,
}

impl SnapshotWriter {
    /// Start a container at the current [`SNAPSHOT_VERSION`].
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // count, patched in finish()
        Self {
            buf,
            sections: 0,
            last_id: None,
        }
    }

    /// Append one section. Ids must be strictly increasing; a misordered
    /// append is a programming error reported as `Incompatible` (the
    /// container is ours, so this never reaches a release decode path).
    pub fn section(&mut self, id: u16, payload: &[u8]) -> Result<(), SnapshotError> {
        if self.last_id.is_some_and(|last| id <= last) {
            return Err(SnapshotError::Incompatible {
                reason: format!("section id {id} appended out of order"),
            });
        }
        if self.sections == u16::MAX {
            return Err(SnapshotError::Incompatible {
                reason: "section count overflow".to_owned(),
            });
        }
        self.last_id = Some(id);
        self.sections += 1;
        self.buf.extend_from_slice(&id.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
        Ok(())
    }

    /// Patch the section count into the header and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[6..8].copy_from_slice(&self.sections.to_le_bytes());
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// A fully validated view over a snapshot container.
///
/// [`parse`](Self::parse) walks the whole container once — header, every
/// section frame, every checksum, the trailing-bytes probe — so by the
/// time a caller asks for a section, the only remaining failure modes are
/// *semantic* (missing section, bad field values), not structural.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// `(id, absolute payload offset, payload)` in file order.
    sections: Vec<(u16, u64, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Validate `bytes` as a complete snapshot container.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < SNAPSHOT_HEADER_LEN {
            return Err(corrupt(bytes.len() as u64, "truncated snapshot header"));
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(corrupt(0, "bad snapshot magic (expected \"TSS\\0\")"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(4, "unsupported snapshot version"));
        }
        let count = u16::from_le_bytes([bytes[6], bytes[7]]);
        let mut sections = Vec::with_capacity(usize::from(count));
        let mut pos = SNAPSHOT_HEADER_LEN;
        let mut last_id: Option<u16> = None;
        for _ in 0..count {
            if bytes.len() - pos < 10 {
                return Err(corrupt(pos as u64, "truncated section header"));
            }
            let id = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            if last_id.is_some_and(|last| id <= last) {
                return Err(corrupt(pos as u64, "section ids out of order"));
            }
            last_id = Some(id);
            let len_bytes: [u8; 8] = bytes[pos + 2..pos + 10]
                .try_into()
                .map_err(|_| corrupt(pos as u64 + 2, "truncated section length"))?;
            let len = u64::from_le_bytes(len_bytes);
            let payload_at = pos + 10;
            let Ok(len_usize) = usize::try_from(len) else {
                return Err(corrupt(pos as u64 + 2, "section length overflows"));
            };
            if bytes.len() - payload_at < len_usize.saturating_add(8) {
                return Err(corrupt(payload_at as u64, "truncated section payload"));
            }
            let payload = &bytes[payload_at..payload_at + len_usize];
            let sum_at = payload_at + len_usize;
            let stored: [u8; 8] = bytes[sum_at..sum_at + 8]
                .try_into()
                .map_err(|_| corrupt(sum_at as u64, "truncated section checksum"))?;
            if u64::from_le_bytes(stored) != fnv1a(payload) {
                return Err(corrupt(sum_at as u64, "section checksum mismatch"));
            }
            sections.push((id, payload_at as u64, payload));
            pos = sum_at + 8;
        }
        if pos != bytes.len() {
            return Err(corrupt(pos as u64, "trailing bytes after last section"));
        }
        Ok(Self { sections })
    }

    /// Number of sections in the container.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether the container carries no sections at all.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Look up a section by id, returning a [`SectionReader`] positioned at
    /// its payload. Absence is corruption: containers are written by us,
    /// so a missing required section means the file was damaged in a way
    /// the checksums cannot see (e.g. written by a different layer).
    pub fn section(&self, id: u16) -> Result<SectionReader<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .map(|&(_, offset, payload)| SectionReader::new(payload, offset))
            .ok_or(SnapshotError::Corrupt {
                offset: 0,
                reason: "required section missing",
            })
    }

    /// Whether a section with `id` is present.
    pub fn has_section(&self, id: u16) -> bool {
        self.sections.iter().any(|&(sid, _, _)| sid == id)
    }

    /// All sections in file order as `(id, payload)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        self.sections.iter().map(|&(id, _, payload)| (id, payload))
    }
}

/// Field-by-field decoder over one section payload. Errors carry the
/// absolute container offset of the missing/short field, and
/// [`finish`](Self::finish) enforces the no-trailing-bytes rule inside the
/// section just as the container enforces it outside.
#[derive(Debug)]
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> SectionReader<'a> {
    fn new(bytes: &'a [u8], base: u64) -> Self {
        Self {
            bytes,
            pos: 0,
            base,
        }
    }

    /// Absolute container offset of the next unread byte.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(corrupt(self.offset(), what));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Take one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Take a little-endian u16.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, SnapshotError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Take a little-endian u64.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.bytes(8, what)?;
        let arr: [u8; 8] = b.try_into().unwrap_or([0; 8]);
        Ok(u64::from_le_bytes(arr))
    }

    /// Take `count` little-endian u64 values into a fresh Vec.
    pub fn u64_vec(&mut self, count: usize, what: &'static str) -> Result<Vec<u64>, SnapshotError> {
        let raw = self.bytes(
            count
                .checked_mul(8)
                .ok_or_else(|| corrupt(self.offset(), what))?,
            what,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])))
            .collect())
    }

    /// Take a u16-length-prefixed UTF-8 string (the `.tsp` string shape).
    pub fn string(&mut self, what: &'static str) -> Result<String, SnapshotError> {
        let len = usize::from(self.u16(what)?);
        let raw = self.bytes(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| corrupt(self.base, "string is not UTF-8"))
    }

    /// Everything left in the section.
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        out
    }

    /// Assert the section was consumed exactly; trailing bytes are corruption.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt(self.offset(), "trailing bytes in section"));
        }
        Ok(())
    }
}

/// Append a little-endian u64 slice to a payload buffer — the writing
/// counterpart of [`SectionReader::u64_vec`].
pub fn put_u64s(buf: &mut Vec<u8>, values: &[u64]) {
    buf.reserve(values.len() * 8);
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append a u16-length-prefixed UTF-8 string; lengths above `u16::MAX`
/// are refused (the protocol's string shape).
pub fn put_string(buf: &mut Vec<u8>, s: &str) -> Result<(), SnapshotError> {
    let Ok(len) = u16::try_from(s.len()) else {
        return Err(SnapshotError::Incompatible {
            reason: format!("string of {} bytes exceeds the u16 length prefix", s.len()),
        });
    };
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_container() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section(1, &[0xAA, 0xBB]).unwrap();
        w.section(7, &42u64.to_le_bytes()).unwrap();
        w.finish()
    }

    #[test]
    fn round_trips_sections_in_order() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.len(), 2);
        let collected: Vec<_> = r.iter().collect();
        assert_eq!(collected[0], (1, &[0xAA, 0xBB][..]));
        let mut s = r.section(7).unwrap();
        assert_eq!(s.u64("value").unwrap(), 42);
        s.finish().unwrap();
    }

    #[test]
    fn empty_container_is_valid() {
        let bytes = SnapshotWriter::new().finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(r.is_empty());
        assert!(!r.has_section(0));
    }

    #[test]
    fn bad_magic_is_corrupt_at_offset_zero() {
        let mut bytes = two_section_container();
        bytes[0] = b'X';
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Corrupt { offset: 0, .. }) => {}
            other => panic!("expected bad-magic corruption, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_corrupt() {
        let mut bytes = two_section_container();
        bytes[4] = 0xFF;
        assert!(matches!(
            SnapshotReader::parse(&bytes),
            Err(SnapshotError::Corrupt { offset: 4, .. })
        ));
    }

    #[test]
    fn every_truncation_length_is_corrupt_never_panics() {
        let bytes = two_section_container();
        for cut in 0..bytes.len() {
            match SnapshotReader::parse(&bytes[..cut]) {
                Err(SnapshotError::Corrupt { .. }) => {}
                other => panic!("truncation to {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn payload_bit_flip_fails_the_checksum() {
        let mut bytes = two_section_container();
        // First section payload starts after header (8) + id (2) + len (8).
        bytes[18] ^= 0x01;
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "reason was {reason:?}");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut bytes = two_section_container();
        bytes.push(0);
        match SnapshotReader::parse(&bytes) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("trailing"), "reason was {reason:?}");
            }
            other => panic!("expected trailing-bytes corruption, got {other:?}"),
        }
    }

    #[test]
    fn reordered_sections_are_corrupt() {
        // Build a container with ids (1, 7), then swap the section frames
        // byte-for-byte so it reads (7, 1).
        let bytes = two_section_container();
        let first = &bytes[8..8 + SECTION_OVERHEAD + 2]; // id 1, 2-byte payload
        let second = &bytes[8 + SECTION_OVERHEAD + 2..]; // id 7, 8-byte payload
        let mut swapped = bytes[..8].to_vec();
        swapped.extend_from_slice(second);
        swapped.extend_from_slice(first);
        match SnapshotReader::parse(&swapped) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("order"), "reason was {reason:?}");
            }
            other => panic!("expected out-of-order corruption, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_section_ids_rejected_by_writer_and_reader() {
        let mut w = SnapshotWriter::new();
        w.section(3, &[1]).unwrap();
        assert!(matches!(
            w.section(3, &[2]),
            Err(SnapshotError::Incompatible { .. })
        ));
    }

    #[test]
    fn missing_required_section_is_an_error() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(r.section(99), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn section_reader_reports_absolute_offsets() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(1).unwrap();
        // Payload of section 1 starts at offset 18; asking for 8 bytes out
        // of its 2 must point there.
        match s.u64("missing field") {
            Err(SnapshotError::Corrupt { offset, .. }) => assert_eq!(offset, 18),
            other => panic!("expected short-field corruption, got {other:?}"),
        }
    }

    #[test]
    fn section_trailing_bytes_are_corrupt() {
        let bytes = two_section_container();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(1).unwrap();
        let _ = s.u8("first").unwrap();
        assert!(matches!(s.finish(), Err(SnapshotError::Corrupt { .. })));
    }

    #[test]
    fn strings_and_u64_vectors_round_trip() {
        let mut payload = Vec::new();
        put_string(&mut payload, "stream-a").unwrap();
        put_u64s(&mut payload, &[1, u64::MAX, 0]);
        let mut w = SnapshotWriter::new();
        w.section(2, &payload).unwrap();
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let mut s = r.section(2).unwrap();
        assert_eq!(s.string("name").unwrap(), "stream-a");
        assert_eq!(s.u64_vec(3, "values").unwrap(), vec![1, u64::MAX, 0]);
        s.finish().unwrap();
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn display_formats_are_stable() {
        let c = SnapshotError::Corrupt {
            offset: 12,
            reason: "x",
        };
        assert_eq!(c.to_string(), "corrupt snapshot at byte 12: x");
        let u = SnapshotError::Unsupported {
            what: "exact".to_owned(),
        };
        assert_eq!(u.to_string(), "exact does not support snapshots");
    }
}
