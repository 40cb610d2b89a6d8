//! Scripted I/O fault injection — test support for the whole I/O surface.
//!
//! The robustness contract of this workspace is that *every* byte-level
//! input path (`.tsb` streams, `TSS\0` snapshots, TSP frames, serve
//! checkpoints) degrades into a typed error, never a panic or a hang. The
//! wrappers here make that testable deterministically: they wrap any
//! `Read`/`Write` and misbehave at **scripted byte offsets** — no clocks,
//! no randomness — so a test can say "fail with `Interrupted` once at byte
//! 12, then succeed" and assert the exact recovery behaviour.
//!
//! Supported faults:
//!
//! * **short reads/writes** — cap every call at `n` bytes, exercising the
//!   loops that must tolerate partial progress;
//! * **scripted errors** — return a chosen [`io::ErrorKind`] when the
//!   stream position reaches a chosen offset (each fault fires once, so
//!   retryable kinds like `Interrupted` can be followed through);
//! * **truncation** — report clean EOF (`Ok(0)`) from a chosen offset
//!   onward, the torn-file shape.
//!
//! The module lives in the library (not behind `cfg(test)`) because the
//! snapshot, frame, serve and CLI test suites in *other* crates all drive
//! it; it holds no test-only dependencies and is panic-free like the rest
//! of the crate.

use std::io::{self, Read, Write};

/// One scripted failure: when the wrapped stream's byte position reaches
/// `offset`, the next call returns an error of `kind`. Fires once.
#[derive(Debug, Clone, Copy)]
struct Fault {
    offset: u64,
    kind: io::ErrorKind,
    message: &'static str,
}

/// Shared fault schedule for [`FaultyReader`] / [`FaultyWriter`].
#[derive(Debug, Default)]
struct Script {
    /// Pending faults, kept sorted by offset; consumed front-to-back.
    faults: Vec<Fault>,
    /// Cap each call to at most this many bytes (short reads/writes).
    chunk_cap: Option<usize>,
    /// Report clean EOF (reads) / `WriteZero`-shaped stall (writes held at
    /// `Ok(0)` is illegal, so writers error) from this offset on.
    truncate_at: Option<u64>,
}

impl Script {
    fn add_fault(&mut self, offset: u64, kind: io::ErrorKind, message: &'static str) {
        self.faults.push(Fault {
            offset,
            kind,
            message,
        });
        self.faults.sort_by_key(|f| f.offset);
    }

    /// Error to raise at the current position, if any (consumes the fault).
    fn due_fault(&mut self, position: u64) -> Option<io::Error> {
        if self.faults.first().is_some_and(|f| f.offset <= position) {
            let f = self.faults.remove(0);
            return Some(io::Error::new(f.kind, f.message));
        }
        None
    }

    /// Largest transfer allowed at `position` for a caller asking for
    /// `want` bytes: respects the chunk cap and never skips past the next
    /// scripted fault or truncation boundary, so offsets stay exact.
    fn allowed(&self, position: u64, want: usize) -> usize {
        let mut len = want;
        if let Some(cap) = self.chunk_cap {
            len = len.min(cap);
        }
        let mut boundary = u64::MAX;
        if let Some(f) = self.faults.first() {
            boundary = boundary.min(f.offset);
        }
        if let Some(t) = self.truncate_at {
            boundary = boundary.min(t);
        }
        if boundary != u64::MAX && boundary > position {
            let room = boundary - position;
            if let Ok(room) = usize::try_from(room) {
                len = len.min(room);
            }
        }
        len
    }

    fn truncated(&self, position: u64) -> bool {
        self.truncate_at.is_some_and(|t| position >= t)
    }
}

/// A `Read` wrapper that injects scripted faults. See the module docs.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    position: u64,
    script: Script,
}

impl<R: Read> FaultyReader<R> {
    /// Wrap `inner` with an empty fault script (behaves transparently).
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            position: 0,
            script: Script::default(),
        }
    }

    /// Cap every `read` at `n` bytes, forcing short reads.
    #[must_use]
    pub fn short_reads(mut self, n: usize) -> Self {
        self.script.chunk_cap = Some(n.max(1));
        self
    }

    /// Fail with `kind` once the stream position reaches `offset`.
    #[must_use]
    pub fn fail_at(mut self, offset: u64, kind: io::ErrorKind) -> Self {
        self.script.add_fault(offset, kind, "injected read fault");
        self
    }

    /// Report clean EOF from `offset` onward (torn/truncated file).
    #[must_use]
    pub fn truncate_at(mut self, offset: u64) -> Self {
        self.script.truncate_at = Some(offset);
        self
    }

    /// Bytes successfully read so far.
    pub fn position(&self) -> u64 {
        self.position
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(e) = self.script.due_fault(self.position) {
            return Err(e);
        }
        if self.script.truncated(self.position) || buf.is_empty() {
            return Ok(0);
        }
        let len = self.script.allowed(self.position, buf.len());
        let n = self.inner.read(&mut buf[..len])?;
        self.position += n as u64;
        Ok(n)
    }
}

/// A `Write` wrapper that injects scripted faults. See the module docs.
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    position: u64,
    script: Script,
    flush_error: Option<io::ErrorKind>,
}

impl<W: Write> FaultyWriter<W> {
    /// Wrap `inner` with an empty fault script (behaves transparently).
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            position: 0,
            script: Script::default(),
            flush_error: None,
        }
    }

    /// Cap every `write` at `n` bytes, forcing short writes.
    #[must_use]
    pub fn short_writes(mut self, n: usize) -> Self {
        self.script.chunk_cap = Some(n.max(1));
        self
    }

    /// Fail with `kind` once the stream position reaches `offset`.
    #[must_use]
    pub fn fail_at(mut self, offset: u64, kind: io::ErrorKind) -> Self {
        self.script.add_fault(offset, kind, "injected write fault");
        self
    }

    /// Refuse all bytes from `offset` onward with [`io::ErrorKind::WriteZero`]
    /// (a full disk that stops accepting data).
    #[must_use]
    pub fn full_at(mut self, offset: u64) -> Self {
        self.script.truncate_at = Some(offset);
        self
    }

    /// Make the next `flush` fail with `kind` (fires once).
    #[must_use]
    pub fn fail_flush(mut self, kind: io::ErrorKind) -> Self {
        self.flush_error = Some(kind);
        self
    }

    /// Bytes successfully written so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Unwrap, returning the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(e) = self.script.due_fault(self.position) {
            return Err(e);
        }
        if self.script.truncated(self.position) {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected disk-full fault",
            ));
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let len = self.script.allowed(self.position, buf.len());
        let n = self.inner.write(&buf[..len])?;
        self.position += n as u64;
        Ok(n)
    }

    /// A vectored write may end anywhere in any buffer, as a socket's
    /// does: the buffers are joined and go through [`Write::write`] above,
    /// so the script caps and fails them exactly like one plain write.
    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        let joined: Vec<u8> = bufs.iter().flat_map(|buf| buf.iter().copied()).collect();
        self.write(&joined)
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(kind) = self.flush_error.take() {
            return Err(io::Error::new(kind, "injected flush fault"));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn transparent_without_faults() {
        let mut r = FaultyReader::new(Cursor::new(vec![1, 2, 3, 4]));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(r.position(), 4);
    }

    #[test]
    fn short_reads_cap_each_call_but_deliver_everything() {
        let data: Vec<u8> = (0..100).collect();
        let mut r = FaultyReader::new(Cursor::new(data.clone())).short_reads(3);
        let mut buf = [0u8; 64];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 3, "each call is capped");
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len(), 97);
    }

    #[test]
    fn fail_at_fires_exactly_once_at_the_exact_offset() {
        let data: Vec<u8> = (0..10).collect();
        let mut r = FaultyReader::new(Cursor::new(data)).fail_at(4, io::ErrorKind::Interrupted);
        let mut buf = [0u8; 10];
        // First read stops just short of the fault boundary.
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        // The fault fires at byte 4...
        let e = r.read(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        // ...and is consumed: the stream then finishes normally.
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn truncate_at_reports_clean_eof() {
        let data: Vec<u8> = (0..10).collect();
        let mut r = FaultyReader::new(Cursor::new(data)).truncate_at(6);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn writer_faults_mirror_reader_faults() {
        let mut w = FaultyWriter::new(Vec::new())
            .short_writes(2)
            .fail_at(4, io::ErrorKind::Interrupted);
        assert_eq!(w.write(&[1, 2, 3]).unwrap(), 2);
        assert_eq!(w.write(&[3, 4, 5]).unwrap(), 2);
        let e = w.write(&[5, 6]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert_eq!(w.write(&[5, 6]).unwrap(), 2);
        assert_eq!(w.into_inner(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn vectored_writes_follow_the_same_script_across_buffers() {
        let mut w = FaultyWriter::new(Vec::new())
            .short_writes(3)
            .fail_at(5, io::ErrorKind::Interrupted);
        let bufs = [io::IoSlice::new(&[1, 2]), io::IoSlice::new(&[3, 4, 5, 6])];
        assert_eq!(w.write_vectored(&bufs).unwrap(), 3, "capped across buffers");
        let rest = [io::IoSlice::new(&[4, 5, 6])];
        assert_eq!(w.write_vectored(&rest).unwrap(), 2, "stops at the fault");
        let e = w.write_vectored(&[io::IoSlice::new(&[6])]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert_eq!(w.write_vectored(&[io::IoSlice::new(&[6])]).unwrap(), 1);
        assert_eq!(w.into_inner(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn disk_full_is_a_write_zero_error() {
        let mut w = FaultyWriter::new(Vec::new()).full_at(3);
        assert_eq!(w.write(&[1, 2, 3]).unwrap(), 3);
        let e = w.write(&[4]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn flush_fault_fires_once() {
        let mut w = FaultyWriter::new(Vec::new()).fail_flush(io::ErrorKind::Other);
        w.write_all(&[1]).unwrap();
        assert!(w.flush().is_err());
        w.flush().unwrap();
    }

    #[test]
    fn write_all_survives_short_writes() {
        let mut w = FaultyWriter::new(Vec::new()).short_writes(1);
        w.write_all(&(0u8..50).collect::<Vec<_>>()).unwrap();
        assert_eq!(w.into_inner().len(), 50);
    }
}
