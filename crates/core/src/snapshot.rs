//! Estimator snapshot layout — what this crate's estimators put *inside*
//! the generic `TSS\0` container of [`tristream_graph::snapshot`].
//!
//! The container handles framing (magic, version, length-prefixed
//! sections, per-section checksums, trailing-byte detection); this module
//! pins the section ids and payload layouts so that every writer and
//! reader in the crate agrees byte-for-byte, and so tests can construct
//! corrupt-but-well-framed snapshots deliberately.
//!
//! # Layout
//!
//! Every estimator snapshot opens with a [`SEC_META`] section whose first
//! byte is a *kind* tag:
//!
//! * [`KIND_BULK`] — [`crate::BulkTriangleCounter`]. Sections:
//!   * `SEC_META`: kind `u8`, `r u64`, construction seed `u64`,
//!     `edges_seen u64`, aggregation tag `u8` (0 mean, 1 median-of-means)
//!     plus group count `u64`, and a level-1 tag `u8`. Writers always
//!     put 1, the §4 geometric-skip walk, the only Step-1 walk left.
//!     Readers accept 0 as well: snapshots from builds that still had a
//!     per-estimator walk, which `neighborhood-bulk` used, carry it. The
//!     tag never described saved state, only how later batches draw, so a
//!     tag-0 and a tag-1 snapshot of the same state restore to the same
//!     counter. Any other value is [`SnapshotError::Incompatible`].
//!   * [`SEC_COLUMNS`]: the ten pool columns, `10 × r` little-endian
//!     `u64`s in [`crate::pool::EstimatorPool`] declaration order.
//!   * [`SEC_BITSETS`]: the three presence bitsets (`r1`, `r2`, `closer`),
//!     each `⌈r/64⌉` words.
//!   * [`SEC_RNG`]: xoshiro256++ state (4 words), consume cursor (1 word),
//!     then the full 256-word refill buffer.
//! * [`KIND_SHARDED`] — [`crate::ShardedEstimator`]. Sections:
//!   * `SEC_META`: kind `u8`, shard count `u64`, `edges_seen u64`.
//!   * [`SEC_SHARD_BASE`]` + i`: shard `i`'s own complete snapshot
//!     container, nested verbatim (checksummed twice: once by the shard's
//!     own sections, once by the enclosing section).
//!
//! # Merge semantics
//!
//! Neighborhood-sampling shards are independent estimators over the *same*
//! stream whose estimates combine by averaging (`ShardedEstimator`'s
//! estimate is the shard mean). `N` single-process counters seeded
//! `shard_seed(seed, i)` and fed identical batches are therefore exactly
//! the shards of one `N`-shard run — so merging their snapshots
//! ([`crate::ShardedEstimator::merge_shard_snapshots`]) reproduces the
//! single-process `N`-shard estimate bit-for-bit. That contract (and the
//! corruption behaviour) is pinned by `tests/snapshot_roundtrip.rs`.

pub use tristream_graph::snapshot::SnapshotError;
use tristream_graph::snapshot::SnapshotReader;

/// Section id of the metadata section every estimator snapshot opens with.
pub const SEC_META: u16 = 1;
/// Section id of the bulk counter's pool columns.
pub const SEC_COLUMNS: u16 = 2;
/// Section id of the bulk counter's presence bitsets.
pub const SEC_BITSETS: u16 = 3;
/// Section id of the bulk counter's RNG state.
pub const SEC_RNG: u16 = 4;
/// Shard `i` of a sharded snapshot lives in section `SEC_SHARD_BASE + i`.
pub const SEC_SHARD_BASE: u16 = 16;

/// Kind tag: a sequential [`crate::BulkTriangleCounter`].
pub const KIND_BULK: u8 = 1;
/// Kind tag: a [`crate::ShardedEstimator`] wrapping per-shard snapshots.
pub const KIND_SHARDED: u8 = 2;

/// Decode just the kind tag of an estimator snapshot (validating the whole
/// container in the process — checksums included).
pub fn peek_kind(bytes: &[u8]) -> Result<u8, SnapshotError> {
    let reader = SnapshotReader::parse(bytes)?;
    let mut meta = reader.section(SEC_META)?;
    meta.u8("snapshot kind tag")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BulkTriangleCounter;

    #[test]
    fn peek_kind_reads_the_meta_tag() {
        let counter = BulkTriangleCounter::new(8, 42);
        let bytes = counter.to_snapshot().expect("snapshot");
        assert_eq!(peek_kind(&bytes).expect("peek"), KIND_BULK);
    }

    #[test]
    fn peek_kind_rejects_garbage() {
        assert!(matches!(
            peek_kind(b"not a snapshot"),
            Err(SnapshotError::Corrupt { .. })
        ));
    }
}
