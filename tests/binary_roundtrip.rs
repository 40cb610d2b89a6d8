//! Property-based tests for the `.tsb` binary edge-stream codec: random
//! streams must round-trip bit-identically through every reader (whole and
//! batched), streams with the timestamp column of earlier builds must
//! decode to the same edges, and random corruption must surface as a
//! `GraphError`, never a panic.

use proptest::prelude::*;
use tristream::graph::binary::{
    read_edges_binary, read_edges_binary_batched, write_edges_binary, TSB_MAGIC, TSB_VERSION,
};
use tristream::graph::GraphError;
use tristream::prelude::*;

/// Strategy: a random edge stream (duplicates allowed, as in a real
/// stream) over a wide vertex-id range, including huge ids near `u64::MAX`.
fn random_edges(max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Edge::new(a, b))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_streams_round_trip_bit_identically(edges in random_edges(200)) {
        let mut buf = Vec::new();
        write_edges_binary(&edges, &mut buf).unwrap();
        let reread = read_edges_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(reread.edges(), edges.as_slice());
        // Encoding the decoded stream reproduces the exact bytes.
        let mut again = Vec::new();
        write_edges_binary(reread.edges(), &mut again).unwrap();
        prop_assert_eq!(again, buf);
    }

    #[test]
    fn random_timestamped_streams_round_trip(
        edges in random_edges(120),
        ts_seed in 0u64..u64::MAX,
        batch_size in 1usize..64,
    ) {
        // A stream with the timestamp column (flag bit 0, 24-byte records),
        // as earlier builds wrote it, holding arbitrary (not even monotone)
        // timestamps: every reader skips the column and yields the edges.
        let mut buf = TSB_MAGIC.to_vec();
        buf.extend_from_slice(&TSB_VERSION.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for (i, e) in edges.iter().enumerate() {
            let ts = ts_seed.wrapping_mul(i as u64 + 1);
            for word in [e.u().raw(), e.v().raw(), ts] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        let reread = read_edges_binary(buf.as_slice()).unwrap();
        prop_assert_eq!(reread.edges(), edges.as_slice());
        let flat: Vec<Edge> = read_edges_binary_batched(buf.as_slice(), batch_size)
            .unwrap()
            .collect::<Result<Vec<Vec<Edge>>, _>>()
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        prop_assert_eq!(flat, edges);
    }

    #[test]
    fn batched_reads_cover_random_streams_for_any_batch_size(
        edges in random_edges(150),
        batch_size in 1usize..64,
    ) {
        let mut buf = Vec::new();
        write_edges_binary(&edges, &mut buf).unwrap();
        let batches: Vec<Vec<Edge>> = read_edges_binary_batched(buf.as_slice(), batch_size)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        for batch in &batches {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= batch_size);
        }
        let flat: Vec<Edge> = batches.into_iter().flatten().collect();
        prop_assert_eq!(flat, edges);
    }

    #[test]
    fn truncation_anywhere_errors_instead_of_panicking(
        edges in random_edges(60),
        cut_permille in 0usize..1000,
    ) {
        let mut buf = Vec::new();
        write_edges_binary(&edges, &mut buf).unwrap();
        let cut = buf.len() * cut_permille / 1000;
        if cut < buf.len() {
            let result = read_edges_binary(&buf[..cut]);
            prop_assert!(
                matches!(result, Err(GraphError::Binary { .. })),
                "truncation to {cut} bytes must be a binary-format error"
            );
        }
    }

    #[test]
    fn appended_garbage_errors_instead_of_being_decoded(
        edges in random_edges(60),
        garbage in prop::collection::vec(0u8..=255, 1..40),
    ) {
        let mut buf = Vec::new();
        write_edges_binary(&edges, &mut buf).unwrap();
        buf.extend_from_slice(&garbage);
        prop_assert!(matches!(
            read_edges_binary(buf.as_slice()),
            Err(GraphError::Binary { .. })
        ));
    }
}
