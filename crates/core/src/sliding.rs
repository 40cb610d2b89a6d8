//! Triangle counting over a sequence-based sliding window — §5.2 of the
//! paper (Theorem 5.8).
//!
//! The window of interest is the most recent `w` edges. Neighborhood
//! sampling adapts as follows: the level-1 edge must be uniform over the
//! *window*, which chain sampling (Babcock–Datar–Motwani) provides with an
//! expected `O(log w)` chain of fallback samples per estimator; for every
//! chain element we keep the usual level-2 state (`r₂` reservoir over its
//! neighborhood, counter `c`, closing edge), because any edge adjacent to a
//! window edge and arriving later is itself inside the window. When the
//! chain head expires, the next element — whose level-2 state has been
//! maintained all along — takes over seamlessly.

use crate::estimator::PositionedEdge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tristream_graph::Edge;
use tristream_sample::{mean, ChainEntry, ChainSampler};

/// The level-2 state attached to each chain element: the element's own edge
/// plus the reservoir over its neighborhood.
#[derive(Debug, Clone)]
struct WindowLevel2 {
    /// The sampled (level-1) edge this state belongs to.
    edge: Edge,
    /// `c = |N(edge)|` among edges seen after it (all inside the window).
    c: u64,
    /// Level-2 edge: uniform over that neighborhood.
    r2: Option<PositionedEdge>,
    /// Edge closing the wedge, if one arrived after `r2`.
    closer: Option<PositionedEdge>,
}

impl WindowLevel2 {
    fn new(edge: Edge) -> Self {
        Self {
            edge,
            c: 0,
            r2: None,
            closer: None,
        }
    }

    /// Advances this element's level-2 state with a newly arrived edge.
    fn observe(&mut self, rng: &mut SmallRng, edge: Edge, position: u64) {
        if !edge.is_adjacent(&self.edge) {
            return;
        }
        self.c += 1;
        if rng.gen_range(0..self.c) == 0 {
            self.r2 = Some(PositionedEdge::new(edge, position));
            self.closer = None;
            return;
        }
        if self.closer.is_none() {
            if let Some(r2) = self.r2 {
                if edge.closes_wedge(&self.edge, &r2.edge) {
                    self.closer = Some(PositionedEdge::new(edge, position));
                }
            }
        }
    }

    fn triangle_estimate(&self, window_edges: u64) -> f64 {
        if self.closer.is_some() {
            self.c as f64 * window_edges as f64
        } else {
            0.0
        }
    }
}

/// Streaming triangle counter restricted to the most recent `w` edges.
#[derive(Debug, Clone)]
pub struct SlidingWindowTriangleCounter {
    window: u64,
    estimators: Vec<ChainSampler<WindowLevel2>>,
    edges_seen: u64,
    rng: SmallRng,
}

impl SlidingWindowTriangleCounter {
    /// Creates a counter with `r` estimators over a window of `window` edges.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `window` is zero.
    pub fn new(r: usize, window: u64, seed: u64) -> Self {
        assert!(r > 0, "at least one estimator is required");
        assert!(window > 0, "the window must contain at least one edge");
        Self {
            window,
            estimators: (0..r).map(|_| ChainSampler::new(window)).collect(),
            edges_seen: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The window size `w`.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Number of estimators `r`.
    pub fn num_estimators(&self) -> usize {
        self.estimators.len()
    }

    /// Total number of edges observed so far (not just those in the window).
    pub fn edges_seen(&self) -> u64 {
        self.edges_seen
    }

    /// Number of edges currently inside the window.
    pub fn window_edges(&self) -> u64 {
        self.edges_seen.min(self.window)
    }

    /// Processes the next edge of the stream.
    pub fn process_edge(&mut self, edge: Edge) {
        self.edges_seen += 1;
        let position = self.edges_seen;
        for chain in &mut self.estimators {
            // First let every chained level-1 candidate update its level-2
            // state with the arriving edge...
            for entry in chain.chain_mut() {
                entry.payload.observe(&mut self.rng, edge, position);
            }
            // ...then consider the arriving edge as a level-1 candidate of
            // its own (this also expires chain elements that left the window).
            chain.observe(&mut self.rng, WindowLevel2::new(edge));
        }
    }

    /// Processes a whole slice of edges in order.
    pub fn process_edges(&mut self, edges: &[Edge]) {
        for &e in edges {
            self.process_edge(e);
        }
    }

    /// The estimated number of triangles among the most recent `w` edges.
    pub fn estimate(&self) -> f64 {
        let m_w = self.window_edges();
        if m_w == 0 {
            return 0.0;
        }
        let raw: Vec<f64> = self
            .estimators
            .iter()
            .map(|chain| {
                chain
                    .head()
                    .map(|head| head.payload.triangle_estimate(m_w))
                    .unwrap_or(0.0)
            })
            .collect();
        mean(&raw)
    }

    /// Words one chain entry (level-1 candidate plus its level-2 state)
    /// costs — the sizing unit the algorithm registry uses. Each estimator
    /// holds an expected `O(log w)` of these.
    pub fn words_per_chain_entry() -> usize {
        crate::traits::words_for_bytes(std::mem::size_of::<ChainEntry<WindowLevel2>>())
    }

    /// Average chain length across estimators — the `O(log w)` space
    /// overhead of Theorem 5.8, exposed for observability and tests.
    pub fn average_chain_length(&self) -> f64 {
        if self.estimators.is_empty() {
            return 0.0;
        }
        self.estimators
            .iter()
            .map(|c| c.chain_len() as f64)
            .sum::<f64>()
            / self.estimators.len() as f64
    }
}

impl crate::traits::TriangleEstimator for SlidingWindowTriangleCounter {
    fn process_edge(&mut self, edge: Edge) {
        SlidingWindowTriangleCounter::process_edge(self, edge);
    }

    fn process_edges(&mut self, edges: &[Edge]) {
        SlidingWindowTriangleCounter::process_edges(self, edges);
    }

    /// The estimate over the current window (Theorem 5.8), not the whole
    /// stream — callers comparing against whole-stream truth should size
    /// the window to cover the stream.
    fn estimate(&self) -> f64 {
        SlidingWindowTriangleCounter::estimate(self)
    }

    fn edges_seen(&self) -> u64 {
        SlidingWindowTriangleCounter::edges_seen(self)
    }

    /// Sum of live chain entries across estimators — the `O(r log w)`
    /// expected space of Theorem 5.8, measured, not bounded.
    fn memory_words(&self) -> usize {
        let entries: usize = self.estimators.iter().map(|c| c.chain_len()).sum();
        entries * Self::words_per_chain_entry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tristream_graph::exact::count_triangles;
    use tristream_graph::Adjacency;

    fn k_n_edges(base: u64, n: u64) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push(Edge::new(base + i, base + j));
            }
        }
        edges
    }

    #[test]
    #[should_panic]
    fn zero_window_panics() {
        let _ = SlidingWindowTriangleCounter::new(4, 0, 1);
    }

    #[test]
    #[should_panic]
    fn zero_estimators_panics() {
        let _ = SlidingWindowTriangleCounter::new(0, 10, 1);
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let c = SlidingWindowTriangleCounter::new(16, 8, 1);
        assert_eq!(c.estimate(), 0.0);
        assert_eq!(c.window_edges(), 0);
    }

    #[test]
    fn window_larger_than_stream_behaves_like_the_plain_counter() {
        let edges = k_n_edges(0, 7); // 35 triangles
        let truth = 35.0;
        let mut c = SlidingWindowTriangleCounter::new(4_000, 10_000, 3);
        c.process_edges(&edges);
        let est = c.estimate();
        assert!((est - truth).abs() < 0.2 * truth, "estimate {est}");
    }

    #[test]
    fn old_triangles_expire_out_of_the_window() {
        // Stream: a K6 (45 triangles? no — K6 has 20 triangles, 15 edges)
        // followed by 200 triangle-free path edges. With a window of 100 the
        // K6 is long gone by the end, so the estimate must drop to 0.
        let mut edges = k_n_edges(0, 6);
        for i in 0..200u64 {
            edges.push(Edge::new(1_000 + i, 1_001 + i));
        }
        let mut c = SlidingWindowTriangleCounter::new(800, 100, 5);
        c.process_edges(&edges);
        assert_eq!(c.estimate(), 0.0, "all triangles have left the window");
    }

    #[test]
    fn recent_triangles_are_counted_even_after_a_long_prefix() {
        // Long triangle-free prefix, then a K6 at the end, window covers just
        // the suffix. Truth within the window: 20 triangles.
        let mut edges = Vec::new();
        for i in 0..300u64 {
            edges.push(Edge::new(10_000 + i, 10_001 + i));
        }
        edges.extend(k_n_edges(0, 6));
        let window = 40u64;
        let mut c = SlidingWindowTriangleCounter::new(6_000, window, 7);
        c.process_edges(&edges);
        // Exact count within the window (last 40 edges = 25 path edges + K6).
        let start = edges.len() - window as usize;
        let truth = count_triangles(&Adjacency::from_edges(&edges[start..])) as f64;
        assert_eq!(truth, 20.0);
        let est = c.estimate();
        assert!(
            (est - truth).abs() < 0.35 * truth,
            "estimate {est}, truth {truth}"
        );
    }

    #[test]
    fn estimate_tracks_a_moving_window_over_phases() {
        // Phase 1: clique; Phase 2: long path. Evaluate right after phase 1
        // (high estimate) and at the end (zero).
        let clique = k_n_edges(0, 8); // 28 edges, 56 triangles
        let mut c = SlidingWindowTriangleCounter::new(3_000, 28, 11);
        c.process_edges(&clique);
        let during = c.estimate();
        assert!((during - 56.0).abs() < 0.3 * 56.0, "during {during}");
        for i in 0..100u64 {
            c.process_edge(Edge::new(500 + i, 501 + i));
        }
        assert_eq!(c.estimate(), 0.0);
    }

    #[test]
    fn window_of_one_never_holds_a_triangle() {
        // Eviction boundary: a window of a single edge can never contain a
        // triangle (it needs three), so the estimate is 0 at every step of
        // a triangle-dense stream.
        let mut c = SlidingWindowTriangleCounter::new(64, 1, 3);
        for e in k_n_edges(0, 6) {
            c.process_edge(e);
            assert_eq!(c.window_edges(), 1);
            assert_eq!(c.estimate(), 0.0, "one edge is never a triangle");
        }
        assert_eq!(c.edges_seen(), 15);
    }

    #[test]
    fn edge_exactly_at_the_window_boundary_is_evicted() {
        // The window is the most recent `w` edges: after `n` arrivals it
        // covers positions `n-w+1 ..= n`, so the edge at position `n-w` is
        // *exactly* one step outside. Build a stream whose only triangle
        // needs its first edge at position 1: a window of `n-1` must
        // estimate 0 (the triangle just broke), a window of `n` must see it.
        let mut edges = vec![Edge::new(1u64, 2u64)];
        for i in 0..30u64 {
            edges.push(Edge::new(100 + i, 101 + i)); // triangle-free filler
        }
        edges.push(Edge::new(2u64, 3u64));
        edges.push(Edge::new(1u64, 3u64));
        let n = edges.len() as u64; // 33

        let mut evicted = SlidingWindowTriangleCounter::new(4_000, n - 1, 7);
        evicted.process_edges(&edges);
        assert_eq!(
            evicted.estimate(),
            0.0,
            "the triangle's first edge sits exactly one position outside the window"
        );

        let mut kept = SlidingWindowTriangleCounter::new(4_000, n, 7);
        kept.process_edges(&edges);
        assert!(
            kept.estimate() > 0.0,
            "widening the window by one edge brings the triangle back"
        );
    }

    #[test]
    fn timestamped_tsb_replay_reproduces_the_in_memory_estimate() {
        // A `.tsb` with the timestamp column (flag bit 0, 24-byte records)
        // holding the 1-based stream position, as earlier builds wrote it
        // for sliding-window replay. Readers skip the column; replaying the
        // file must be bit-identical to feeding the in-memory stream, whose
        // positions the window counts by.
        use tristream_graph::binary::{read_edges_binary, TSB_MAGIC, TSB_VERSION};

        let mut edges = k_n_edges(0, 7);
        edges.extend((0..40u64).map(|i| Edge::new(500 + i, 501 + i)));
        let mut buf = TSB_MAGIC.to_vec();
        buf.extend_from_slice(&TSB_VERSION.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes()); // flag bit 0: timestamps
        buf.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for (i, e) in edges.iter().enumerate() {
            for word in [e.u().raw(), e.v().raw(), i as u64 + 1] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        let replayed = read_edges_binary(buf.as_slice()).unwrap();
        assert_eq!(replayed.edges(), edges.as_slice());

        let (r, w, seed) = (512, 25u64, 11);
        let mut in_memory = SlidingWindowTriangleCounter::new(r, w, seed);
        in_memory.process_edges(&edges);
        let mut from_replay = SlidingWindowTriangleCounter::new(r, w, seed);
        for (i, e) in replayed.iter().enumerate() {
            from_replay.process_edge(e);
            assert_eq!(
                from_replay.edges_seen(),
                i as u64 + 1,
                "record {i}: the window's position must be the one the column held"
            );
        }
        assert_eq!(from_replay.estimate(), in_memory.estimate());
        assert_eq!(
            from_replay.average_chain_length(),
            in_memory.average_chain_length()
        );
    }

    #[test]
    fn chain_length_stays_logarithmic() {
        let mut c = SlidingWindowTriangleCounter::new(32, 512, 13);
        for i in 0..5_000u64 {
            c.process_edge(Edge::new(i, i + 1));
        }
        let avg = c.average_chain_length();
        assert!(avg < 20.0, "average chain length {avg}");
        assert!(avg >= 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let edges = k_n_edges(0, 9);
        let mut a = SlidingWindowTriangleCounter::new(128, 20, 3);
        let mut b = SlidingWindowTriangleCounter::new(128, 20, 3);
        a.process_edges(&edges);
        b.process_edges(&edges);
        assert_eq!(a.estimate(), b.estimate());
    }
}
