//! Social-network analysis on a calibrated dataset stand-in: the scenario
//! the paper's introduction motivates (transitivity / clustering structure
//! of a large social graph, computed in one streaming pass).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example social_network_analysis
//! ```

use std::time::Instant;
use tristream::core::theory;
use tristream::prelude::*;

fn main() {
    // A DBLP-like collaboration network (scaled down so the example runs in
    // seconds; see README.md § Datasets for the stand-in rationale).
    let stand_in = StandIn::generate_scaled(DatasetKind::Dblp, 32, 2024);
    let stream = &stand_in.stream;
    println!(
        "dataset stand-in: {} (1/{} scale), {} edges",
        stand_in.kind.spec().name,
        stand_in.scale_denominator,
        stream.len()
    );

    // Exact ground truth for reference (an offline pass a production system
    // would not be able to afford on the full graph).
    let summary = GraphSummary::of_stream(stream);
    println!("exact:          {}", summary.one_line());

    // Streaming pass: triangle count + transitivity, r sized by the theory.
    let r = theory::sufficient_estimators_mean(
        0.25,
        0.2,
        summary.edges,
        summary.max_degree,
        summary.triangles,
    );
    let r = r.clamp(1_024.0, 200_000.0) as usize;
    println!("estimator pool sized by Theorem 3.3 (eps=0.25, delta=0.2): r = {r}");

    let start = Instant::now();
    let mut counter = BulkTriangleCounter::new(r, 7);
    counter.process_stream(stream.edges(), 8 * r);
    let elapsed = start.elapsed();
    let tau_hat = counter.estimate();
    println!(
        "streaming estimate: tau-hat = {:.0} (truth {}, error {:.2}%), {:.2} s, {:.2} M edges/s",
        tau_hat,
        summary.triangles,
        100.0 * (tau_hat - summary.triangles as f64).abs() / summary.triangles as f64,
        elapsed.as_secs_f64(),
        stream.len() as f64 / elapsed.as_secs_f64() / 1.0e6
    );

    let mut transitivity = TransitivityEstimator::new(r.min(50_000), 13);
    transitivity.process_edges(stream.edges());
    println!(
        "friend-of-a-friend-is-a-friend rate: kappa-hat = {:.4} (exact {:.4})",
        transitivity.estimate(),
        summary.transitivity
    );

    // The quantity the paper argues drives accuracy.
    println!(
        "accuracy predictor m*Delta/tau = {:.1}; tangle-aware bound would need gamma (see core::theory)",
        summary.m_delta_over_tau
    );
}
