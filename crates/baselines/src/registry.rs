//! The algorithm registry: every streaming triangle counter in the
//! workspace — the paper's own estimators and the prior-work baselines —
//! behind one name-indexed table of [`AlgoSpec`]s.
//!
//! The registry is what makes the layers above algorithm-generic:
//! `tristream-cli count` resolves its `--algo` flag here (`neighborhood-bulk`
//! when absent), the bench suite's equal-memory `accuracy-<algo>` workload
//! family iterates over [`registry()`], and the serve daemon builds every
//! CREATEd stream here. Every estimator those layers run comes from
//! [`AlgoSpec::build`] or, sharded, [`AlgoSpec::build_sharded`] — the one
//! sharded recipe. Each spec carries:
//!
//! * a stable **name** (the CLI flag value and the BENCH.json `algo` field),
//! * what its **space parameter** means (`r` estimators, `N` colors, …),
//! * a **constructor** returning `Box<dyn TriangleEstimator + Send>`, and
//! * a **budget heuristic** mapping a [`memory_words`] budget to a space
//!   parameter, so equal-space head-to-heads can be set up by construction
//!   and then verified by measurement.
//!
//! [`memory_words`]: TriangleEstimator::memory_words

use crate::{BuriolCounter, ColorfulTriangleCounter, ExactStreamingCounter, JowhariGhodsiCounter};
use tristream_core::{
    BulkTriangleCounter, ShardedEstimator, SlidingWindowTriangleCounter, TriangleCounter,
    TriangleEstimator,
};

/// Window size used for `sliding` when the caller does not supply one:
/// large enough that whole-file counts behave like the plain counter.
pub const DEFAULT_SLIDING_WINDOW: u64 = 1 << 20;

/// Runtime parameters handed to a registry constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoParams {
    /// The algorithm's space parameter: estimator count `r` for the
    /// sampling algorithms, color count `N` for `pagh-tsourakakis`;
    /// ignored by `exact`. Clamped to at least 1 by every constructor.
    pub space: usize,
    /// RNG seed (ignored by the deterministic `exact`).
    pub seed: u64,
    /// Sliding-window size for `sliding` ([`DEFAULT_SLIDING_WINDOW`] when
    /// `None`); ignored by every other algorithm.
    pub window: Option<u64>,
}

impl AlgoParams {
    /// Parameters with the given space and seed and no window override.
    pub fn new(space: usize, seed: u64) -> Self {
        Self {
            space,
            seed,
            window: None,
        }
    }
}

/// What the budget heuristic may assume about the stream it is sizing for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHint {
    /// Expected number of stream edges `m`.
    pub edges: u64,
    /// Expected number of distinct vertices `n`.
    pub vertices: u64,
}

/// One registered algorithm: name, provenance, space-parameter semantics,
/// constructor and budget heuristic.
pub struct AlgoSpec {
    /// Stable identifier: the `--algo` flag value and the BENCH.json
    /// `algo` field.
    pub name: &'static str,
    /// What [`AlgoParams::space`] means for this algorithm.
    pub space_param: &'static str,
    /// The published source the implementation follows.
    pub reference: &'static str,
    /// Space parameter used when the caller does not pick one.
    pub default_space: usize,
    /// Whether [`AlgoParams::space`] is a *pool size* that
    /// [`build_sharded`](Self::build_sharded) splits across shards
    /// (`ceil(space / shards)` per shard, keeping total space roughly
    /// constant), as opposed to a per-instance parameter — like
    /// `pagh-tsourakakis`' color count — every shard needs in full.
    pub splits_across_shards: bool,
    /// Whether the built estimator implements
    /// [`TriangleEstimator::snapshot`]/`restore` (the `TSS\0` checkpoint
    /// container). Layers that persist state — `serve --state-dir`, the
    /// CLI `checkpoint` path — consult this flag *before* building so they
    /// can refuse unsupported configurations with a typed error instead of
    /// silently skipping streams; a registry test pins it to what the
    /// constructed estimator actually reports.
    pub snapshotable: bool,
    build: fn(&AlgoParams) -> Box<dyn TriangleEstimator + Send>,
    space_for_budget: fn(usize, &StreamHint) -> usize,
}

impl std::fmt::Debug for AlgoSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgoSpec")
            .field("name", &self.name)
            .field("space_param", &self.space_param)
            .field("default_space", &self.default_space)
            .finish_non_exhaustive()
    }
}

impl AlgoSpec {
    /// Constructs a fresh estimator with the given parameters.
    pub fn build(&self, params: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
        (self.build)(params)
    }

    /// The sharded recipe every entry point shares — `count --parallel`
    /// (with or without `--algo`), a served stream's CREATE, and the
    /// offline twins the parity tests compare against: `shards`
    /// estimators built by [`build`](Self::build) on persistent worker
    /// threads. A pool-type space parameter
    /// ([`splits_across_shards`](Self::splits_across_shards)) is split
    /// `ceil(space / shards)` per shard; any other goes to every shard
    /// whole. Shard `i` is seeded `shard_seed(params.seed, i)` by
    /// [`ShardedEstimator::from_factory`], so one shard is bit-identical
    /// to `build(params)` fed the same batches.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build_sharded(
        &self,
        params: &AlgoParams,
        shards: usize,
    ) -> ShardedEstimator<Box<dyn TriangleEstimator + Send>> {
        let space = if self.splits_across_shards {
            params.space.div_ceil(shards)
        } else {
            params.space
        };
        ShardedEstimator::from_factory(shards, params.seed, |seed| {
            self.build(&AlgoParams {
                space,
                seed,
                ..*params
            })
        })
    }

    /// The space parameter expected to land near `budget_words` of
    /// [`TriangleEstimator::memory_words`] on a stream shaped like `hint`.
    ///
    /// For fixed-size-state algorithms the mapping is exact; for
    /// data-dependent ones (`jowhari-ghodsi`, `sliding`,
    /// `pagh-tsourakakis`, `buriol`'s vertex reservoir) it is a documented
    /// expectation — callers that need the truth measure `memory_words()`
    /// after the run, which is what the bench suite records.
    pub fn space_for_budget(&self, budget_words: usize, hint: &StreamHint) -> usize {
        (self.space_for_budget)(budget_words, hint).max(1)
    }
}

fn build_neighborhood(p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    Box::new(TriangleCounter::new(p.space.max(1), p.seed))
}

/// `neighborhood-bulk`: the SoA-pooled batch counter. Its hot path reads
/// and writes the ten SoA columns and three presence bitsets in place,
/// with no shadow state and no padding, so [`budget_neighborhood_bulk`]'s
/// sizing matches the measured `memory_words()`.
fn build_neighborhood_bulk(p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    Box::new(BulkTriangleCounter::new(p.space.max(1), p.seed))
}

fn build_sliding(p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    let window = p.window.unwrap_or(DEFAULT_SLIDING_WINDOW).max(1);
    Box::new(SlidingWindowTriangleCounter::new(
        p.space.max(1),
        window,
        p.seed,
    ))
}

fn build_exact(_p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    Box::new(ExactStreamingCounter::new())
}

fn build_buriol(p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    Box::new(BuriolCounter::new(p.space.max(1), p.seed))
}

fn build_jowhari_ghodsi(p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    Box::new(JowhariGhodsiCounter::new(p.space.max(1), p.seed))
}

fn build_pagh_tsourakakis(p: &AlgoParams) -> Box<dyn TriangleEstimator + Send> {
    Box::new(ColorfulTriangleCounter::new(
        (p.space as u64).max(1),
        p.seed,
    ))
}

fn budget_neighborhood(budget: usize, _hint: &StreamHint) -> usize {
    budget / TriangleCounter::words_per_estimator()
}

fn budget_neighborhood_bulk(budget: usize, _hint: &StreamHint) -> usize {
    // The pooled bulk counter stores estimators as SoA columns (10 words
    // each, plus 3 presence bits amortised across the pool) — cheaper per
    // estimator than the scalar `EstimatorState`, so the same budget buys a
    // larger pool. The bitset overhead (3 words per 64 estimators) is part
    // of the measured `memory_words()`, so it must be part of the sizing
    // too or the pool would land just over the budget it claims to meet.
    let words_per_64 = 64 * BulkTriangleCounter::words_per_estimator() + 3;
    budget.saturating_mul(64) / words_per_64
}

fn budget_sliding(budget: usize, hint: &StreamHint) -> usize {
    // Each estimator holds an expected ~ln(w) chain entries; for
    // whole-stream windows w ≈ m.
    let expected_chain = (hint.edges.max(2) as f64).ln().ceil() as usize;
    budget / (expected_chain.max(1) * SlidingWindowTriangleCounter::words_per_chain_entry())
}

fn budget_exact(_budget: usize, _hint: &StreamHint) -> usize {
    1 // no space parameter: the exact counter always keeps everything
}

fn budget_buriol(budget: usize, hint: &StreamHint) -> usize {
    // The discovered-vertex reservoir costs ~n words before any estimator
    // does; the remainder buys fixed-size estimators.
    let after_vertices = budget.saturating_sub(hint.vertices as usize);
    after_vertices / BuriolCounter::words_per_estimator()
}

fn budget_jowhari_ghodsi(budget: usize, hint: &StreamHint) -> usize {
    // Apex entries accrue only from edges arriving *after* the uniformly
    // reservoir-sampled edge — half the stream in expectation — so the
    // expected entries per estimator are ≈ |N(e)|/2 ≈ average degree
    // (2m/n), at 2 words per entry.
    let avg_degree = (2 * hint.edges / hint.vertices.max(1)).max(1) as usize;
    let expected_entry_words = avg_degree * 2;
    budget / (JowhariGhodsiCounter::words_per_estimator() + expected_entry_words)
}

fn budget_pagh_tsourakakis(budget: usize, hint: &StreamHint) -> usize {
    // Expected resident words ≈ 3·m/N (two set entries per kept edge plus
    // keys); solve for the color count N.
    (3 * hint.edges as usize).div_ceil(budget.max(1))
}

static REGISTRY: [AlgoSpec; 7] = [
    AlgoSpec {
        name: "neighborhood",
        space_param: "estimators (r)",
        reference: "Pavan et al., VLDB 2013, §3.1–3.2 (Algorithm 1)",
        default_space: 100_000,
        splits_across_shards: true,
        snapshotable: false,
        build: build_neighborhood,
        space_for_budget: budget_neighborhood,
    },
    AlgoSpec {
        name: "neighborhood-bulk",
        space_param: "estimators (r)",
        reference: "Pavan et al., VLDB 2013, §3.3 (Theorem 3.5)",
        default_space: 100_000,
        splits_across_shards: true,
        snapshotable: true,
        build: build_neighborhood_bulk,
        space_for_budget: budget_neighborhood_bulk,
    },
    AlgoSpec {
        name: "sliding",
        space_param: "estimators (r)",
        reference: "Pavan et al., VLDB 2013, §5.2 (Theorem 5.8)",
        default_space: 20_000,
        splits_across_shards: true,
        snapshotable: false,
        build: build_sliding,
        space_for_budget: budget_sliding,
    },
    AlgoSpec {
        name: "exact",
        space_param: "(none — keeps the full adjacency)",
        reference: "folklore exact streaming count (ground truth)",
        default_space: 1,
        splits_across_shards: false,
        snapshotable: false,
        build: build_exact,
        space_for_budget: budget_exact,
    },
    AlgoSpec {
        name: "buriol",
        space_param: "estimators (r)",
        reference: "Buriol et al., PODS 2006",
        default_space: 100_000,
        splits_across_shards: true,
        snapshotable: false,
        build: build_buriol,
        space_for_budget: budget_buriol,
    },
    AlgoSpec {
        name: "jowhari-ghodsi",
        space_param: "estimators (r)",
        reference: "Jowhari & Ghodsi, COCOON 2005",
        default_space: 10_000,
        splits_across_shards: true,
        snapshotable: false,
        build: build_jowhari_ghodsi,
        space_for_budget: budget_jowhari_ghodsi,
    },
    AlgoSpec {
        name: "pagh-tsourakakis",
        space_param: "colors (N)",
        reference: "Pagh & Tsourakakis, IPL 2012",
        default_space: 8,
        splits_across_shards: false,
        snapshotable: false,
        build: build_pagh_tsourakakis,
        space_for_budget: budget_pagh_tsourakakis,
    },
];

/// Every registered algorithm, in presentation order (the paper's
/// algorithms first, then the baselines).
pub fn registry() -> &'static [AlgoSpec] {
    &REGISTRY
}

/// Looks up an algorithm by its stable name.
pub fn find_algo(name: &str) -> Option<&'static AlgoSpec> {
    REGISTRY.iter().find(|spec| spec.name == name)
}

/// The registered names, in registry order.
pub fn algo_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|spec| spec.name).collect()
}

/// The registered names as one comma-separated string — the list every
/// `--algo` usage error must show.
pub fn algo_names_joined() -> String {
    algo_names().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tristream_graph::Edge;

    #[test]
    fn names_are_unique_and_lookup_round_trips() {
        let mut names = algo_names();
        assert!(names.len() >= 6, "the head-to-head needs ≥6 algorithms");
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "registry names must be unique");
        for spec in registry() {
            assert!(std::ptr::eq(find_algo(spec.name).unwrap(), spec));
            assert!(spec.default_space > 0);
            assert!(!spec.reference.is_empty());
        }
        assert!(find_algo("nope").is_none());
        assert!(algo_names_joined().contains("pagh-tsourakakis"));
    }

    /// Satellite regression: every registry algorithm must report a finite
    /// `0.0` estimate before any edge has arrived — never NaN/∞ from a
    /// `0/0` scaling term.
    #[test]
    fn every_algorithm_estimates_finite_zero_on_an_empty_stream() {
        for spec in registry() {
            let est = spec.build(&AlgoParams::new(16, 3));
            assert_eq!(est.edges_seen(), 0, "{}", spec.name);
            let estimate = est.estimate();
            assert!(
                estimate.is_finite(),
                "{}: empty-stream estimate must be finite, got {estimate}",
                spec.name
            );
            assert_eq!(estimate, 0.0, "{}", spec.name);
        }
    }

    /// Satellite: trait-object dispatch must not change results — for every
    /// algorithm, a `Box<dyn TriangleEstimator>` and the concrete type
    /// produce bit-identical same-seed estimates on the same stream.
    #[test]
    fn boxed_dispatch_is_bit_identical_to_the_concrete_type() {
        let stream = tristream_gen::planted_triangles(20, 60, 5);
        let (space, seed) = (64usize, 11u64);
        for spec in registry() {
            let mut boxed = spec.build(&AlgoParams::new(space, seed));
            let boxed_estimate = {
                for chunk in stream.edges().chunks(16) {
                    boxed.process_edges(chunk);
                }
                boxed.estimate()
            };
            // The same algorithm as its concrete type, same seed, same
            // chunk boundaries, invoked through the trait methods directly.
            fn run_concrete<T: TriangleEstimator>(
                mut counter: T,
                stream: &tristream_graph::EdgeStream,
            ) -> f64 {
                for chunk in stream.edges().chunks(16) {
                    counter.process_edges(chunk);
                }
                counter.estimate()
            }
            let concrete_estimate = match spec.name {
                "neighborhood" => run_concrete(TriangleCounter::new(space, seed), &stream),
                "neighborhood-bulk" => run_concrete(BulkTriangleCounter::new(space, seed), &stream),
                "sliding" => run_concrete(
                    SlidingWindowTriangleCounter::new(space, DEFAULT_SLIDING_WINDOW, seed),
                    &stream,
                ),
                "exact" => run_concrete(ExactStreamingCounter::new(), &stream),
                "buriol" => run_concrete(BuriolCounter::new(space, seed), &stream),
                "jowhari-ghodsi" => run_concrete(JowhariGhodsiCounter::new(space, seed), &stream),
                "pagh-tsourakakis" => {
                    run_concrete(ColorfulTriangleCounter::new(space as u64, seed), &stream)
                }
                other => panic!("no concrete counterpart wired for {other}"),
            };
            assert_eq!(
                boxed_estimate.to_bits(),
                concrete_estimate.to_bits(),
                "{}: boxed vs concrete estimates must be bit-identical",
                spec.name
            );
            assert_eq!(boxed.edges_seen(), stream.len() as u64, "{}", spec.name);
        }
    }

    /// The `snapshotable` capability flag is a promise about the built
    /// estimator; it must agree with what the estimator itself reports, in
    /// both directions, or `serve --state-dir` would either refuse a
    /// checkpointable algorithm or silently skip one it accepted.
    #[test]
    fn snapshotable_flags_match_what_built_estimators_report() {
        for spec in registry() {
            let est = spec.build(&AlgoParams::new(16, 3));
            assert_eq!(
                est.supports_snapshot(),
                spec.snapshotable,
                "{}: registry flag disagrees with the estimator",
                spec.name
            );
            if spec.snapshotable {
                assert!(est.snapshot().is_ok(), "{}", spec.name);
            } else {
                assert!(est.snapshot().is_err(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn memory_accounting_is_live_after_processing() {
        let stream = tristream_gen::planted_triangles(20, 60, 5);
        for spec in registry() {
            let mut est = spec.build(&AlgoParams::new(32, 7));
            est.process_edges(stream.edges());
            assert!(
                est.memory_words() > 0,
                "{}: processed state must occupy words",
                spec.name
            );
        }
    }

    #[test]
    fn budget_heuristics_land_within_a_small_factor_of_the_budget() {
        // The heuristic is an expectation, not a guarantee; measured
        // residency after a real stream must still be the right order of
        // magnitude (the bench suite records the measured value).
        let stream = tristream_gen::triangle_rich_three_regular(2_000, 3);
        let hint = StreamHint {
            edges: stream.len() as u64,
            vertices: 2_000,
        };
        let budget = 8_192usize;
        for spec in registry() {
            if spec.name == "exact" {
                continue; // no space knob: exact always keeps O(m)
            }
            let space = spec.space_for_budget(budget, &hint);
            assert!(space >= 1, "{}", spec.name);
            let mut est = spec.build(&AlgoParams {
                space,
                seed: 3,
                window: Some(hint.edges),
            });
            est.process_edges(stream.edges());
            let words = est.memory_words();
            assert!(
                words >= budget / 8 && words <= budget * 4,
                "{}: measured {words} words for a {budget}-word budget",
                spec.name
            );
        }
    }

    #[test]
    fn neighborhood_bulk_sizing_never_exceeds_the_budget_it_claims_to_meet() {
        // The pooled counter's state is fixed-size, so its heuristic is
        // exact, not an expectation: the measured residency must land AT or
        // under the budget (bitset overhead included), never just over.
        let spec = find_algo("neighborhood-bulk").unwrap();
        let hint = StreamHint {
            edges: 3_000,
            vertices: 2_000,
        };
        for budget in [64usize, 1_000, 4_096, 8_192, 65_536] {
            let space = spec.space_for_budget(budget, &hint);
            let est = spec.build(&AlgoParams::new(space, 1));
            let words = est.memory_words();
            assert!(
                words <= budget,
                "budget {budget}: r = {space} measures {words} words"
            );
            // And the sizing is tight: one more whole estimator would not fit
            // (except at tiny budgets where the r >= 1 floor dominates).
            if space > 1 {
                let bigger = spec.build(&AlgoParams::new(space + 1, 1));
                assert!(
                    bigger.memory_words() > budget,
                    "budget {budget}: sizing left room for r = {}",
                    space + 1
                );
            }
        }
    }

    #[test]
    fn build_sharded_splits_pool_sizes_across_shards() {
        // Pool-type spaces split `ceil(space / shards)` per shard (34 over
        // 3 shards is 12 each); per-instance spaces, like the colors of
        // `pagh-tsourakakis`, go to every shard whole. The recipe spelled
        // out by hand — split, window and `from_factory`'s shard seeds —
        // must give the same bits as `build_sharded` for every algorithm.
        let stream = tristream_gen::planted_triangles(20, 60, 5);
        let params = AlgoParams {
            space: 34,
            seed: 4,
            window: Some(50),
        };
        for spec in registry() {
            let mut sharded = spec.build_sharded(&params, 3);
            let space = if spec.splits_across_shards { 12 } else { 34 };
            let mut by_hand = ShardedEstimator::from_factory(3, 4, |seed| {
                spec.build(&AlgoParams {
                    space,
                    seed,
                    ..params
                })
            });
            for batch in stream.batches(16) {
                sharded.process_batch(batch);
                by_hand.process_batch(batch);
            }
            assert_eq!(sharded.num_shards(), 3, "{}", spec.name);
            let bits = |s: &ShardedEstimator<_>| -> Vec<u64> {
                s.shard_estimates().iter().map(|e| e.to_bits()).collect()
            };
            assert_eq!(bits(&sharded), bits(&by_hand), "{}", spec.name);
            assert_eq!(
                sharded.memory_words(),
                by_hand.memory_words(),
                "{}",
                spec.name
            );
        }
        assert!(!find_algo("pagh-tsourakakis").unwrap().splits_across_shards);
        // The pool really is split: r = 1,000 over 4 shards costs the words
        // of 4 pools of 250, not 4 of 1,000.
        let bulk = find_algo("neighborhood-bulk").unwrap();
        assert_eq!(
            bulk.build_sharded(&AlgoParams::new(1_000, 1), 4)
                .memory_words(),
            4 * bulk.build(&AlgoParams::new(250, 1)).memory_words()
        );
    }

    #[test]
    fn edge_at_a_time_default_matches_slice_processing_for_single_edge_algos() {
        // For the one-at-a-time algorithms the trait's default
        // `process_edges` and explicit per-edge calls must agree exactly.
        let edges: Vec<Edge> = (0..30u64)
            .flat_map(|i| {
                [
                    Edge::new(3 * i, 3 * i + 1),
                    Edge::new(3 * i + 1, 3 * i + 2),
                    Edge::new(3 * i, 3 * i + 2),
                ]
            })
            .collect();
        for name in [
            "neighborhood",
            "buriol",
            "jowhari-ghodsi",
            "pagh-tsourakakis",
            "exact",
        ] {
            let spec = find_algo(name).unwrap();
            let mut by_slice = spec.build(&AlgoParams::new(32, 9));
            by_slice.process_edges(&edges);
            let mut by_edge = spec.build(&AlgoParams::new(32, 9));
            for &e in &edges {
                by_edge.process_edge(e);
            }
            assert_eq!(
                by_slice.estimate().to_bits(),
                by_edge.estimate().to_bits(),
                "{name}"
            );
        }
    }
}
