//! The input cache: each stand-in stream is generated once per
//! (dataset, scale, seed), written as `.tsb` next to its exact statistics,
//! and reused by later runs. Generation never falls inside a timing.

use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use tristream_gen::{DatasetKind, StandIn};
use tristream_graph::binary::{read_edges_binary_file, write_edges_binary};
use tristream_graph::{Edge, GraphSummary};

/// Where cached inputs live, relative to the working directory.
pub const CACHE_DIR: &str = ".bench_cache";

/// A stand-in dataset at a fixed scale-down denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataset {
    /// Which paper dataset the stream stands in for.
    pub kind: DatasetKind,
    /// Vertex-count scale-down denominator.
    pub scale: u64,
}

/// Exact statistics of a cached stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputStats {
    /// Vertices.
    pub n: u64,
    /// Edges in the stream.
    pub m: u64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Exact triangle count.
    pub triangles: u64,
}

/// A cached input: the `.tsb` file, its edges in stream order, and its
/// statistics.
#[derive(Debug)]
pub struct Input {
    /// The dataset and scale.
    pub dataset: Dataset,
    /// The seed it was generated from.
    pub seed: u64,
    /// The `.tsb` file the program under test reads.
    pub path: PathBuf,
    /// The same edges, in stream order.
    pub edges: Vec<Edge>,
    /// Exact n, m, Δ and τ.
    pub stats: InputStats,
}

impl fmt::Display for Input {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats;
        write!(
            f,
            "{} 1/{} seed {}: n={} m={} max_degree={} triangles={} ({})",
            self.dataset.kind.slug(),
            self.dataset.scale,
            self.seed,
            s.n,
            s.m,
            s.max_degree,
            s.triangles,
            self.path.display()
        )
    }
}

fn stem(dataset: Dataset, seed: u64) -> String {
    format!("{}-1of{}-seed{seed}", dataset.kind.slug(), dataset.scale)
}

/// Writes a file through a temporary sibling and a rename, so a killed run
/// never leaves a truncated cache entry behind.
fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = PathBuf::from(format!("{}.{}.tmp", path.display(), std::process::id()));
    let mut out = BufWriter::new(fs::File::create(&tmp)?);
    write(&mut out)?;
    out.flush()?;
    drop(out);
    fs::rename(&tmp, path)
}

fn parse_stats(text: &str) -> Option<InputStats> {
    let mut fields = text.split_whitespace().map(|t| t.parse::<u64>().ok());
    Some(InputStats {
        n: fields.next()??,
        m: fields.next()??,
        max_degree: fields.next()??,
        triangles: fields.next()??,
    })
}

/// Loads the cached input for `(dataset, seed)`, generating it first if
/// the cache has no complete entry.
pub fn load(dataset: Dataset, seed: u64) -> Result<Input, String> {
    fs::create_dir_all(CACHE_DIR).map_err(|e| format!("creating {CACHE_DIR}: {e}"))?;
    let base = Path::new(CACHE_DIR).join(stem(dataset, seed));
    let path = base.with_extension("tsb");
    let stats_path = base.with_extension("stats");
    let cached = fs::read_to_string(&stats_path)
        .ok()
        .and_then(|text| parse_stats(&text));
    if let (Some(stats), true) = (cached, path.exists()) {
        let edges = read_edges_binary_file(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?
            .into_edges();
        if edges.len() as u64 == stats.m {
            return Ok(Input {
                dataset,
                seed,
                path,
                edges,
                stats,
            });
        }
    }
    let stand_in = StandIn::generate_scaled(dataset.kind, dataset.scale, seed);
    let summary = GraphSummary::of_stream(&stand_in.stream);
    let edges = stand_in.stream.into_edges();
    let stats = InputStats {
        n: summary.vertices,
        m: edges.len() as u64,
        max_degree: summary.max_degree,
        triangles: summary.triangles,
    };
    write_atomic(&path, |out| {
        write_edges_binary(&edges, out).map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| format!("writing {}: {e}", path.display()))?;
    write_atomic(&stats_path, |out| {
        writeln!(
            out,
            "{} {} {} {}",
            stats.n, stats.m, stats.max_degree, stats.triangles
        )
    })
    .map_err(|e| format!("writing {}: {e}", stats_path.display()))?;
    Ok(Input {
        dataset,
        seed,
        path,
        edges,
        stats,
    })
}

/// Writes (once) a `.tsb` holding only the first edge of `input`, for
/// timing the fixed cost of one `count` invocation.
pub fn one_edge_prefix(input: &Input) -> Result<PathBuf, String> {
    let path =
        Path::new(CACHE_DIR).join(format!("{}-prefix1.tsb", stem(input.dataset, input.seed)));
    if !path.exists() {
        write_atomic(&path, |out| {
            write_edges_binary(&input.edges[..1], out)
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(path)
}
