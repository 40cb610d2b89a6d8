//! Regenerates Figure 3 of the paper: the dataset summary table (left panel)
//! and log-binned degree-frequency histograms (right panel) for every
//! dataset stand-in. See README.md § Datasets for how stand-ins replace
//! SNAP data.

use tristream_bench::experiments::{figure3_degree_histograms, figure3_summary};
use tristream_bench::write_csv;

fn main() {
    let summary = figure3_summary();
    println!("{}", summary.render());
    let path = write_csv(&summary, "figure3_summary");
    println!("CSV written to {}\n", path.display());

    let histograms = figure3_degree_histograms();
    println!("{}", histograms.render());
    let path = write_csv(&histograms, "figure3_degree_histograms");
    println!("CSV written to {}", path.display());
}
