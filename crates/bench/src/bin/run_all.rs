//! Runs every table/figure experiment in sequence and writes all CSVs under
//! `target/experiments/`. Equivalent to running the individual binaries one
//! after another; useful for populating EXPERIMENTS.md in one command.

use tristream_bench::experiments;
use tristream_bench::write_csv;
use tristream_gen::DatasetKind;

fn main() {
    let start = std::time::Instant::now();

    let jobs: Vec<(&str, tristream_bench::ExperimentTable)> = vec![
        ("figure3_summary", experiments::figure3_summary()),
        (
            "figure3_degree_histograms",
            experiments::figure3_degree_histograms(),
        ),
        (
            "table1",
            experiments::baseline_study(DatasetKind::Syn3Regular),
        ),
        ("table2", experiments::baseline_study(DatasetKind::HepTh)),
        ("table3", experiments::table3()),
        ("figure4", experiments::figure4()),
        ("figure5", experiments::figure5()),
        ("figure6", experiments::figure6()),
    ];

    for (name, table) in jobs {
        println!("{}", table.render());
        let path = write_csv(&table, name);
        println!("CSV written to {}\n", path.display());
    }

    println!(
        "All experiments completed in {:.1} s",
        start.elapsed().as_secs_f64()
    );
}
