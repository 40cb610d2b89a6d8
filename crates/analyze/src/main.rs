//! The `tristream-analyze` binary: `tristream-analyze check [--json] […]`.
//! All logic lives in the library, beside its unit tests.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(tristream_analyze::cli_main(&args));
}
