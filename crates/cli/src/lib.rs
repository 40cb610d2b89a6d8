//! Command-line front end for the `tristream` workspace.
//!
//! The binary (`tristream-cli`) exposes the library's main entry points over
//! SNAP-style edge-list files, so the algorithms can be used without writing
//! any Rust:
//!
//! ```text
//! tristream-cli summary      graph.txt
//! tristream-cli count        graph.txt --estimators 200000 --seed 7
//! tristream-cli count        graph.txt --algo exact
//! tristream-cli transitivity graph.txt --estimators 100000
//! tristream-cli sample       graph.txt -k 5 --estimators 50000
//! tristream-cli generate     orkut --scale 64 --seed 1 --output orkut.txt
//! ```
//!
//! Argument parsing is hand-rolled (the workspace deliberately keeps its
//! dependency set to the pre-approved crates), implemented and unit-tested
//! in [`args`]; the command implementations live in [`commands`] and are
//! integration-tested against generated files.

// Front-end crate: aborting on a broken environment (unregistered default
// algorithm, unwritable temp dir) is the intended behaviour, so the
// panic-lints that guard the library crates are opted out here — the same
// scoping the analyzer's P1-panic-free rule applies.
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod args;
pub mod commands;

pub use args::{parse_args, CliError, Command};
pub use commands::run;
