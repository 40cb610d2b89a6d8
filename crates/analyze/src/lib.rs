//! `tristream-analyze` — the workspace invariant linter.
//!
//! The codebase's hardest-won properties are not visible to `cargo test`
//! until they break: bit-identical estimates per seed (the reproduction
//! claim), zero heap allocations per steady-state batch (the hot-path
//! contract), panic-free library crates (what a long-lived daemon needs),
//! and the single-implementation seeding discipline behind
//! `SHARD_SEED_STRIDE`. This crate enforces them *statically*, at
//! build-gate time, as four named rule families over a hand-rolled,
//! comment- and string-aware token stream (no external parser — this
//! environment has no registry access, and a lexer is all the rules need):
//!
//! | Rule | Enforces |
//! |------|----------|
//! | `D1-determinism` | no wall clocks outside bench/CLI timing, no entropy seeding, no std hash containers in core/baselines |
//! | `A1-no-alloc`    | no allocating tokens inside `// analyze: region(no-alloc)` blocks |
//! | `P1-panic-free`  | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library crates outside tests |
//! | `S1-seeding`     | seed derivations go through the exported helpers, one blessed mixer |
//!
//! Violations are errors unless escaped by a line-scoped
//! `// analyze: allow(RULE, reason = "…")` with a non-empty reason; the
//! escapes are collected into an auditable inventory and an allow that
//! suppresses nothing is itself an error. See ARCHITECTURE.md § "Enforced
//! invariants" for the full rule table and annotation grammar.
//!
//! Run as `cargo run -p tristream-analyze -- check`; `--json` emits the
//! machine-readable schema documented in [`report`].

pub mod directives;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::Path;

/// Entry point of the `tristream-analyze` binary. `args` are the arguments
/// after the program name; returns the process exit code (0 clean,
/// 1 diagnostics, 2 usage or I/O error). Output goes to stdout (report)
/// and stderr (usage/I/O errors).
pub fn cli_main(args: &[String]) -> i32 {
    let mut json = false;
    let mut fix_allow = false;
    let mut show_allows = false;
    let mut paths: Vec<String> = Vec::new();
    let mut saw_check = false;
    for arg in args {
        match arg.as_str() {
            "check" if !saw_check => saw_check = true,
            "--json" => json = true,
            "--fix-allow" => fix_allow = true,
            "--allows" => show_allows = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}\n{USAGE}");
                return 2;
            }
            path => paths.push(path.trim_start_matches("./").replace('\\', "/")),
        }
    }
    if !saw_check {
        eprintln!("{USAGE}");
        return 2;
    }
    let cwd = match std::env::current_dir() {
        Ok(cwd) => cwd,
        Err(e) => {
            eprintln!("analyze: cannot determine working directory: {e}");
            return 2;
        }
    };
    let Some(root) = engine::find_workspace_root(&cwd).or_else(|| {
        // Fall back to the source checkout this binary was built from
        // (useful when invoked from outside the tree, e.g. by an IDE).
        engine::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
    }) else {
        eprintln!(
            "analyze: no workspace Cargo.toml found above {}",
            cwd.display()
        );
        return 2;
    };
    run_check(&root, &paths, json, fix_allow, show_allows)
}

const USAGE: &str = "usage: tristream-analyze check [--json] [--allows] [--fix-allow] [PATHS…]
  check        lint every workspace .rs file against the invariant rules
  --json       emit machine-readable diagnostics (schema tristream-analyze-v1)
  --allows     also print the allow-escape inventory
  --fix-allow  insert placeholder allow comments above each violation (migration aid)
  PATHS        restrict the check to files under the given relative paths";

fn run_check(root: &Path, paths: &[String], json: bool, fix_allow: bool, show_allows: bool) -> i32 {
    let report = match engine::check_workspace(root, paths) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("analyze: I/O error while checking the workspace: {e}");
            return 2;
        }
    };
    if fix_allow {
        match engine::apply_fix_allows(root, &report) {
            Ok(n) => eprintln!(
                "analyze: inserted {n} placeholder allow(s); re-run check and fill in the reasons"
            ),
            Err(e) => {
                eprintln!("analyze: failed to rewrite files: {e}");
                return 2;
            }
        }
    }
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
        if show_allows && !report.allows.is_empty() {
            print!("{}", report.render_allows());
        }
    }
    i32::from(!report.is_clean())
}
