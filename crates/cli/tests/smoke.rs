//! Smoke tests for the `tristream-cli` binary: `--help` works, and a full
//! generate → count round trip succeeds on a real file. These drive the
//! compiled binary itself (via `CARGO_BIN_EXE_*`), so they cover argument
//! parsing, exit codes, and stdout formatting the way a shell user sees
//! them.

// Test harness: helper fns may abort on I/O failure (clippy's
// allow-expect-in-tests only covers `#[test]` bodies, not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tristream-cli"))
}

fn run(args: &[&str]) -> Output {
    cli()
        .args(args)
        .output()
        .expect("spawning tristream-cli binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("tristream-cli-smoke-{}-{name}", std::process::id()));
    path
}

#[test]
fn help_flag_prints_usage_and_succeeds() {
    for flag in ["--help", "-h", "help"] {
        let output = run(&[flag]);
        assert!(output.status.success(), "{flag} should exit 0: {output:?}");
        let text = stdout(&output);
        assert!(
            text.contains("USAGE"),
            "{flag} output missing USAGE:\n{text}"
        );
        assert!(
            text.contains("tristream-cli count"),
            "{flag} output missing the count subcommand:\n{text}"
        );
    }
}

#[test]
fn no_arguments_is_an_error_that_still_shows_usage() {
    let output = run(&[]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("USAGE"),
        "stderr should show usage:\n{stderr}"
    );
}

#[test]
fn generate_then_count_end_to_end() {
    let edge_list = temp_path("syn3reg.txt");

    let generate = run(&[
        "generate",
        "syn-3-reg",
        "--scale",
        "16",
        "--seed",
        "7",
        "--output",
        edge_list.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "generate failed: {generate:?}");
    assert!(edge_list.is_file(), "generate should write {edge_list:?}");

    // Exact count: deterministic, so assert on structure AND that the
    // approximate run below estimates the same graph.
    let exact = run(&["count", edge_list.to_str().unwrap(), "--algo", "exact"]);
    assert!(exact.status.success(), "exact count failed: {exact:?}");
    let exact_text = stdout(&exact);
    assert!(
        exact_text.contains("triangle count: 61 (algo = exact"),
        "exact count output should name the triangle count:\n{exact_text}"
    );

    let approx = run(&[
        "count",
        edge_list.to_str().unwrap(),
        "--estimators",
        "20000",
        "--seed",
        "42",
    ]);
    assert!(
        approx.status.success(),
        "approximate count failed: {approx:?}"
    );
    let approx_text = stdout(&approx);
    assert!(
        approx_text.contains("estimated triangle count"),
        "approximate count output should name the estimate:\n{approx_text}"
    );
    assert!(
        approx_text.contains("throughput:") && approx_text.contains("edges/sec"),
        "sequential count must report wall-clock throughput:\n{approx_text}"
    );

    let _ = std::fs::remove_file(&edge_list);
}

#[test]
fn zero_batch_size_is_a_usage_error_not_a_panic() {
    // Regression: `count --batch 0` used to reach the library's
    // `assert!(batch_size > 0)` and abort with a panic message. It must be
    // a normal usage error: exit code 2, explanation on stderr, no panic.
    let output = run(&["count", "whatever.txt", "--batch", "0"]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--batch") && stderr.contains("at least 1"),
        "stderr should explain the invalid batch size:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on --batch 0:\n{stderr}"
    );
}

#[test]
fn parallel_count_end_to_end() {
    let edge_list = temp_path("parallel.txt");
    let generate = run(&[
        "generate",
        "syn-3-reg",
        "--scale",
        "16",
        "--seed",
        "11",
        "--output",
        edge_list.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "generate failed: {generate:?}");

    let output = run(&[
        "count",
        edge_list.to_str().unwrap(),
        "--parallel",
        "--shards",
        "2",
        "--estimators",
        "8000",
        "--batch",
        "512",
        "--seed",
        "5",
    ]);
    assert!(output.status.success(), "parallel count failed: {output:?}");
    let text = stdout(&output);
    assert!(
        text.contains("estimated triangle count") && text.contains("shards = 2"),
        "parallel count output should report the estimate and shard count:\n{text}"
    );
    assert!(
        text.contains("throughput:") && text.contains("edges/sec"),
        "parallel count must report wall-clock throughput:\n{text}"
    );
    assert!(
        text.contains("wall clock: decode ") && text.contains(" s, estimate "),
        "parallel count must split wall clock into decode and estimate components:\n{text}"
    );

    let _ = std::fs::remove_file(&edge_list);
}

#[test]
fn unknown_algo_is_a_usage_error_listing_the_registered_names() {
    // Satellite: `--algo` misuse must be a usage error (exit 2) whose
    // message enumerates the registry, so users can self-correct.
    let output = run(&["count", "whatever.txt", "--algo", "frobnicate"]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("frobnicate"), "{stderr}");
    for name in [
        "neighborhood",
        "neighborhood-bulk",
        "sliding",
        "exact",
        "buriol",
        "jowhari-ghodsi",
        "pagh-tsourakakis",
    ] {
        assert!(
            stderr.contains(name),
            "stderr must list registered algorithm {name}:\n{stderr}"
        );
    }
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn exact_is_an_unknown_flag_the_exact_count_is_algo_exact() {
    for args in [
        &["count", "whatever.txt", "--exact"][..],
        &["count", "whatever.txt", "--algo", "buriol", "--exact"][..],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--exact"), "{stderr}");
        assert!(stderr.contains("USAGE"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn count_algo_end_to_end_over_text_and_binary_inputs() {
    let edge_list = temp_path("algo.txt");
    let tsb = temp_path("algo.tsb");
    let generate = run(&[
        "generate",
        "syn-3-reg",
        "--scale",
        "16",
        "--seed",
        "13",
        "--output",
        edge_list.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "generate failed: {generate:?}");
    let convert = run(&[
        "convert",
        edge_list.to_str().unwrap(),
        "--output",
        tsb.to_str().unwrap(),
    ]);
    assert!(convert.status.success(), "convert failed: {convert:?}");

    for input in [&edge_list, &tsb] {
        // Sequential registry path.
        let sequential = run(&[
            "count",
            input.to_str().unwrap(),
            "--algo",
            "jowhari-ghodsi",
            "--estimators",
            "500",
            "--seed",
            "7",
        ]);
        assert!(
            sequential.status.success(),
            "sequential algo count failed on {input:?}: {sequential:?}"
        );
        let text = stdout(&sequential);
        assert!(
            text.contains("algo = jowhari-ghodsi") && text.contains("memory = "),
            "{text}"
        );
        // The same algorithm through the generic sharded engine.
        let parallel = run(&[
            "count",
            input.to_str().unwrap(),
            "--algo",
            "jowhari-ghodsi",
            "--estimators",
            "500",
            "--seed",
            "7",
            "--parallel",
            "--shards",
            "2",
        ]);
        assert!(
            parallel.status.success(),
            "parallel algo count failed on {input:?}: {parallel:?}"
        );
        let text = stdout(&parallel);
        assert!(
            text.contains("algo = jowhari-ghodsi") && text.contains("shards = 2"),
            "{text}"
        );
    }

    let _ = std::fs::remove_file(&edge_list);
    let _ = std::fs::remove_file(&tsb);
}

#[test]
fn summary_reports_graph_shape() {
    let edge_list = temp_path("summary.txt");
    std::fs::write(
        &edge_list,
        "# triangle plus a pendant\n0 1\n1 2\n0 2\n2 3\n",
    )
    .expect("writing edge list");

    let output = run(&["summary", edge_list.to_str().unwrap()]);
    assert!(output.status.success(), "summary failed: {output:?}");
    let text = stdout(&output);
    assert!(
        text.contains('4') && text.contains('3'),
        "summary of a 4-edge/4-vertex graph should mention its counts:\n{text}"
    );

    let _ = std::fs::remove_file(&edge_list);
}

#[test]
fn missing_file_fails_cleanly() {
    let output = run(&["summary", "/nonexistent/definitely-missing.txt"]);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error"), "stderr should explain:\n{stderr}");
}

/// A `.tsb` v1 stream of the given raw records, self-loops included — the
/// library writer refuses to produce those. With `timestamps`, flag bit 0
/// is set and record `i` carries `timestamps[i]` as a third word, the
/// column earlier builds wrote.
fn raw_tsb(records: &[(u64, u64)], timestamps: Option<&[u64]>) -> Vec<u8> {
    let mut out = b"TSB\0".to_vec();
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&u16::from(timestamps.is_some()).to_le_bytes());
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for (i, (u, v)) in records.iter().enumerate() {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
        if let Some(timestamps) = timestamps {
            out.extend_from_slice(&timestamps[i].to_le_bytes());
        }
    }
    out
}

#[test]
fn malformed_tsb_fails_identically_on_every_count_path() {
    // Record 70 of 100 is the first bad one: the stream is cut 5 bytes into
    // it, or it is a self-loop. Every path must name its byte offset,
    // 16 + 70 × 16, although each reads the file in different blocks
    // (whole-file blocks for `count`, 16-edge batches under `--parallel`).
    let path: Vec<(u64, u64)> = (0..100).map(|i| (i, i + 1)).collect();
    let mut truncated = raw_tsb(&path, None);
    truncated.truncate(16 + 70 * 16 + 5);
    let mut looped = path.clone();
    looped[70] = (7, 7);
    for (name, bytes, reason) in [
        ("truncated.tsb", truncated, "truncated record data"),
        (
            "self-loop.tsb",
            raw_tsb(&looped, None),
            "self-loop record (u == v)",
        ),
    ] {
        let file = temp_path(name);
        std::fs::write(&file, bytes).unwrap();
        let file = file.to_str().unwrap();
        let common = ["--batch", "16", "--estimators", "64", "--seed", "3"];
        let runs = [
            vec!["count", file],
            vec!["count", file, "--parallel", "--shards", "2"],
            vec![
                "count",
                file,
                "--algo",
                "neighborhood-bulk",
                "--parallel",
                "--shards",
                "2",
            ],
        ];
        let expected = format!("error: malformed .tsb stream at byte 1136: {reason}");
        for mut args in runs {
            args.extend(common);
            let output = run(&args);
            assert_eq!(output.status.code(), Some(1), "{args:?}: {output:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(stderr.trim_end(), expected, "{args:?}");
        }
        let _ = std::fs::remove_file(file);
    }
}

/// The parts of a `count` report that depend only on the estimator state:
/// the rounded estimate, then the resident words and the estimators
/// holding a triangle when the report has them (everything but the
/// timings and the shard count).
fn count_answer(output: &Output) -> (String, Option<String>, Option<String>) {
    assert!(output.status.success(), "{output:?}");
    let text = stdout(output);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("estimated triangle count: "))
        .unwrap_or_else(|| panic!("no estimate in {text}"));
    let after = |key: &str| {
        let rest = line.split(key).nth(1)?;
        Some(rest.split([',', ')']).next()?.to_string())
    };
    let estimate = line.split_whitespace().next().unwrap().to_string();
    (estimate, after("memory = "), after("words, "))
}

/// The `estimated triangle count:` line of a `count` report, without its
/// elapsed time.
fn estimate_line(output: &Output) -> String {
    assert!(output.status.success(), "{output:?}");
    let text = stdout(output);
    let line = text
        .lines()
        .find(|l| l.starts_with("estimated triangle count: "))
        .unwrap_or_else(|| panic!("no estimate in {text}"));
    let (head, tail) = line.split_once(" in ").expect("an elapsed field");
    let (_, tail) = tail.split_once(" s, ").expect("an elapsed field");
    format!("{head} in … s, {tail}")
}

#[test]
fn timestamped_tsb_counts_like_the_plain_file() {
    // A `.tsb` with the timestamp column of earlier builds (flag bit 0,
    // 24-byte records) holding timestamps that are not stream positions:
    // every count form skips the column and prints the plain file's line.
    let records: Vec<(u64, u64)> = (0..60u64)
        .flat_map(|i| [(i, i + 1), (i, i + 2), (i + 1, i + 2)])
        .collect();
    let timestamps: Vec<u64> = (0..records.len() as u64)
        .map(|i| 1_000_000 - 13 * i)
        .collect();
    let plain = temp_path("plain-ts.tsb");
    let stamped = temp_path("stamped-ts.tsb");
    std::fs::write(&plain, raw_tsb(&records, None)).unwrap();
    std::fs::write(&stamped, raw_tsb(&records, Some(&timestamps))).unwrap();
    let forms: [&[&str]; 3] = [&[], &["--parallel", "--shards", "2"], &["--algo", "exact"]];
    for extra in forms {
        let line = |file: &PathBuf| {
            let mut args = vec![
                "count",
                file.to_str().unwrap(),
                "--estimators",
                "2000",
                "--batch",
                "7",
                "--seed",
                "4",
            ];
            args.extend(extra);
            estimate_line(&run(&args))
        };
        let expected = line(&plain);
        assert!(expected.contains(" 180 edges in "), "{expected}");
        assert_eq!(line(&stamped), expected, "{extra:?}");
    }
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&stamped);
}

#[test]
fn every_count_form_runs_the_one_registry_recipe() {
    // A skewed stream (the YouTube stand-in at 1/1024: 3,303 edges, max
    // degree 73) cut into 7 batches. Without `--algo`, `count` is `count
    // --algo neighborhood-bulk`, sequential or sharded: the two sequential
    // forms print one answer, the two forms at K shards print one answer,
    // and at K = 1 all four agree. Both the `.tsb` file and the text list
    // are inputs; the text list also repeats some edges in reverse, which
    // every form must drop alike.
    let text_list = temp_path("parity.txt");
    let tsb = temp_path("parity.tsb");
    let generate = run(&[
        "generate",
        "youtube",
        "--scale",
        "64",
        "--seed",
        "3",
        "--output",
        text_list.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "{generate:?}");
    let convert = run(&[
        "convert",
        text_list.to_str().unwrap(),
        "--output",
        tsb.to_str().unwrap(),
    ]);
    assert!(convert.status.success(), "{convert:?}");
    let text = std::fs::read_to_string(&text_list).unwrap();
    let reversed: String = text
        .lines()
        .filter(|line| !line.starts_with('#'))
        .step_by(50)
        .map(|line| {
            let (u, v) = line.split_once(char::is_whitespace).unwrap();
            format!("{} {}\n", v.trim(), u.trim())
        })
        .collect();
    assert!(reversed.lines().count() >= 50, "{reversed}");
    std::fs::write(&text_list, text + &reversed).unwrap();
    let inputs = [tsb.to_str().unwrap(), text_list.to_str().unwrap()];
    for (file, seed) in inputs.into_iter().flat_map(|f| [(f, "1"), (f, "2")]) {
        let answer = |extra: &[&str]| {
            let mut args = vec![
                "count",
                file,
                "--estimators",
                "4000",
                "--batch",
                "512",
                "--seed",
                seed,
            ];
            args.extend(extra);
            count_answer(&run(&args))
        };
        let algo = ["--algo", "neighborhood-bulk"];
        let sharded = |shards: &str| {
            let flags = ["--parallel", "--shards", shards];
            (answer(&flags), answer(&[&algo[..], &flags[..]].concat()))
        };
        let sequential = (answer(&[]), answer(&algo));
        let (one, two) = (sharded("1"), sharded("2"));
        let pairs = [
            ("sequential", &sequential),
            ("one shard", &one),
            (
                "one shard against none",
                &(one.0.clone(), sequential.0.clone()),
            ),
            ("two shards", &two),
        ];
        // Every estimate first, so a parity break reads as one; then the
        // rest of each answer.
        for (what, (a, b)) in pairs {
            assert_eq!(a.0, b.0, "{file}, seed {seed}, {what}: estimates differ");
        }
        for (what, (a, b)) in pairs {
            assert_eq!(a, b, "{file}, seed {seed}, {what}");
        }
        let held = sequential.0 .2.clone().unwrap_or_default();
        assert!(
            held.ends_with("estimators hold a triangle") && !held.starts_with('0'),
            "{file}, seed {seed}: some estimator must hold a triangle: {sequential:?}"
        );
    }
    let _ = std::fs::remove_file(&text_list);
    let _ = std::fs::remove_file(&tsb);
}

#[test]
fn convert_and_binary_count_end_to_end() {
    let text_list = temp_path("convert.txt");
    let tsb = temp_path("convert.tsb");

    let generate = run(&[
        "generate",
        "syn-3-reg",
        "--scale",
        "16",
        "--seed",
        "3",
        "--output",
        text_list.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "generate failed: {generate:?}");

    let convert = run(&[
        "convert",
        text_list.to_str().unwrap(),
        "--output",
        tsb.to_str().unwrap(),
    ]);
    assert!(convert.status.success(), "convert failed: {convert:?}");
    assert!(
        stdout(&convert).contains(".tsb"),
        "convert should name the format:\n{}",
        stdout(&convert)
    );
    assert!(tsb.is_file(), "convert should write {tsb:?}");

    // The binary file feeds the parallel streaming path directly.
    let count = run(&[
        "count",
        tsb.to_str().unwrap(),
        "--parallel",
        "--shards",
        "2",
        "--estimators",
        "8000",
        "--batch",
        "512",
        "--seed",
        "5",
    ]);
    assert!(count.status.success(), "binary count failed: {count:?}");
    assert!(
        stdout(&count).contains("estimated triangle count"),
        "{}",
        stdout(&count)
    );
    // `.tsb` + `--parallel` decodes on the calling thread while the shards
    // work; the report must still split wall clock into decode and
    // estimate components.
    assert!(
        stdout(&count).contains("wall clock: decode "),
        "binary parallel count must report the decode/estimate split:\n{}",
        stdout(&count)
    );

    // An ambiguous conversion (neither side .tsb) is a usage error.
    let ambiguous = run(&[
        "convert",
        text_list.to_str().unwrap(),
        "--output",
        "also-text.txt",
    ]);
    assert_eq!(ambiguous.status.code(), Some(2), "{ambiguous:?}");

    let _ = std::fs::remove_file(&text_list);
    let _ = std::fs::remove_file(&tsb);
}

#[test]
fn serve_daemon_end_to_end_over_the_binary() {
    // A real daemon process, driven entirely through `client` subcommands:
    // bind an ephemeral port, read it back from the startup banner, run a
    // create → send → query → stats → shutdown session, and check the
    // daemon drains to a clean exit.
    let edge_list = temp_path("serve.txt");
    let generate = run(&[
        "generate",
        "syn-3-reg",
        "--scale",
        "16",
        "--seed",
        "21",
        "--output",
        edge_list.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "generate failed: {generate:?}");

    let mut daemon = cli()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    let mut banner = String::new();
    BufReader::new(daemon.stdout.as_mut().expect("daemon stdout is piped"))
        .read_line(&mut banner)
        .expect("reading the startup banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("banner ends with the bound address")
        .to_string();
    assert!(
        banner.contains("listening on"),
        "banner should name the address:\n{banner}"
    );

    let client = |args: &[&str]| {
        let mut full = args.to_vec();
        full.extend_from_slice(&["--addr", &addr]);
        run(&full)
    };
    let create = client(&["client", "create", "prod", "--algo", "exact"]);
    assert!(create.status.success(), "create failed: {create:?}");
    let send = client(&[
        "client",
        "send",
        "prod",
        edge_list.to_str().unwrap(),
        "--batch",
        "512",
    ]);
    assert!(send.status.success(), "send failed: {send:?}");
    let query = client(&["client", "query", "prod"]);
    assert!(query.status.success(), "query failed: {query:?}");
    assert!(stdout(&query).contains("estimate = "), "{}", stdout(&query));
    let stats = client(&["client", "stats"]);
    assert!(stats.status.success(), "stats failed: {stats:?}");
    assert!(
        stdout(&stats).contains("prod (algo = exact)"),
        "{}",
        stdout(&stats)
    );
    // A server-side refusal is exit 1 with the protocol error code.
    let ghost = client(&["client", "query", "ghost"]);
    assert_eq!(ghost.status.code(), Some(1), "{ghost:?}");
    assert!(
        String::from_utf8_lossy(&ghost.stderr).contains("UNKNOWN_STREAM"),
        "{ghost:?}"
    );
    let shutdown = client(&["client", "shutdown"]);
    assert!(shutdown.status.success(), "shutdown failed: {shutdown:?}");
    let status = daemon.wait().expect("daemon exits after the drain");
    assert!(
        status.success(),
        "daemon should drain to exit 0: {status:?}"
    );

    let _ = std::fs::remove_file(&edge_list);
}

#[test]
fn bench_smoke_emits_machine_readable_json() {
    let json_path = temp_path("bench.json");
    // `--edges 2000` keeps the debug-mode integration test quick; CI runs
    // the full 1M-edge smoke configuration in release.
    let bench = run(&[
        "bench",
        "--smoke",
        "--check",
        "--seed",
        "1",
        "--edges",
        "2000",
        "--output",
        json_path.to_str().unwrap(),
    ]);
    assert!(bench.status.success(), "bench failed: {bench:?}");
    let text = stdout(&bench);
    assert!(text.contains("accuracy gate: ok"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("bench wrote the report");
    for field in [
        "\"schema\": \"tristream-bench\"",
        "\"schema_version\": 7",
        "\"snapshot-encode\"",
        "\"snapshot-restore\"",
        "\"kind\": \"snapshot\"",
        "\"snapshot_words\"",
        "\"ingest-text\"",
        "\"ingest-binary\"",
        "\"hotpath-reference-w4096\"",
        "\"hotpath-pooled-w4096\"",
        "\"kind\": \"hot-path\"",
        "\"accuracy-bulk-syn3reg\"",
        "\"accuracy-parallel-planted\"",
        "\"accuracy-neighborhood-bulk\"",
        "\"accuracy-sliding\"",
        "\"accuracy-exact\"",
        "\"accuracy-buriol\"",
        "\"accuracy-jowhari-ghodsi\"",
        "\"accuracy-pagh-tsourakakis\"",
        "\"memory_words\"",
        "\"budget_words\"",
        "\"binary_vs_text_ingest_speedup\"",
    ] {
        assert!(json.contains(field), "BENCH.json missing {field}:\n{json}");
    }
    for removed in [
        "\"ingest-binary-parallel\"",
        "\"engine-",
        "\"parallel_vs_sequential_decode_speedup\"",
    ] {
        assert!(
            !json.contains(removed),
            "BENCH.json v7 has no {removed}:\n{json}"
        );
    }
    let _ = std::fs::remove_file(&json_path);
}
