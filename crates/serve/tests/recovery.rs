//! Crash-recovery integration tests: a daemon with a `--state-dir` is
//! killed mid-stream and restarted, and the recovered stream — resumed
//! from its latest checkpoint plus the recorded replay offset — finishes
//! with an estimate bit-identical to an uninterrupted run.

// Test harness: helper fns may abort on setup failure (clippy's
// allow-expect-in-tests only covers `#[test]` bodies, not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;
use tristream_baselines::registry::{find_algo, AlgoParams};
use tristream_core::{ShardedEstimator, TriangleEstimator};
use tristream_graph::Edge;
use tristream_serve::protocol::{ErrorCode, FrameType, Request};
use tristream_serve::{Client, CreateStream, Server, ServerOptions, SERVE_STREAM_HINT};

/// A fresh, uniquely named state directory for one test.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tristream-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a daemon with the given options on an ephemeral loopback port and
/// runs it on a background thread, returning the recovery report alongside.
fn spawn_server_with(
    options: ServerOptions,
) -> (
    SocketAddr,
    Vec<String>,
    Vec<PathBuf>,
    JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind_with("127.0.0.1:0", options).expect("bind ephemeral port");
    let addr = server.local_addr();
    let recovered = server.recovered_streams().to_vec();
    let skipped = server.skipped_checkpoints().to_vec();
    let handle = std::thread::spawn(move || server.run());
    (addr, recovered, skipped, handle)
}

/// A deterministic triangle-rich test stream (900 edges).
fn test_edges() -> Vec<Edge> {
    tristream_gen::triangle_rich_three_regular(600, 3)
        .edges()
        .to_vec()
}

/// The offline twin of a served stream — same engine recipe as the server
/// (see `docs/PROTOCOL.md`), so an uninterrupted run can be computed
/// without a third daemon.
fn offline_engine(
    algo: &str,
    seed: u64,
    budget_words: u64,
    shards: usize,
) -> ShardedEstimator<Box<dyn TriangleEstimator + Send>> {
    let spec = find_algo(algo).expect("registry algorithm");
    let space = spec.space_for_budget(budget_words as usize, &SERVE_STREAM_HINT);
    spec.build_sharded(&AlgoParams::new(space, seed), shards)
}

#[test]
fn a_killed_server_recovers_from_its_checkpoint_and_matches_the_uninterrupted_run() {
    let dir = state_dir("kill");
    let edges = test_edges();
    let (algo, seed, shards, batch, interval) = ("neighborhood-bulk", 42u64, 2u16, 64usize, 4u64);

    // ---- Life 1: ingest past a checkpoint boundary, then die. ----
    let (addr, recovered, skipped, server) = spawn_server_with(ServerOptions {
        state_dir: Some(dir.clone()),
        checkpoint_interval: interval,
        ..ServerOptions::default()
    });
    assert!(
        recovered.is_empty() && skipped.is_empty(),
        "fresh state dir"
    );

    let mut client = Client::connect(addr).expect("connect");
    let mut spec = CreateStream::new("prod", algo);
    spec.seed = seed;
    spec.shards = shards;
    client.create_stream(&spec).expect("create");
    client
        .send_edges_batched("prod", &edges, batch)
        .expect("ingest");

    // Checkpoints are written only on the EDGES cadence, never on drain, so
    // the on-disk state after a graceful SHUTDOWN is byte-for-byte what a
    // SIGKILL at the same point would have left: the last full multiple of
    // `interval` batches. Draining here *is* the crash simulation.
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");

    // ---- Life 2: recover, resume from the recorded offset, catch up. ----
    let (addr, recovered, skipped, server) = spawn_server_with(ServerOptions {
        state_dir: Some(dir.clone()),
        checkpoint_interval: interval,
        ..ServerOptions::default()
    });
    assert_eq!(recovered, vec!["prod".to_string()]);
    assert!(skipped.is_empty());

    let mut client = Client::connect(addr).expect("reconnect");
    let reply = client.query("prod").expect("query recovered stream");
    let offset = reply.edges as usize;
    // The replay offset is the latest checkpoint: a full multiple of
    // `interval` batches, strictly inside the stream (edges past it died
    // with the process).
    assert!(offset > 0 && offset < edges.len(), "offset {offset}");
    assert_eq!(offset % (batch * interval as usize), 0, "offset {offset}");

    // Resume ingesting from the recorded offset with the original batch
    // boundaries (the offset is batch-aligned by construction).
    client
        .send_edges_batched("prod", &edges[offset..], batch)
        .expect("replay tail");
    let served = client.query("prod").expect("final query");
    assert_eq!(served.edges, edges.len() as u64);

    // 0 estimate mismatches vs the uninterrupted run: bit-identical.
    let mut twin = offline_engine(algo, seed, spec.budget_words, shards as usize);
    for chunk in edges.chunks(batch) {
        twin.process_batch(chunk);
    }
    assert_eq!(
        served.estimate.to_bits(),
        twin.estimate().to_bits(),
        "recovered {} vs uninterrupted {}",
        served.estimate,
        twin.estimate()
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_are_skipped_and_reported_while_valid_ones_recover() {
    let dir = state_dir("corrupt");
    let edges = test_edges();

    // Life 1 writes one valid checkpoint.
    let (addr, _, _, server) = spawn_server_with(ServerOptions {
        state_dir: Some(dir.clone()),
        checkpoint_interval: 1,
        ..ServerOptions::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut spec = CreateStream::new("good", "neighborhood-bulk");
    spec.seed = 9;
    client.create_stream(&spec).expect("create");
    client
        .send_edges_batched("good", &edges[..256], 128)
        .expect("ingest");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");

    // Sabotage: a second checkpoint file full of garbage.
    let bogus = dir.join("ff00.tsc");
    std::fs::write(&bogus, b"definitely not a checkpoint").expect("write garbage");

    // Life 2 starts anyway: the valid stream recovers, the garbage file is
    // reported, nothing panics.
    let (addr, recovered, skipped, server) = spawn_server_with(ServerOptions {
        state_dir: Some(dir.clone()),
        ..ServerOptions::default()
    });
    assert_eq!(recovered, vec!["good".to_string()]);
    assert_eq!(skipped, vec![bogus]);

    let mut client = Client::connect(addr).expect("connect");
    let reply = client.query("good").expect("recovered stream answers");
    assert_eq!(reply.edges, 256);

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_of_corrupt_bytes_is_refused_with_bad_snapshot() {
    let (addr, _, _, server) = spawn_server_with(ServerOptions::default());
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .restore(b"definitely not a checkpoint")
        .expect_err("corrupt restore refused");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::BadSnapshot)
    );
    // The connection (and the server) survive the refusal.
    client
        .create_stream(&CreateStream::new("alive", "exact"))
        .expect("create after refusal");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn a_durable_server_refuses_streams_that_cannot_be_checkpointed() {
    let dir = state_dir("refuse");
    let (addr, _, _, server) = spawn_server_with(ServerOptions {
        state_dir: Some(dir.clone()),
        ..ServerOptions::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    // `exact` reports `snapshotable: false` in the registry: creating it on
    // a durable server would silently skip its checkpoints, so the server
    // refuses with the typed error instead.
    let err = client
        .create_stream(&CreateStream::new("prod", "exact"))
        .expect_err("non-snapshotable algo refused under --state-dir");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::SnapshotUnsupported)
    );

    // A snapshotable algorithm is welcome on the same server.
    client
        .create_stream(&CreateStream::new("prod", "neighborhood-bulk"))
        .expect("snapshotable algo accepted");

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_v1_clients_still_complete_the_handshake() {
    let (addr, _, _, server) = spawn_server_with(ServerOptions::default());

    // Speak version 1 by hand: the additive v2 bump must keep accepting it.
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = &conn;
    let hello = Request::Hello { version: 1 }
        .encode_payload()
        .expect("encode");
    tristream_graph::frame::write_frame(&mut writer, FrameType::Hello.byte(), &hello)
        .expect("write");
    let (t, _) = tristream_graph::frame::read_frame(&mut &conn)
        .expect("read")
        .expect("a reply");
    assert_eq!(t, FrameType::Ok.byte(), "v1 HELLO is still welcome");
    drop(conn);

    let mut client = Client::connect(addr).expect("v2 client");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn idle_connections_are_closed_and_do_not_stall_the_drain() {
    let (addr, _, _, server) = spawn_server_with(ServerOptions {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerOptions::default()
    });

    // An idle client: completes the handshake, then goes silent.
    let idle = Client::connect(addr).expect("connect idle");
    std::thread::sleep(Duration::from_millis(600));

    // A live client shuts the server down; the drain must not wait on the
    // idle connection (which the deadline already closed), so `run`
    // returns promptly.
    let mut live = Client::connect(addr).expect("connect live");
    live.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    drop(idle);
}
