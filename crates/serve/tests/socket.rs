//! Integration tests driving a real daemon over a real TCP socket: offline
//! parity (bit-identical estimates), multi-tenant isolation, malformed-frame
//! survival, round trips without delayed-ACK stalls, graceful drain, and
//! QUERY's reads at the frontier.

// Test harness: helper fns may abort on setup failure (clippy's
// allow-expect-in-tests only covers `#[test]` bodies, not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tristream_baselines::registry::{find_algo, registry, AlgoParams};
use tristream_core::{Reading, ShardedEstimator, TriangleEstimator};
use tristream_graph::Edge;
use tristream_serve::protocol::{ErrorCode, FrameType, Request};
use tristream_serve::{
    Client, ClientError, CreateStream, RetryPolicy, Server, StreamCheckpoint, SERVE_STREAM_HINT,
};

/// Binds a daemon on an ephemeral loopback port and runs it on a
/// background thread. The returned handle joins cleanly once a client
/// sends SHUTDOWN.
fn spawn_server() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// A deterministic triangle-rich test stream.
fn test_edges() -> Vec<Edge> {
    tristream_gen::triangle_rich_three_regular(600, 3)
        .edges()
        .to_vec()
}

/// Builds the offline twin of a served stream: the same engine recipe the
/// server documents in `docs/PROTOCOL.md` — `space_for_budget` under
/// `SERVE_STREAM_HINT`, then the registry's `build_sharded`.
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
fn served_estimate_is_bit_identical_to_the_offline_parallel_path() {
    // One daemon serves one stream per registry algorithm, fed the same
    // frames interleaved; each must match its own offline twin.
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let (seed, budget, shards, batch) = (42u64, 1u64 << 14, 3u16, 128);

    let mut client = Client::connect(addr).expect("connect");
    for spec in registry() {
        let mut create = CreateStream::new(spec.name, spec.name);
        create.seed = seed;
        create.budget_words = budget;
        create.shards = shards;
        client.create_stream(&create).expect("create");
    }
    for chunk in edges.chunks(batch) {
        for spec in registry() {
            client.send_edges(spec.name, chunk).expect("ingest");
        }
    }

    for spec in registry() {
        let algo = spec.name;
        let served = client.query(algo).expect("query");
        // The offline `count --algo --parallel` path, same seed, same
        // batch boundaries.
        let mut offline = offline_engine(algo, seed, budget, shards as usize);
        for chunk in edges.chunks(batch) {
            offline.process_batch(chunk);
        }
        assert_eq!(
            served.estimate.to_bits(),
            offline.estimate().to_bits(),
            "{algo}: served {} vs offline {}",
            served.estimate,
            offline.estimate()
        );
        assert_eq!(served.edges, edges.len() as u64, "{algo}");
        assert_eq!(served.memory_words, offline.memory_words(), "{algo}");
    }

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn one_daemon_sustains_two_isolated_streams_with_different_algorithms() {
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let batch = 200;

    // Two tenants, two different registry algorithms, interleaved ingest
    // from two concurrent connections.
    let mut alice = Client::connect(addr).expect("connect alice");
    let mut bob = Client::connect(addr).expect("connect bob");
    let mut spec_a = CreateStream::new("alice", "neighborhood-bulk");
    spec_a.seed = 7;
    spec_a.shards = 2;
    alice.create_stream(&spec_a).expect("create alice");
    let mut spec_b = CreateStream::new("bob", "pagh-tsourakakis");
    spec_b.seed = 11;
    spec_b.shards = 2;
    bob.create_stream(&spec_b).expect("create bob");

    // Interleave: alternate batches between the tenants' connections.
    let chunks: Vec<&[Edge]> = edges.chunks(batch).collect();
    for chunk in &chunks {
        alice.send_edges("alice", chunk).expect("alice edges");
        bob.send_edges("bob", chunk).expect("bob edges");
    }

    let got_a = alice.query("alice").expect("query alice");
    let got_b = bob.query("bob").expect("query bob");

    // Each tenant matches its own offline twin despite the interleaving.
    let mut twin_a = offline_engine("neighborhood-bulk", 7, spec_a.budget_words, 2);
    let mut twin_b = offline_engine("pagh-tsourakakis", 11, spec_b.budget_words, 2);
    for chunk in &chunks {
        twin_a.process_batch(chunk);
        twin_b.process_batch(chunk);
    }
    assert_eq!(got_a.estimate.to_bits(), twin_a.estimate().to_bits());
    assert_eq!(got_b.estimate.to_bits(), twin_b.estimate().to_bits());

    // STATS sees both tenants, in creation order, with live counters.
    let stats = alice.stats().expect("stats");
    assert_eq!(stats.len(), 2);
    assert_eq!(stats[0].name, "alice");
    assert_eq!(stats[0].algo, "neighborhood-bulk");
    assert_eq!(stats[1].name, "bob");
    assert_eq!(stats[1].algo, "pagh-tsourakakis");
    for s in &stats {
        assert_eq!(s.edges, edges.len() as u64);
        assert_eq!(s.ingest_batches, chunks.len() as u64);
        assert_eq!(s.queries, 1);
        assert!(s.memory_words > 0);
    }

    // DELETE tears one tenant down; the other keeps serving.
    bob.delete("bob").expect("delete bob");
    let err = bob.query("bob").expect_err("bob is gone");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::UnknownStream)
    );
    let still = alice.query("alice").expect("alice still lives");
    assert_eq!(still.estimate.to_bits(), got_a.estimate.to_bits());

    alice.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn concurrent_queries_do_not_perturb_ingest_results() {
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let batch = 64;

    let mut ingest = Client::connect(addr).expect("connect ingest");
    let mut spec = CreateStream::new("live", "neighborhood-bulk");
    spec.seed = 5;
    spec.shards = 2;
    ingest.create_stream(&spec).expect("create");

    // A second connection hammers queries while the first ingests.
    let querier = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect querier");
        let mut replies = 0u32;
        for _ in 0..50 {
            let reply = client.query("live").expect("mid-stream query");
            assert!(reply.estimate.is_finite());
            replies += 1;
        }
        replies
    });
    for chunk in edges.chunks(batch) {
        ingest.send_edges("live", chunk).expect("edges");
    }
    assert_eq!(querier.join().expect("querier"), 50);

    // Mid-stream queries must not have changed the final state: still
    // bit-identical to the offline twin.
    let served = ingest.query("live").expect("final query");
    let mut twin = offline_engine("neighborhood-bulk", 5, spec.budget_words, 2);
    for chunk in edges.chunks(batch) {
        twin.process_batch(chunk);
    }
    assert_eq!(served.estimate.to_bits(), twin.estimate().to_bits());

    ingest.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn malformed_frames_get_error_replies_and_the_server_survives() {
    let (addr, server) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client
        .create_stream(&CreateStream::new("sturdy", "exact"))
        .expect("create");

    // Unknown frame type: ERROR frame, connection stays usable.
    let (t, payload) = client
        .raw_roundtrip(0x55, b"junk")
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::MalformedFrame.byte());

    // Truncated CREATE payload: ERROR frame, still usable.
    let (t, payload) = client
        .raw_roundtrip(FrameType::Create.byte(), &[1, 2, 3])
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::MalformedFrame.byte());

    // EDGES with a corrupt embedded .tsb stream: BAD_EDGE_PAYLOAD.
    let mut bad_edges = Request::Edges {
        name: "sturdy".to_string(),
        edges: vec![Edge::new(1u64, 2u64)],
    }
    .encode_payload()
    .expect("encode");
    let len = bad_edges.len();
    bad_edges.truncate(len - 3); // truncate inside the record data
    let (t, payload) = client
        .raw_roundtrip(FrameType::Edges.byte(), &bad_edges)
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::BadEdgePayload.byte());

    // EDGES whose embedded header claims 2^24 records and carries none:
    // the header must not size the decode buffer (the byte bound is
    // pinned in tests/edges_decode_alloc.rs), and the answer is the same
    // BAD_EDGE_PAYLOAD as any truncation.
    let mut hostile = Request::Edges {
        name: "s".to_string(),
        edges: Vec::new(),
    }
    .encode_payload()
    .expect("encode");
    let len = hostile.len();
    hostile[len - 8..].copy_from_slice(&(1u64 << 24).to_le_bytes());
    assert_eq!(len, 19, "a 24-byte frame with its header");
    let (t, payload) = client
        .raw_roundtrip(FrameType::Edges.byte(), &hostile)
        .expect("roundtrip")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::BadEdgePayload.byte());

    // Requests against missing streams: UNKNOWN_STREAM.
    let err = client.query("missing").expect_err("unknown stream");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::UnknownStream)
    );

    // After all that abuse, the server still answers real work correctly.
    client
        .send_edges(
            "sturdy",
            &[
                Edge::new(1u64, 2u64),
                Edge::new(2u64, 3u64),
                Edge::new(1u64, 3u64),
            ],
        )
        .expect("edges");
    let reply = client.query("sturdy").expect("query");
    assert_eq!(reply.estimate, 1.0, "exact counter sees the one triangle");

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn round_trips_do_not_stall_on_delayed_acks() {
    // A frame held back by Nagle's algorithm until the peer's delayed ACK
    // costs up to 40 ms per round trip on Linux. 200 round trips of each
    // kind must finish in under 2 s in total, 10 ms apiece.
    let (addr, server) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");
    client
        .create_stream(&CreateStream::new("ping", "exact"))
        .expect("create");
    let budget = Duration::from_secs(2);

    let start = Instant::now();
    for _ in 0..200 {
        client.query("ping").expect("query");
    }
    let queries = start.elapsed();
    assert!(queries < budget, "200 QUERY round trips took {queries:?}");

    let start = Instant::now();
    for i in 0..200u64 {
        client
            .send_edges("ping", &[Edge::new(i, i + 1)])
            .expect("edges");
    }
    let ingests = start.elapsed();
    assert!(
        ingests < budget,
        "200 one-edge EDGES round trips took {ingests:?}"
    );
    assert_eq!(client.query("ping").expect("query").edges, 200);

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn connections_that_skip_the_handshake_are_refused() {
    let (addr, server) = spawn_server();
    // Speak raw frames without HELLO: first request must be refused and
    // the connection closed.
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = &conn;
    let payload = Request::Stats.encode_payload().expect("encode");
    tristream_graph::frame::write_frame(&mut writer, FrameType::Stats.byte(), &payload)
        .expect("write");
    let (t, payload) = tristream_graph::frame::read_frame(&mut &conn)
        .expect("read")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::MalformedFrame.byte());
    assert!(
        tristream_graph::frame::read_frame(&mut &conn)
            .expect("read")
            .is_none(),
        "server hangs up after refusing the handshake"
    );

    // A proper client still gets in afterwards.
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn graceful_drain_flushes_batches_answers_queries_and_joins_everything() {
    let (addr, server) = spawn_server();
    let edges = test_edges();

    let mut client = Client::connect(addr).expect("connect");
    let mut spec = CreateStream::new("draining", "neighborhood-bulk");
    spec.seed = 3;
    spec.shards = 4;
    client.create_stream(&spec).expect("create");
    client
        .send_edges_batched("draining", &edges, 64)
        .expect("ingest");

    // A second connection is mid-session when the drain starts.
    let mut bystander = Client::connect(addr).expect("connect bystander");

    client.shutdown().expect("shutdown acked");

    // The draining server still answers reads on live connections but
    // refuses new mutations.
    let reply = bystander.query("draining").expect("read during drain");
    assert_eq!(reply.edges, edges.len() as u64);
    let err = bystander
        .send_edges("draining", &edges[..3])
        .expect_err("mutations refused during drain");
    assert_eq!(
        err.server_error().map(|e| e.code),
        Some(ErrorCode::Draining)
    );
    // Every other request that changes the stream table is refused too,
    // and every read is answered. The requests go back to back: a draining
    // server closes a connection idle for one 50 ms poll.
    let stats = bystander.stats().expect("STATS during drain");
    assert_eq!(stats[0].edges, edges.len() as u64);
    let checkpoint = bystander
        .snapshot("draining")
        .expect("SNAPSHOT during drain");
    let refusals = [
        bystander.create_stream(&CreateStream::new("late", "exact")),
        bystander.delete("draining"),
        bystander.restore(&checkpoint),
    ];
    for refusal in refusals {
        let err = refusal.expect_err("mutations refused during drain");
        assert_eq!(
            err.server_error().map(|e| e.code),
            Some(ErrorCode::Draining)
        );
    }
    drop(bystander);

    // run() returning Ok proves: accept loop exited, every handler thread
    // joined, every engine flushed its queues and joined its workers, and
    // nothing panicked on the way down.
    server
        .join()
        .expect("no panicking threads")
        .expect("clean drain");

    // The port is actually released: new connections are refused (or reset),
    // not served.
    assert!(
        Client::connect(addr).is_err(),
        "daemon must be gone after the drain"
    );
}

#[test]
fn version_mismatches_are_refused_with_unsupported_version() {
    let (addr, server) = spawn_server();
    let conn = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = &conn;
    let hello = Request::Hello { version: 99 }
        .encode_payload()
        .expect("encode");
    tristream_graph::frame::write_frame(&mut writer, FrameType::Hello.byte(), &hello)
        .expect("write");
    let (t, payload) = tristream_graph::frame::read_frame(&mut &conn)
        .expect("read")
        .expect("a reply");
    assert_eq!(t, FrameType::Error.byte());
    assert_eq!(payload[0], ErrorCode::UnsupportedVersion.byte());
    drop(conn);

    let mut client = Client::connect(addr).expect("current version still welcome");
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn frontier_reads_on_another_connection_match_the_twin_at_their_cut() {
    // A dashboard connection never writes, so each QUERY answers at the
    // frontier at once: whatever edge count it reports, the estimate and
    // memory words must be the offline twin's after that many edges.
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let batch = 64;
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut spec = CreateStream::new("live", "neighborhood-bulk");
    spec.seed = 6;
    spec.shards = 2;
    writer.create_stream(&spec).expect("create");

    let total = edges.len() as u64;
    let dashboard = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect dashboard");
        let mut replies = Vec::new();
        loop {
            let reply = client.query("live").expect("frontier query");
            replies.push(reply);
            if reply.edges == total {
                return replies;
            }
        }
    });
    for chunk in edges.chunks(batch) {
        writer.send_edges("live", chunk).expect("edges");
    }
    let replies = dashboard.join().expect("dashboard");

    let mut twin = offline_engine("neighborhood-bulk", 6, spec.budget_words, 2);
    let mut cuts = std::collections::BTreeMap::new();
    cuts.insert(0, (twin.estimate().to_bits(), twin.memory_words()));
    for chunk in edges.chunks(batch) {
        twin.process_batch(chunk);
        cuts.insert(
            twin.edges_seen(),
            (twin.estimate().to_bits(), twin.memory_words()),
        );
    }
    for reply in &replies {
        assert_eq!(
            cuts.get(&reply.edges),
            Some(&(reply.estimate.to_bits(), reply.memory_words)),
            "a QUERY at {} edges differs from the twin",
            reply.edges
        );
    }
    assert!(replies.windows(2).all(|w| w[0].edges <= w[1].edges));

    writer.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

/// Sends one QUERY from a helper thread and fails the test if no reply
/// arrives within 10 s, instead of hanging it.
fn query_promptly(mut client: Client, name: &'static str) -> (Client, Reading) {
    let (done, reply) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let estimate = client.query(name).expect("query");
        done.send((client, estimate)).expect("send");
    });
    reply
        .recv_timeout(Duration::from_secs(10))
        .expect("the QUERY waited for edges of a deleted stream")
}

#[test]
fn frontier_reads_follow_the_stream_not_its_name() {
    // One connection writes to "s", deletes it and creates "s" again. Its
    // QUERYs wait for its writes to the new stream only — none at first,
    // then fewer edges than before; waiting for the old stream's edge
    // count would never end.
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let mut client = Client::connect(addr).expect("connect");
    let mut spec = CreateStream::new("s", "neighborhood-bulk");
    spec.seed = 9;
    spec.shards = 2;
    client.create_stream(&spec).expect("create");
    client
        .send_edges_batched("s", &edges, 128)
        .expect("first ingest");
    client.delete("s").expect("delete");
    client.create_stream(&spec).expect("create again");
    let mut twin = offline_engine("neighborhood-bulk", 9, spec.budget_words, 2);

    let (mut client, fresh) = query_promptly(client, "s");
    assert_eq!(
        (fresh.estimate.to_bits(), fresh.edges),
        (twin.estimate().to_bits(), 0)
    );

    let fewer = &edges[..300];
    client
        .send_edges_batched("s", fewer, 128)
        .expect("second ingest");
    let (mut client, got) = query_promptly(client, "s");
    for chunk in fewer.chunks(128) {
        twin.process_batch(chunk);
    }
    assert_eq!(
        (got.estimate.to_bits(), got.edges),
        (twin.estimate().to_bits(), fewer.len() as u64)
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn frontier_reads_answer_a_restored_stream_at_once() {
    // RESTORE publishes the restored state: a QUERY on another connection,
    // which waits for no write, answers the restored bits straight away.
    let (addr, server) = spawn_server();
    let edges = test_edges();
    let mut writer = Client::connect(addr).expect("connect writer");
    let mut spec = CreateStream::new("orig", "neighborhood-bulk");
    spec.seed = 4;
    spec.shards = 2;
    writer.create_stream(&spec).expect("create");
    writer
        .send_edges_batched("orig", &edges, 100)
        .expect("ingest");
    let want = writer.query("orig").expect("query");
    assert_eq!(want.edges, edges.len() as u64);

    let bytes = writer.snapshot("orig").expect("snapshot");
    let mut cp = StreamCheckpoint::decode(&bytes).expect("decode");
    cp.name = "copy".to_string();
    writer
        .restore(&cp.encode().expect("encode"))
        .expect("restore");
    let mut reader = Client::connect(addr).expect("connect reader");
    let got = reader.query("copy").expect("query the restored stream");
    assert_eq!(
        (got.estimate.to_bits(), got.edges, got.memory_words),
        (want.estimate.to_bits(), want.edges, want.memory_words)
    );

    writer.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn refusals_are_answered_once_and_never_retried() {
    // docs/OPERATIONS.md §1: only transport failures are retried. An
    // UNKNOWN_STREAM refusal is an answer, so a QUERY under eight retries
    // returns it before the schedule's eight delays (10 ms doubling,
    // capped at 640 ms: 1.91 s in all) could have run.
    let (addr, server) = spawn_server();
    let mut client = Client::connect_with_retry(addr, RetryPolicy::new(8)).expect("connect");
    let start = Instant::now();
    let err = client.query("ghost").expect_err("no stream is named ghost");
    let elapsed = start.elapsed();
    assert!(
        matches!(&err, ClientError::Server(e) if e.code == ErrorCode::UnknownStream),
        "{err}"
    );
    assert!(
        elapsed < Duration::from_millis(1_910),
        "a refusal was retried: {elapsed:?}"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn reads_retry_across_a_daemon_restart_until_the_connection_writes() {
    // docs/OPERATIONS.md §1: a connection's reads retry under its policy
    // until it sends any other request, and a connection closed before a
    // read's reply is a transport failure.
    let (addr, server) = spawn_server();
    let mut reader = Client::connect_with_retry(addr, RetryPolicy::new(5)).expect("connect");
    assert!(reader.stats().expect("stats").is_empty());
    let mut writer = Client::connect_with_retry(addr, RetryPolicy::new(5)).expect("connect");
    writer
        .create_stream(&CreateStream::new("s", "exact"))
        .expect("create");
    writer.send_edges("s", &test_edges()[..64]).expect("edges");

    // Drain the daemon, which closes both connections, and bind a new one
    // to the same address.
    let mut stopper = Client::connect(addr).expect("connect");
    stopper.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    let restarted = Server::bind(addr).expect("bind the same address");
    let server = std::thread::spawn(move || restarted.run());

    // The reader reconnects to the new daemon, which has no streams.
    let stats = reader.stats().expect("STATS across the restart");
    assert!(stats.is_empty(), "{stats:?}");
    // The writer's read fails fast. A retry would reconnect, and a QUERY on
    // a new connection would not wait for this one's EDGES: here the new
    // daemon would answer UNKNOWN_STREAM.
    let err = writer
        .query("s")
        .expect_err("the writer's read is not retried");
    assert!(matches!(err, ClientError::Transport(_)), "{err}");

    reader.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

/// Compile-time-ish guard used by the drain test above: a `ClientError`
/// display never panics (exercises the error plumbing end to end).
#[test]
fn client_errors_render() {
    let err = ClientError::Protocol("demo".to_string());
    assert!(err.to_string().contains("demo"));
}
