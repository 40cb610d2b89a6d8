//! A typed, blocking client for the serve protocol — the library behind
//! `tristream-cli client` and the integration tests.
//!
//! One [`Client`] wraps one TCP connection and speaks strict
//! request/response: every method writes one frame, flushes, and reads
//! exactly one reply frame. [`Client::connect`] performs the HELLO
//! handshake, so a constructed client is always version-checked.

use crate::protocol::{Request, Response, StreamStats, WireError, PROTOCOL_VERSION};
use std::fmt;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use tristream_graph::{frame, Edge, GraphError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed: connect, framing, or socket I/O.
    Transport(GraphError),
    /// The server answered with an ERROR frame.
    Server(WireError),
    /// The server answered with something the protocol does not allow
    /// here (e.g. an ESTIMATE in reply to CREATE, or a hangup mid-reply).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<GraphError> for ClientError {
    fn from(e: GraphError) -> Self {
        ClientError::Transport(e)
    }
}

impl ClientError {
    /// The server-side error, when that is what this is.
    pub fn server_error(&self) -> Option<&WireError> {
        match self {
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

/// A bounded, jitter-free retry schedule for transport failures.
///
/// The delay before retry `i` (1-based) is `10ms << (i - 1)`, capped at
/// 640 ms — so `retries = 5` waits 10, 20, 40, 80, 160 ms. The schedule
/// is deliberately deterministic (no jitter, no clock reads): the same
/// failure sequence produces the same timing every run, which keeps
/// retried CLI runs reproducible and testable.
///
/// Only [`ClientError::Transport`] failures are retried. A server
/// *refusal* — an ERROR frame, surfaced as [`ClientError::Server`] — is a
/// definitive answer, not a transient fault, and is never retried;
/// protocol violations aren't either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub retries: u32,
}

impl RetryPolicy {
    /// No retries: the first transport failure is final.
    pub fn none() -> Self {
        Self { retries: 0 }
    }

    /// Up to `retries` additional attempts with the documented backoff.
    pub fn new(retries: u32) -> Self {
        Self { retries }
    }

    /// The deterministic delay before retry `attempt` (1-based).
    pub fn delay(self, attempt: u32) -> Duration {
        const BASE_MS: u64 = 10;
        const CAP_MS: u64 = 640;
        let exp = attempt.saturating_sub(1).min(16);
        Duration::from_millis((BASE_MS << exp).min(CAP_MS))
    }
}

/// Parameters for [`Client::create_stream`]. Zero values mean "server
/// default" where the protocol says so (`shards`, `window`).
#[derive(Debug, Clone)]
pub struct CreateStream {
    /// Stream name (1–255 UTF-8 bytes).
    pub name: String,
    /// Registry algorithm name.
    pub algo: String,
    /// Root RNG seed.
    pub seed: u64,
    /// Memory budget in 8-byte words.
    pub budget_words: u64,
    /// Engine shards; 0 = server default.
    pub shards: u16,
    /// Sliding-window size; 0 = registry default.
    pub window: u64,
}

impl CreateStream {
    /// A stream spec with seed 0, a 16 Ki-word budget, and server-default
    /// shards/window.
    pub fn new(name: impl Into<String>, algo: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            algo: algo.into(),
            seed: 0,
            budget_words: 1 << 14,
            shards: 0,
            window: 0,
        }
    }
}

/// Reply to a QUERY.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReply {
    /// The stream's current estimate, bit-identical to the server's value.
    pub estimate: f64,
    /// Edges the estimate covers: the frontier the server answered at,
    /// which includes every edge this connection had sent to the stream.
    pub edges: u64,
    /// Measured `memory_words()` across the stream's shards.
    pub memory_words: u64,
}

/// One connection to a `tristream serve` daemon.
#[derive(Debug)]
pub struct Client {
    conn: TcpStream,
    /// The connected peer, kept for [`Client::reconnect`].
    peer: Option<SocketAddr>,
}

impl Client {
    /// Connects and performs the HELLO handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let conn =
            TcpStream::connect(addr).map_err(|e| ClientError::Transport(GraphError::Io(e)))?;
        // The server waits for each request whole. With Nagle on, a request
        // larger than one segment would keep its last small segment until
        // the server ACKs the rest, and the server delays that ACK (40 ms
        // on Linux).
        conn.set_nodelay(true)
            .map_err(|e| ClientError::Transport(GraphError::Io(e)))?;
        let peer = conn.peer_addr().ok();
        let mut client = Self { conn, peer };
        client.expect_ok(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        Ok(client)
    }

    /// Connects with retries on transport failure, following `policy`'s
    /// deterministic backoff. Server refusals (a HELLO answered with an
    /// ERROR frame) are final on the first occurrence — retrying a refusal
    /// would just be refused again.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(err @ ClientError::Transport(_)) if attempt < policy.retries => {
                    attempt += 1;
                    std::thread::sleep(policy.delay(attempt));
                    let _ = err;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Drops the current connection and dials the same peer again,
    /// including the HELLO handshake.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let peer = self.peer.ok_or_else(|| {
            ClientError::Protocol("peer address unknown; cannot reconnect".to_string())
        })?;
        *self = Self::connect(peer)?;
        Ok(())
    }

    /// Retries `request` across transport failures (reconnecting between
    /// attempts) until it gets a response frame or the policy is
    /// exhausted. Only safe for requests that are read-only or idempotent
    /// on the server — QUERY, STATS, SNAPSHOT — which is why the write
    /// paths don't offer it: a lost EDGES reply leaves "did the batch
    /// land?" unknowable, and blind resends would double-ingest.
    fn roundtrip_with_retry(
        &mut self,
        request: &Request,
        policy: RetryPolicy,
    ) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.roundtrip(request) {
                Ok(response) => return Ok(response),
                Err(err @ ClientError::Transport(_)) => err,
                // Refusals and protocol violations are answers, not faults.
                Err(err) => return Err(err),
            };
            if attempt >= policy.retries {
                return Err(err);
            }
            attempt += 1;
            std::thread::sleep(policy.delay(attempt));
            // A failed reconnect consumes this attempt's slot; the next
            // loop iteration fails fast on the dead connection if none
            // remain.
            let _ = self.reconnect();
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = request
            .encode_payload()
            .map_err(|e| ClientError::Protocol(format!("unencodable request: {e}")))?;
        let mut writer = &self.conn;
        frame::write_frame(&mut writer, request.frame_type().byte(), &payload)?;
        writer.flush().map_err(GraphError::Io)?;
        match frame::read_frame(&mut &self.conn)? {
            None => Err(ClientError::Protocol(
                "server closed the connection instead of replying".to_string(),
            )),
            Some((frame_type, payload)) => Response::decode(frame_type, &payload)
                .map_err(|e| ClientError::Protocol(e.to_string())),
        }
    }

    fn expect_ok(&mut self, request: &Request) -> Result<(), ClientError> {
        match self.roundtrip(request)? {
            Response::Ok => Ok(()),
            Response::Error(err) => Err(ClientError::Server(err)),
            other => Err(ClientError::Protocol(format!(
                "expected OK, got {}",
                other.frame_type().name()
            ))),
        }
    }

    /// CREATE: a new named stream.
    pub fn create_stream(&mut self, spec: &CreateStream) -> Result<(), ClientError> {
        self.expect_ok(&Request::Create {
            name: spec.name.clone(),
            algo: spec.algo.clone(),
            seed: spec.seed,
            budget_words: spec.budget_words,
            shards: spec.shards,
            window: spec.window,
        })
    }

    /// EDGES: ingest one batch. One call is one engine batch — batch
    /// boundaries matter to bulk algorithms, so callers control them.
    pub fn send_edges(&mut self, name: &str, edges: &[Edge]) -> Result<(), ClientError> {
        self.expect_ok(&Request::Edges {
            name: name.to_string(),
            edges: edges.to_vec(),
        })
    }

    /// Sends a stream of edges as consecutive EDGES frames of `batch`
    /// edges each (the final frame may be short) and returns the number of
    /// frames sent. Matching an offline run's `--batch` here is what makes
    /// the served estimate bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn send_edges_batched(
        &mut self,
        name: &str,
        edges: &[Edge],
        batch: usize,
    ) -> Result<u64, ClientError> {
        assert!(batch > 0, "batch size must be positive");
        let mut frames = 0u64;
        for chunk in edges.chunks(batch) {
            self.send_edges(name, chunk)?;
            frames += 1;
        }
        Ok(frames)
    }

    /// QUERY: the stream's live estimate.
    pub fn query(&mut self, name: &str) -> Result<EstimateReply, ClientError> {
        let response = self.roundtrip(&Request::Query {
            name: name.to_string(),
        })?;
        expect_estimate(response)
    }

    /// QUERY with transport retries (see [`RetryPolicy`]): the client
    /// reconnects between attempts, so a server restart mid-session is
    /// survivable for read paths.
    pub fn query_with_retry(
        &mut self,
        name: &str,
        policy: RetryPolicy,
    ) -> Result<EstimateReply, ClientError> {
        let response = self.roundtrip_with_retry(
            &Request::Query {
                name: name.to_string(),
            },
            policy,
        )?;
        expect_estimate(response)
    }

    /// STATS: per-stream counters for every live stream.
    pub fn stats(&mut self) -> Result<Vec<StreamStats>, ClientError> {
        let response = self.roundtrip(&Request::Stats)?;
        expect_stats(response)
    }

    /// STATS with transport retries (see [`RetryPolicy`]).
    pub fn stats_with_retry(
        &mut self,
        policy: RetryPolicy,
    ) -> Result<Vec<StreamStats>, ClientError> {
        let response = self.roundtrip_with_retry(&Request::Stats, policy)?;
        expect_stats(response)
    }

    /// SNAPSHOT: the stream's checkpoint container (v2), ready to be
    /// written to disk or fed to [`Client::restore`].
    pub fn snapshot(&mut self, name: &str) -> Result<Vec<u8>, ClientError> {
        let response = self.roundtrip(&Request::Snapshot {
            name: name.to_string(),
        })?;
        expect_snapshot_data(response)
    }

    /// SNAPSHOT with transport retries (read-only, so safe to retry).
    pub fn snapshot_with_retry(
        &mut self,
        name: &str,
        policy: RetryPolicy,
    ) -> Result<Vec<u8>, ClientError> {
        let response = self.roundtrip_with_retry(
            &Request::Snapshot {
                name: name.to_string(),
            },
            policy,
        )?;
        expect_snapshot_data(response)
    }

    /// RESTORE: recreate a stream from a checkpoint container (v2). Not
    /// retried: like CREATE it mutates the server, and a lost reply makes
    /// a blind resend ambiguous (the retry would see DUPLICATE_STREAM).
    pub fn restore(&mut self, checkpoint: &[u8]) -> Result<(), ClientError> {
        self.expect_ok(&Request::Restore {
            checkpoint: checkpoint.to_vec(),
        })
    }

    /// DELETE: tear down a named stream.
    pub fn delete(&mut self, name: &str) -> Result<(), ClientError> {
        self.expect_ok(&Request::Delete {
            name: name.to_string(),
        })
    }

    /// SHUTDOWN: begin a graceful drain of the whole server.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect_ok(&Request::Shutdown)
    }

    /// Escape hatch for tests: sends a raw frame and reads one raw reply.
    pub fn raw_roundtrip(
        &mut self,
        frame_type: u8,
        payload: &[u8],
    ) -> Result<Option<(u8, Vec<u8>)>, ClientError> {
        let mut writer = &self.conn;
        frame::write_frame(&mut writer, frame_type, payload)?;
        writer.flush().map_err(GraphError::Io)?;
        Ok(frame::read_frame(&mut &self.conn)?)
    }
}

fn expect_estimate(response: Response) -> Result<EstimateReply, ClientError> {
    match response {
        Response::Estimate {
            estimate,
            edges,
            memory_words,
        } => Ok(EstimateReply {
            estimate,
            edges,
            memory_words,
        }),
        Response::Error(err) => Err(ClientError::Server(err)),
        other => Err(ClientError::Protocol(format!(
            "expected ESTIMATE, got {}",
            other.frame_type().name()
        ))),
    }
}

fn expect_stats(response: Response) -> Result<Vec<StreamStats>, ClientError> {
    match response {
        Response::StatsReport(streams) => Ok(streams),
        Response::Error(err) => Err(ClientError::Server(err)),
        other => Err(ClientError::Protocol(format!(
            "expected STATS_REPORT, got {}",
            other.frame_type().name()
        ))),
    }
}

fn expect_snapshot_data(response: Response) -> Result<Vec<u8>, ClientError> {
    match response {
        Response::SnapshotData(bytes) => Ok(bytes),
        Response::Error(err) => Err(ClientError::Server(err)),
        other => Err(ClientError::Protocol(format!(
            "expected SNAPSHOT_DATA, got {}",
            other.frame_type().name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_backoff_schedule_is_deterministic_and_capped() {
        let policy = RetryPolicy::new(8);
        let delays: Vec<u64> = (1..=8)
            .map(|i| policy.delay(i).as_millis() as u64)
            .collect();
        assert_eq!(delays, vec![10, 20, 40, 80, 160, 320, 640, 640]);
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(RetryPolicy::new(u32::MAX).delay(u32::MAX).as_millis(), 640);
        assert_eq!(RetryPolicy::none().retries, 0);
    }
}
