//! A typed, blocking client for the serve protocol — the library behind
//! `tristream-cli client` and the integration tests.
//!
//! One [`Client`] wraps one TCP connection and speaks strict
//! request/response: every method writes one frame, flushes, and reads
//! exactly one reply frame. [`Client::connect`] performs the HELLO
//! handshake, so a constructed client is always version-checked.

use crate::protocol::{
    CreateStream, FrameType, Request, Response, StreamStats, WireError, PROTOCOL_VERSION,
};
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use tristream_core::Reading;
use tristream_graph::{frame, Edge, GraphError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed: connect, framing, or socket I/O, including a
    /// connection closed before its reply.
    Transport(GraphError),
    /// The server answered with an ERROR frame.
    Server(WireError),
    /// The server answered with something the protocol does not allow
    /// here (e.g. an ESTIMATE in reply to CREATE).
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
///
/// A connection keeps its policy ([`Client::connect_with_retry`]) for the
/// connect and its reads — QUERY, STATS, SNAPSHOT — until it sends any
/// other request. Those are sent once: a lost EDGES reply leaves "did the
/// batch land?" unknowable. From then on its reads fail fast too, since a
/// retry reconnects and a QUERY on a new connection would not wait for the
/// EDGES this one had acknowledged (read-your-writes is per connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub retries: u32,
}

impl RetryPolicy {
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

/// One connection to a `tristream serve` daemon.
#[derive(Debug)]
pub struct Client {
    conn: TcpStream,
    /// The connected peer, kept for [`Client::reconnect`].
    peer: Option<SocketAddr>,
    /// How this connection's reads retry (see [`RetryPolicy`]).
    retry: RetryPolicy,
}

impl Client {
    /// Connects and performs the HELLO handshake, with no retries.
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
        let mut client = Self {
            conn,
            peer,
            retry: RetryPolicy::default(),
        };
        client.expect_ok(&Request::Hello {
            version: PROTOCOL_VERSION,
        })?;
        Ok(client)
    }

    /// Connects with retries on transport failure, following `policy`'s
    /// deterministic backoff, and keeps `policy` for the connection's
    /// reads. Server refusals (a HELLO answered with an ERROR frame) are
    /// final on the first occurrence — retrying a refusal would just be
    /// refused again.
    pub fn connect_with_retry<A: ToSocketAddrs>(
        addr: A,
        policy: RetryPolicy,
    ) -> Result<Self, ClientError> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(&addr) {
                Ok(mut client) => {
                    client.retry = policy;
                    return Ok(client);
                }
                Err(ClientError::Transport(_)) if attempt < policy.retries => {
                    attempt += 1;
                    std::thread::sleep(policy.delay(attempt));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Drops the current connection and dials the same peer again,
    /// including the HELLO handshake. The new connection keeps this one's
    /// retry policy.
    pub fn reconnect(&mut self) -> Result<(), ClientError> {
        let peer = self.peer.ok_or_else(|| {
            ClientError::Protocol("peer address unknown; cannot reconnect".to_string())
        })?;
        let retry = self.retry;
        *self = Self::connect(peer)?;
        self.retry = retry;
        Ok(())
    }

    /// Sends a read — QUERY, STATS or SNAPSHOT — and retries its transport
    /// failures under the connection's policy, reconnecting before each.
    fn read(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.roundtrip(request) {
                Ok(response) => return Ok(response),
                Err(err @ ClientError::Transport(_)) => err,
                // Refusals and protocol violations are answers, not faults.
                Err(err) => return Err(err),
            };
            if attempt >= self.retry.retries {
                return Err(err);
            }
            attempt += 1;
            std::thread::sleep(self.retry.delay(attempt));
            // A failed reconnect consumes this attempt's slot; the next
            // loop iteration fails fast on the dead connection if none
            // remain.
            let _ = self.reconnect();
        }
    }

    /// Sends any other request once and expects OK; from here on the
    /// connection's reads fail fast (see [`RetryPolicy`]).
    fn expect_ok(&mut self, request: &Request) -> Result<(), ClientError> {
        self.retry = RetryPolicy::default();
        match self.roundtrip(request)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other, FrameType::Ok)),
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
            None => Err(ClientError::Transport(GraphError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection instead of replying",
            )))),
            Some((frame_type, payload)) => Response::decode(frame_type, &payload)
                .map_err(|e| ClientError::Protocol(e.to_string())),
        }
    }

    /// CREATE: a new named stream.
    pub fn create_stream(&mut self, recipe: &CreateStream) -> Result<(), ClientError> {
        self.expect_ok(&Request::Create(recipe.clone()))
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

    /// QUERY: the stream's engine at the frontier, which covers every edge
    /// this connection had sent to the stream, bit-identical to the server.
    pub fn query(&mut self, name: &str) -> Result<Reading, ClientError> {
        match self.read(&Request::Query {
            name: name.to_string(),
        })? {
            Response::Estimate(reading) => Ok(reading),
            other => Err(unexpected(other, FrameType::Estimate)),
        }
    }

    /// STATS: per-stream counters for every live stream.
    pub fn stats(&mut self) -> Result<Vec<StreamStats>, ClientError> {
        match self.read(&Request::Stats)? {
            Response::StatsReport(streams) => Ok(streams),
            other => Err(unexpected(other, FrameType::StatsReport)),
        }
    }

    /// SNAPSHOT: the stream's checkpoint container (v2), ready to be
    /// written to disk or fed to [`Client::restore`].
    pub fn snapshot(&mut self, name: &str) -> Result<Vec<u8>, ClientError> {
        match self.read(&Request::Snapshot {
            name: name.to_string(),
        })? {
            Response::SnapshotData(bytes) => Ok(bytes),
            other => Err(unexpected(other, FrameType::SnapshotData)),
        }
    }

    /// RESTORE: recreate a stream from a checkpoint container (v2). Like
    /// CREATE it mutates the server, and a lost reply makes a blind resend
    /// ambiguous (the retry would see DUPLICATE_STREAM).
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
    /// The frame may write, so the connection's reads stop retrying.
    pub fn raw_roundtrip(
        &mut self,
        frame_type: u8,
        payload: &[u8],
    ) -> Result<Option<(u8, Vec<u8>)>, ClientError> {
        self.retry = RetryPolicy::default();
        let mut writer = &self.conn;
        frame::write_frame(&mut writer, frame_type, payload)?;
        writer.flush().map_err(GraphError::Io)?;
        Ok(frame::read_frame(&mut &self.conn)?)
    }
}

/// The error for a reply other than the `expected` one: the server's
/// refusal, or a protocol violation.
fn unexpected(response: Response, expected: FrameType) -> ClientError {
    match response {
        Response::Error(err) => ClientError::Server(err),
        other => ClientError::Protocol(format!(
            "expected {}, got {}",
            expected.name(),
            other.frame_type().name()
        )),
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
        assert_eq!(RetryPolicy::default().retries, 0);
    }
}
