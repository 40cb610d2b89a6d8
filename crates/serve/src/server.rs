//! The `tristream serve` daemon: accept loop, per-connection handlers, and
//! graceful drain.
//!
//! Std-only by design (threads + [`TcpListener`], no async runtime), to
//! match the workspace's vendored-deps constraint:
//!
//! * **One handler thread per connection.** Tenant counts are small and
//!   engine work dominates; a thread per connection keeps the control flow
//!   linear and lets the OS do the scheduling.
//! * **Engine work happens on engine threads.** A handler only *enqueues*
//!   EDGES batches (bounded queues, backpressure); per-stream mutexes (see
//!   [`crate::table`]) keep tenants isolated. A QUERY takes no stream lock:
//!   it answers at the engine's frontier once that covers every EDGES
//!   frame its own connection had acknowledged on the stream, so a
//!   dashboard never waits for another connection's ingest.
//! * **Drain is cooperative.** A SHUTDOWN frame flips the draining flag;
//!   the accept loop stops accepting (woken by a loopback self-connect),
//!   handlers notice within one poll interval (their reads time out at
//!   frame boundaries only, so a timeout can never split a frame), finish
//!   their in-flight request, and exit; finally the stream table is
//!   dropped, which flushes every queued batch and joins every engine
//!   worker. The same path serves SIGTERM-style supervision: point the
//!   supervisor's stop command at `tristream-cli client shutdown` (std has
//!   no portable signal handling; see `docs/OPERATIONS.md`).

use crate::checkpoint::{scan_state_dir, write_checkpoint, StreamCheckpoint};
use crate::protocol::{
    transport_error, ErrorCode, Request, Response, WireError, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use crate::table::{checkpoint_stream, ingest, query_at, StreamEntry, StreamTable};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;
use tristream_graph::{frame, GraphError};

/// How often an idle connection handler re-checks the draining flag. Reads
/// time out at this interval *only* while waiting for a frame-type byte —
/// never mid-frame — so polling can't desynchronise the stream. The idle
/// deadline ([`ServerOptions::idle_timeout`]) is counted in these polls,
/// so connection lifetime decisions stay count-based and clock-free.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// Socket write deadline, so a handler blocked on a stalled peer's full
/// TCP window errors out instead of hanging a drain.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration for [`Server::bind_with`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Directory for per-stream checkpoints. `Some` turns on periodic
    /// checkpoints and startup recovery, and makes CREATE refuse
    /// algorithms the registry does not flag as snapshotable
    /// ([`ErrorCode::SnapshotUnsupported`]) rather than silently running
    /// them unprotected.
    pub state_dir: Option<PathBuf>,
    /// Checkpoint every N EDGES frames per stream (clamped to ≥ 1). The
    /// cadence is frame-count-based, never clock-based, so the set of
    /// checkpoints a stream produces is a pure function of its ingest
    /// history — which is what makes crash-recovery tests exact.
    pub checkpoint_interval: u64,
    /// Close a connection after this long without receiving a frame
    /// (rounded up to the drain-poll granularity). `None` keeps idle
    /// connections forever. Draining never waits on an idle connection
    /// either way — idle handlers notice the flag within one poll.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            state_dir: None,
            checkpoint_interval: 8,
            idle_timeout: None,
        }
    }
}

/// State shared between the accept loop and every connection handler.
struct Shared {
    table: StreamTable,
    draining: AtomicBool,
    state_dir: Option<PathBuf>,
    checkpoint_interval: u64,
    /// Idle deadline in whole [`DRAIN_POLL`] ticks; `None` = never.
    idle_polls: Option<u64>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    recovered: Vec<String>,
    skipped: Vec<PathBuf>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("recovered", &self.recovered)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the daemon to `addr` (e.g. `"127.0.0.1:7878"`; port 0 picks an
    /// ephemeral port — read it back with [`Server::local_addr`]) with
    /// default options: no state directory, no idle deadline.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::bind_with(addr, ServerOptions::default())
    }

    /// Binds with explicit [`ServerOptions`]. When a state directory is
    /// configured, every valid checkpoint in it is restored before the
    /// first connection is accepted — so by the time [`Server::run`]
    /// answers a QUERY, recovered streams are already at their
    /// checkpointed state, waiting for the client to replay the remainder
    /// of the stream from each checkpoint's recorded edge offset. Corrupt
    /// or unrestorable checkpoints are skipped and logged, never fatal:
    /// one bad file must not keep every healthy stream down.
    pub fn bind_with<A: ToSocketAddrs>(addr: A, options: ServerOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let idle_polls = options
            .idle_timeout
            .map(|t| (t.as_millis() / DRAIN_POLL.as_millis().max(1)).max(1) as u64);
        let shared = Arc::new(Shared {
            table: StreamTable::new(),
            draining: AtomicBool::new(false),
            state_dir: options.state_dir,
            checkpoint_interval: options.checkpoint_interval.max(1),
            idle_polls,
        });
        let mut recovered = Vec::new();
        let mut skipped = Vec::new();
        if let Some(dir) = shared.state_dir.as_deref() {
            let scan = scan_state_dir(dir)?;
            for (path, err) in scan.skipped {
                log_event(&format!(
                    "skipping corrupt checkpoint {}: {err}",
                    path.display()
                ));
                skipped.push(path);
            }
            for cp in scan.checkpoints {
                match shared.table.create_restored(&cp) {
                    Ok(()) => {
                        log_event(&format!(
                            "recovered stream {:?} at {} edges ({} batches)",
                            cp.name, cp.replay_edges, cp.ingest_batches
                        ));
                        recovered.push(cp.name);
                    }
                    Err(err) => {
                        log_event(&format!(
                            "skipping unrestorable checkpoint for stream {:?}: {err}",
                            cp.name
                        ));
                        skipped.push(crate::checkpoint::checkpoint_path(dir, &cp.name));
                    }
                }
            }
        }
        Ok(Self {
            listener,
            local_addr,
            shared,
            recovered,
            skipped,
        })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Streams restored from the state directory at bind time, in
    /// checkpoint-file order.
    pub fn recovered_streams(&self) -> &[String] {
        &self.recovered
    }

    /// Checkpoint files present at bind time that could not be restored
    /// (corrupt container or failed rebuild), each already logged.
    pub fn skipped_checkpoints(&self) -> &[PathBuf] {
        &self.skipped
    }

    /// Runs the accept loop until a SHUTDOWN frame drains the server.
    /// Returns once every connection handler has exited and every stream
    /// engine has flushed its queues and joined its workers.
    pub fn run(self) -> std::io::Result<()> {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        for conn in self.listener.incoming() {
            if self.shared.draining() {
                // Woken by the shutdown handler's self-connect (or a late
                // client); either way the connection is refused by closing.
                break;
            }
            let conn = match conn {
                Ok(conn) => conn,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            };
            let shared = Arc::clone(&self.shared);
            let wake_addr = self.local_addr;
            let spawned = std::thread::Builder::new()
                .name("tristream-serve-conn".to_string())
                .spawn(move || handle_connection(conn, &shared, wake_addr));
            match spawned {
                Ok(handle) => handlers.push(handle),
                // Thread exhaustion: shed this connection, keep serving.
                Err(_) => continue,
            }
            handlers.retain(|h| !h.is_finished());
        }
        for handle in handlers {
            let _ = handle.join();
        }
        // Flushes queued batches and joins every engine worker thread.
        self.shared.table.clear();
        Ok(())
    }
}

/// The loopback address used to wake the accept loop out of `accept()`
/// when a bind to an unspecified address (0.0.0.0 / ::) makes the listener
/// address itself unconnectable.
fn wakeup_addr(local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), local.port())
        }
        IpAddr::V6(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), local.port())
        }
        _ => local,
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn handle_connection(conn: TcpStream, shared: &Shared, wake_addr: SocketAddr) {
    // A connection that dies mid-write (peer gone) is not a server error;
    // everything worth reporting went to the peer as an ERROR frame.
    let _ = drive_connection(&conn, shared, wake_addr);
}

/// Whether to keep reading frames from this connection after a response.
enum Flow {
    Continue,
    Close,
}

/// Read-your-writes for one connection: for each stream it wrote to, the
/// stream's edge count after its last acknowledged EDGES frame. Streams are
/// told apart by identity, not name, so a stream deleted and created again
/// under the same name starts from nothing; entries of dropped streams are
/// pruned on the next write.
#[derive(Default)]
struct Written(Vec<(Weak<StreamEntry>, u64)>);

impl Written {
    fn record(&mut self, entry: &Arc<StreamEntry>, edges: u64) {
        self.0.retain(|(stream, _)| stream.strong_count() > 0);
        match self
            .0
            .iter_mut()
            .find(|(stream, _)| stream.as_ptr() == Arc::as_ptr(entry))
        {
            Some((_, written)) => *written = edges,
            None => self.0.push((Arc::downgrade(entry), edges)),
        }
    }

    /// What a QUERY of `entry` on this connection must see: 0 when the
    /// connection never wrote to it.
    fn edges(&self, entry: &Arc<StreamEntry>) -> u64 {
        self.0
            .iter()
            .find(|(stream, _)| stream.as_ptr() == Arc::as_ptr(entry))
            .map_or(0, |&(_, edges)| edges)
    }
}

fn drive_connection(
    conn: &TcpStream,
    shared: &Shared,
    wake_addr: SocketAddr,
) -> Result<(), GraphError> {
    conn.set_read_timeout(Some(DRAIN_POLL))
        .map_err(GraphError::Io)?;
    conn.set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(GraphError::Io)?;
    // The peer waits for each reply whole. With Nagle on, a reply larger
    // than one segment would keep its last small segment until the peer
    // ACKs the rest, and the peer delays that ACK (40 ms on Linux).
    conn.set_nodelay(true).map_err(GraphError::Io)?;
    let mut hello_done = false;
    let mut written = Written::default();
    // Consecutive boundary-poll timeouts with no frame: the idle deadline,
    // measured in polls so the decision is a count, not a clock read.
    let mut idle_polls = 0u64;
    loop {
        let frame_type = match frame::read_frame_type(&mut &*conn) {
            Ok(None) => return Ok(()), // clean EOF at a frame boundary
            Ok(Some(t)) => t,
            Err(GraphError::Io(e)) if is_timeout(&e) => {
                if shared.draining() {
                    return Ok(()); // idle connection during drain
                }
                idle_polls += 1;
                if shared.idle_polls.is_some_and(|limit| idle_polls >= limit) {
                    log_event(&format!(
                        "closing idle connection{}: no frame within the idle deadline \
                         ({idle_polls} polls)",
                        peer_label(conn)
                    ));
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        idle_polls = 0;
        // Mid-frame reads run blocking, so a poll timeout can never split
        // a frame; the boundary poll above is the only timeout site.
        conn.set_read_timeout(None).map_err(GraphError::Io)?;
        let payload = frame::read_frame_body(&mut &*conn);
        conn.set_read_timeout(Some(DRAIN_POLL))
            .map_err(GraphError::Io)?;
        let payload = match payload {
            Ok(payload) => payload,
            Err(e @ GraphError::Binary { .. }) => {
                // Framing is now desynchronised: answer, then hang up.
                respond(conn, &Response::Error(transport_error(&e)))?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let (response, flow) = match Request::decode(frame_type, &payload) {
            Err(err) => (Response::Error(err), Flow::Continue),
            Ok(request) => {
                handle_request(request, shared, &mut hello_done, &mut written, wake_addr)
            }
        };
        respond(conn, &response)?;
        if matches!(flow, Flow::Close) {
            return Ok(());
        }
    }
}

fn respond(conn: &TcpStream, response: &Response) -> Result<(), GraphError> {
    // Response encoding is infallible for everything the server constructs
    // (ERROR messages are sanitised by the encoder); a failure here would
    // be a protocol-module bug, answered with a bare OK-less hangup rather
    // than a panic.
    let payload = response.encode_payload().unwrap_or_default();
    let mut writer = conn;
    frame::write_frame(&mut writer, response.frame_type().byte(), &payload)?;
    writer.flush().map_err(GraphError::Io)
}

fn handle_request(
    request: Request,
    shared: &Shared,
    hello_done: &mut bool,
    written: &mut Written,
    wake_addr: SocketAddr,
) -> (Response, Flow) {
    // The handshake comes first on every connection.
    if !*hello_done && !matches!(request, Request::Hello { .. }) {
        return (
            Response::Error(WireError::new(
                ErrorCode::MalformedFrame,
                "expected HELLO as the first frame",
            )),
            Flow::Close,
        );
    }
    match request {
        Request::Hello { version } => {
            if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
                return (
                    Response::Error(WireError::new(
                        ErrorCode::UnsupportedVersion,
                        format!(
                            "server speaks versions \
                             {MIN_PROTOCOL_VERSION}–{PROTOCOL_VERSION}, client sent {version}"
                        ),
                    )),
                    Flow::Close,
                );
            }
            *hello_done = true;
            (Response::Ok, Flow::Continue)
        }
        Request::Create {
            name,
            algo,
            seed,
            budget_words,
            shards,
            window,
        } => {
            if shared.draining() {
                return (draining_error(), Flow::Continue);
            }
            // A checkpointing server only accepts streams it can actually
            // checkpoint: refusing here, with a typed error, beats
            // accepting the stream and silently never persisting it.
            if shared.state_dir.is_some() {
                let snapshotable = tristream_baselines::registry::find_algo(&algo)
                    .is_none_or(|spec| spec.snapshotable);
                if !snapshotable {
                    return (
                        Response::Error(WireError::new(
                            ErrorCode::SnapshotUnsupported,
                            format!(
                                "algorithm {algo:?} does not support snapshots; a server \
                                 running with --state-dir cannot checkpoint it"
                            ),
                        )),
                        Flow::Continue,
                    );
                }
            }
            let result = shared
                .table
                .create(&name, &algo, seed, budget_words, shards, window);
            (
                match result {
                    Ok(()) => Response::Ok,
                    Err(err) => Response::Error(err),
                },
                Flow::Continue,
            )
        }
        Request::Delete { name } => {
            if shared.draining() {
                return (draining_error(), Flow::Continue);
            }
            (
                match shared.table.delete(&name) {
                    Ok(()) => Response::Ok,
                    Err(err) => Response::Error(err),
                },
                Flow::Continue,
            )
        }
        Request::Edges { name, edges } => {
            if shared.draining() {
                return (draining_error(), Flow::Continue);
            }
            (
                match shared.table.require(&name) {
                    Ok(entry) => {
                        let ingested = ingest(&entry, &edges);
                        written.record(&entry, ingested.edges);
                        maybe_checkpoint(shared, &entry, ingested.batches);
                        Response::Ok
                    }
                    Err(err) => Response::Error(err),
                },
                Flow::Continue,
            )
        }
        // A QUERY answers at the frontier once it covers this connection's
        // acknowledged writes. Reads stay answerable during a drain, and
        // then wait for every acknowledged edge: mutations are refused, so
        // in-flight dashboards see the final state while the engines flush.
        Request::Query { name } => (
            match shared.table.require(&name) {
                Ok(entry) => {
                    let edges = if shared.draining() {
                        entry.ingested()
                    } else {
                        written.edges(&entry)
                    };
                    let reading = query_at(&entry, edges);
                    Response::Estimate {
                        estimate: reading.estimate,
                        edges: reading.edges,
                        memory_words: reading.memory_words as u64,
                    }
                }
                Err(err) => Response::Error(err),
            },
            Flow::Continue,
        ),
        Request::Stats => (Response::StatsReport(shared.table.stats()), Flow::Continue),
        // Like QUERY, SNAPSHOT stays answerable during a drain: taking a
        // final checkpoint is exactly what an operator wants on the way
        // down.
        Request::Snapshot { name } => (
            match shared
                .table
                .require(&name)
                .and_then(|entry| checkpoint_stream(&entry))
                .and_then(|cp| {
                    cp.encode()
                        .map_err(|e| WireError::new(ErrorCode::BadSnapshot, e.to_string()))
                }) {
                Ok(bytes) => Response::SnapshotData(bytes),
                Err(err) => Response::Error(err),
            },
            Flow::Continue,
        ),
        Request::Restore { checkpoint } => {
            if shared.draining() {
                return (draining_error(), Flow::Continue);
            }
            let result = StreamCheckpoint::decode(&checkpoint)
                .map_err(|e| WireError::new(ErrorCode::BadSnapshot, e.to_string()))
                .and_then(|cp| {
                    shared.table.create_restored(&cp)?;
                    // A restored stream is immediately durable on a
                    // checkpointing server; failure to persist is logged,
                    // not fatal — the stream itself is live.
                    if let Some(dir) = shared.state_dir.as_deref() {
                        if let Err(e) = write_checkpoint(dir, &cp) {
                            log_event(&format!(
                                "failed to persist restored stream {:?}: {e}",
                                cp.name
                            ));
                        }
                    }
                    Ok(())
                });
            (
                match result {
                    Ok(()) => Response::Ok,
                    Err(err) => Response::Error(err),
                },
                Flow::Continue,
            )
        }
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            // Wake the accept loop out of `accept()`; the connection is
            // dropped immediately on the other side. Failure is harmless —
            // the next real connection attempt wakes the loop the same way.
            let _ = TcpStream::connect_timeout(&wakeup_addr(wake_addr), DRAIN_POLL);
            (Response::Ok, Flow::Close)
        }
    }
}

fn draining_error() -> Response {
    Response::Error(WireError::new(
        ErrorCode::Draining,
        "server is draining; no new streams or edges accepted",
    ))
}

/// Writes the stream's checkpoint if the server persists state and the
/// stream just crossed a checkpoint-interval boundary. Persistence
/// failures are logged and absorbed: losing one checkpoint widens the
/// replay window, it must not fail the ingest that triggered it.
fn maybe_checkpoint(shared: &Shared, entry: &StreamEntry, batches: u64) {
    let Some(dir) = shared.state_dir.as_deref() else {
        return;
    };
    if !entry.snapshotable() || !batches.is_multiple_of(shared.checkpoint_interval) {
        return;
    }
    let written = checkpoint_stream(entry).and_then(|cp| {
        write_checkpoint(dir, &cp)
            .map_err(|e| WireError::new(ErrorCode::BadSnapshot, e.to_string()))
    });
    if let Err(e) = written {
        log_event(&format!(
            "failed to checkpoint stream {:?}: {e}",
            entry.name()
        ));
    }
}

/// One operational log line on stderr, prefixed so supervisor logs are
/// greppable. The serving layer logs only operational events (recovery,
/// skipped checkpoints, closed connections) — stream state never depends
/// on them.
fn log_event(message: &str) {
    eprintln!("tristream-serve: {message}");
}

/// `" from <peer>"` when the peer address is known, for log lines.
fn peer_label(conn: &TcpStream) -> String {
    conn.peer_addr()
        .map(|addr| format!(" from {addr}"))
        .unwrap_or_default()
}
