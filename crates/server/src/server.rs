//! The socket serving tier: `TcpListener` + per-connection thread pairs in
//! front of [`BatchScheduler::serve`].
//!
//! ## Threading model
//!
//! One accept thread plus **two threads per connection**: a *reader* that
//! decodes frames and submits queries, and a *writer* that waits on the
//! [`Ticket`]s the scheduler has yet to resolve. Replies leave in request
//! order by one rule. A reply that is complete when the reader handles its
//! frame (a query answered from the answer cache at submit, PONG, the
//! METRICS scrape, a protocol error, a drain shed, the SHUTDOWN ack) is
//! written by the reader itself whenever no earlier reply of the
//! connection is still queued for the writer. A ticket still pending, and
//! every reply behind one, goes to the writer through a bounded channel
//! sized [`ServerConfig::max_pipeline`]. Besides the channel the pair
//! shares one count, of the replies queued for the writer: the reader
//! raises it before it sends, the writer lowers it after its write has
//! finished.
//!
//! So a cache hit on an idle connection crosses no thread, and a reply
//! that waits on the engine is written as soon as [`Ticket::wait`] wakes
//! the writer. A client that floods requests behind a pending ticket
//! without reading replies blocks its reader on the full channel; one that
//! stops reading ready replies blocks the reader on its socket until
//! [`ServerConfig::write_timeout`] cuts the connection off. No mutexes, no
//! polling on the reply path.
//!
//! ## Hardening (every peer is untrusted)
//!
//! * frame lengths are validated against [`ServerConfig::max_frame_len`]
//!   **before any allocation**;
//! * payload checksums are verified before a request is dispatched;
//! * a started frame must complete within [`ServerConfig::frame_timeout`]
//!   (slowloris) and an idle connection is closed after
//!   [`ServerConfig::idle_timeout`];
//! * every reply, and each handshake write, must be out within
//!   [`ServerConfig::write_timeout`], however the peer paces its reads;
//! * the connection count is capped; excess peers get a typed `Busy` frame;
//! * graceful drain: in-flight tickets resolve, queries arriving inside
//!   the [`ServerConfig::drain_grace`] window are answered
//!   `Shed(Shutdown)`, then connections close and the scheduler drains.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgraph::io::codec::checksum64;
use obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
use sgq::sched::{BatchScheduler, SchedBackend, SchedHandle, SchedOutcome, ShedReason, Ticket};
use sgq::{Result, SgqError};

use crate::proto::{
    self, encode_query_reply, encode_response, frame, validate_frame_len, ErrorCode, Request,
    Response, MAGIC,
};

/// Tuning for the serving tier. Defaults are production-shaped; tests
/// shrink the timeouts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on a frame's payload length, enforced before allocation.
    pub max_frame_len: u32,
    /// Socket read timeout granularity — how often blocked reads wake to
    /// check the drain flag and deadlines.
    pub read_poll: Duration,
    /// A started frame must complete within this window (slowloris guard).
    pub frame_timeout: Duration,
    /// A connection with no traffic at a frame boundary is closed after
    /// this long.
    pub idle_timeout: Duration,
    /// Time one reply's write may take as a whole, from its first byte to
    /// its last; a peer that stops reading, or reads too slowly to take a
    /// reply in time, is cut off.
    pub write_timeout: Duration,
    /// Replies a connection may have queued for its writer thread (pending
    /// tickets and every reply behind one) before its reader blocks. A
    /// ready reply on an idle connection is written by the reader and
    /// takes no slot, so a peer that stops reading those blocks the reader
    /// on its socket, until `write_timeout`, instead.
    pub max_pipeline: usize,
    /// Concurrent connection cap; excess peers get a `Busy` error frame.
    pub max_connections: usize,
    /// After drain begins, queries already in the pipe are answered
    /// `Shed(Shutdown)` for this long before the connection closes.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame_len: proto::DEFAULT_MAX_FRAME_LEN,
            read_poll: Duration::from_millis(25),
            frame_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            max_pipeline: 128,
            max_connections: 256,
            drain_grace: Duration::from_millis(500),
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that would disable the hardening (zero
    /// timeouts, unbounded frames) or overflow deadline arithmetic.
    pub fn validate(&self) -> Result<()> {
        let hour = Duration::from_secs(3600);
        if self.max_frame_len < 4096 {
            return Err(SgqError::InvalidConfig(format!(
                "max_frame_len {} below the 4 KiB protocol minimum",
                self.max_frame_len
            )));
        }
        if self.max_frame_len > (1 << 26) {
            return Err(SgqError::InvalidConfig(format!(
                "max_frame_len {} above the 64 MiB cap",
                self.max_frame_len
            )));
        }
        if self.read_poll.is_zero() || self.read_poll > hour {
            return Err(SgqError::InvalidConfig(
                "read_poll must be in (0, 1h]".into(),
            ));
        }
        for (name, d) in [
            ("frame_timeout", self.frame_timeout),
            ("idle_timeout", self.idle_timeout),
            ("write_timeout", self.write_timeout),
        ] {
            if d < self.read_poll || d > hour {
                return Err(SgqError::InvalidConfig(format!(
                    "{name} must be in [read_poll, 1h]"
                )));
            }
        }
        if self.drain_grace > hour {
            return Err(SgqError::InvalidConfig("drain_grace must be <= 1h".into()));
        }
        if self.max_pipeline == 0 {
            return Err(SgqError::InvalidConfig("max_pipeline must be >= 1".into()));
        }
        if self.max_connections == 0 {
            return Err(SgqError::InvalidConfig(
                "max_connections must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// Pre-registered serving-tier metrics (one registry, shared handles).
struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    connections_total: Counter,
    connections_open: Gauge,
    requests_query: Counter,
    requests_metrics: Counter,
    requests_ping: Counter,
    requests_shutdown: Counter,
    resp_exact: Counter,
    resp_degraded: Counter,
    resp_shed: Counter,
    resp_failed: Counter,
    drain_shed: Counter,
    busy_rejects: Counter,
    replies_reader: Counter,
    replies_writer: Counter,
    frame_bytes: Histogram,
}

impl ServerMetrics {
    fn new(addr: SocketAddr) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let r = &registry;
        // Endpoint-derived label value: exercises the exposition-format
        // escaping on every scrape.
        r.gauge_labeled(
            "semkg_server_info",
            "addr",
            &addr.to_string(),
            "listener address (value 1 while serving)",
        )
        .set(1);
        Self {
            connections_total: r.counter("semkg_server_connections_total", "connections accepted"),
            connections_open: r.gauge(
                "semkg_server_connections_open",
                "connections currently open",
            ),
            requests_query: r.counter_labeled(
                "semkg_server_requests_total",
                "kind",
                "query",
                "requests decoded, by kind",
            ),
            requests_metrics: r.counter_labeled(
                "semkg_server_requests_total",
                "kind",
                "metrics",
                "requests decoded, by kind",
            ),
            requests_ping: r.counter_labeled(
                "semkg_server_requests_total",
                "kind",
                "ping",
                "requests decoded, by kind",
            ),
            requests_shutdown: r.counter_labeled(
                "semkg_server_requests_total",
                "kind",
                "shutdown",
                "requests decoded, by kind",
            ),
            resp_exact: r.counter_labeled(
                "semkg_server_responses_total",
                "outcome",
                "exact",
                "query replies sent, by outcome",
            ),
            resp_degraded: r.counter_labeled(
                "semkg_server_responses_total",
                "outcome",
                "degraded",
                "query replies sent, by outcome",
            ),
            resp_shed: r.counter_labeled(
                "semkg_server_responses_total",
                "outcome",
                "shed",
                "query replies sent, by outcome",
            ),
            resp_failed: r.counter_labeled(
                "semkg_server_responses_total",
                "outcome",
                "failed",
                "query replies sent, by outcome",
            ),
            drain_shed: r.counter(
                "semkg_server_drain_shed_total",
                "queries answered Shed(Shutdown) during drain",
            ),
            busy_rejects: r.counter(
                "semkg_server_busy_rejects_total",
                "connections refused at the connection cap",
            ),
            replies_reader: r.counter_labeled(
                "semkg_server_replies_total",
                "path",
                "reader",
                "replies written, by the connection thread that wrote them",
            ),
            replies_writer: r.counter_labeled(
                "semkg_server_replies_total",
                "path",
                "writer",
                "replies written, by the connection thread that wrote them",
            ),
            frame_bytes: r.histogram("semkg_server_frame_bytes", "request frame payload sizes"),
            registry,
        }
    }

    fn count_protocol_error(&self, code: ErrorCode) {
        self.registry
            .counter_labeled(
                "semkg_server_protocol_errors_total",
                "kind",
                &code.to_string(),
                "frames rejected before dispatch, by error code",
            )
            .inc();
    }

    /// Counts a query's outcome and frames its reply.
    fn query_reply(&self, outcome: &SchedOutcome) -> Vec<u8> {
        match outcome {
            SchedOutcome::Exact(_) => self.resp_exact.inc(),
            SchedOutcome::Degraded { .. } => self.resp_degraded.inc(),
            SchedOutcome::Shed(_) => self.resp_shed.inc(),
            SchedOutcome::Failed(_) => self.resp_failed.inc(),
        }
        frame(&encode_query_reply(outcome))
    }
}

/// Shared flags + metrics for one serving session.
struct ServerState {
    draining: AtomicBool,
    open: AtomicUsize,
    metrics: ServerMetrics,
}

/// Sets `draining` when dropped, so a panicking [`serve`] closure drains
/// the accept and connection threads and the panic propagates instead of
/// the thread scope waiting on them forever.
struct DrainOnDrop<'a>(&'a AtomicBool);

impl Drop for DrainOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Handle passed to the [`serve`] closure: observe and control the running
/// server (mirrors [`SchedHandle`] one layer down).
pub struct ServerHandle<'a> {
    addr: SocketAddr,
    state: &'a ServerState,
}

impl ServerHandle<'_> {
    /// The bound listener address (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once drain has begun (wire `Shutdown` request or
    /// [`ServerHandle::begin_drain`]).
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::Acquire)
    }

    /// Starts a graceful drain: stop accepting, answer in-pipe queries
    /// `Shed(Shutdown)`, close connections after the grace window.
    pub fn begin_drain(&self) {
        self.state.draining.store(true, Ordering::Release);
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.state.open.load(Ordering::Acquire)
    }

    /// The serving tier's own metrics registry (the scrape endpoint merges
    /// this with the scheduler's and any extra registries).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.state.metrics.registry)
    }
}

/// Runs the serving tier over `listener` until the closure returns (its
/// return triggers drain) or a wire `Shutdown` request drains it first.
///
/// `extra` registries (typically the backing service's) are merged into
/// every metrics scrape alongside the scheduler's and the server's own,
/// after [`SchedBackend::refresh_gauges`] has updated the backend's gauges.
/// The closure runs on the caller's thread with accept/connection threads
/// scoped around it — a minimal run loop is
/// `|h| while !h.is_draining() { std::thread::sleep(POLL) }`.
pub fn serve<B, F, R>(
    listener: TcpListener,
    backend: &B,
    sched: sgq::SchedConfig,
    config: ServerConfig,
    extra: &[Arc<MetricsRegistry>],
    f: F,
) -> Result<R>
where
    B: SchedBackend,
    F: FnOnce(&ServerHandle<'_>) -> R,
{
    config.validate()?;
    let addr = listener
        .local_addr()
        .map_err(|e| SgqError::Scheduler(format!("listener address: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| SgqError::Scheduler(format!("nonblocking listener: {e}")))?;
    let state = ServerState {
        draining: AtomicBool::new(false),
        open: AtomicUsize::new(0),
        metrics: ServerMetrics::new(addr),
    };
    BatchScheduler::serve(backend, sched, |handle| {
        std::thread::scope(|s| {
            let state = &state;
            let config = &config;
            s.spawn(|| accept_loop(s, &listener, handle, backend, config, extra, state));
            // The closure returning is the SIGTERM-equivalent: drain. So
            // is its panic.
            let _drain = DrainOnDrop(&state.draining);
            f(&ServerHandle { addr, state })
            // Scope exit joins the accept thread and every connection
            // pair; in-flight tickets resolve while the scheduler is
            // still live, then `BatchScheduler::serve` drains its queue.
        })
    })
}

fn accept_loop<'scope, 'env, B: SchedBackend>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    listener: &'scope TcpListener,
    handle: &'scope SchedHandle<'_, B>,
    backend: &'scope B,
    config: &'scope ServerConfig,
    extra: &'scope [Arc<MetricsRegistry>],
    state: &'scope ServerState,
) {
    while !state.draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                state.metrics.connections_total.inc();
                if state.open.load(Ordering::Acquire) >= config.max_connections {
                    state.metrics.busy_rejects.inc();
                    reject_busy(stream, config);
                    continue;
                }
                state.open.fetch_add(1, Ordering::AcqRel);
                state.metrics.connections_open.add(1);
                s.spawn(move || {
                    connection(stream, handle, backend, config, extra, state);
                    state.open.fetch_sub(1, Ordering::AcqRel);
                    state.metrics.connections_open.add(-1);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Refuses a connection over the cap: magic + `Busy` error frame, then a
/// short read-drain so the reply is not torn away by a reset.
fn reject_busy(mut stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_read_timeout(Some(config.read_poll));
    let _ = stream.set_nodelay(true);
    if !write_within(&mut stream, &MAGIC, config.write_timeout) {
        return;
    }
    let payload = encode_response(&Response::Error {
        code: ErrorCode::Busy,
        detail: "connection limit reached, retry later".into(),
    });
    if !write_within(&mut stream, &frame(&payload), config.write_timeout) {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    // Drain whatever the peer already sent (its magic echo at least) so
    // closing does not reset the socket before the error frame is read.
    let deadline = Instant::now() + config.frame_timeout;
    let mut scratch = [0u8; 256];
    while Instant::now() < deadline {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Writes all of `bytes` within `timeout` of the call, on a socket whose
/// send timeout is `timeout` between calls. Each `write` returns what it
/// moved before the socket timeout fired, so after a partial write the
/// timeout drops to the time left and goes back to `timeout` once the
/// bytes are out: a write that takes them whole costs no extra syscall.
/// False when the peer did not take them in time or the socket failed.
fn write_within(stream: &mut TcpStream, bytes: &[u8], timeout: Duration) -> bool {
    let start = Instant::now();
    let mut rest = bytes;
    let mut lowered = false;
    let written = loop {
        match stream.write(rest) {
            Ok(n) if n == rest.len() => break true,
            Ok(0) => break false,
            Ok(n) => match rest.get(n..) {
                Some(tail) => rest = tail,
                None => break false,
            },
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
        let left = timeout.saturating_sub(start.elapsed());
        if left.is_zero() || stream.set_write_timeout(Some(left)).is_err() {
            break false;
        }
        lowered = true;
    };
    if lowered {
        let _ = stream.set_write_timeout(Some(timeout));
    }
    written
}

/// One reply as the reader hands it on.
enum Reply {
    /// A submitted query, resolved or not.
    Ticket(Ticket),
    /// An already-framed reply (metrics, pong, the shutdown ack, errors,
    /// drain sheds).
    Immediate(Vec<u8>),
}

/// A connection's reply path, held by its reader: ready replies are
/// written here, the rest queue for the writer thread.
struct Replies<'a> {
    tx: SyncSender<Reply>,
    /// Replies sent to the writer and not yet written by it.
    queued: &'a AtomicUsize,
    metrics: &'a ServerMetrics,
    write_timeout: Duration,
}

impl Replies<'_> {
    /// Writes `reply` on the reader's own socket if it is ready (framed
    /// bytes or a resolved ticket) and the writer holds nothing of this
    /// connection; otherwise queues it for the writer. False once the
    /// connection is dead.
    fn send(&self, stream: &mut TcpStream, reply: Reply) -> bool {
        // Acquire pairs with the writer's Release decrement: reading 0
        // means every reply the writer was sent has been written, so one
        // written here follows them on the socket.
        let reply = if self.queued.load(Ordering::Acquire) == 0 {
            let ready = match reply {
                Reply::Immediate(bytes) => Ok(bytes),
                Reply::Ticket(ticket) => ticket
                    .try_wait()
                    .map(|response| self.metrics.query_reply(&response.outcome)),
            };
            match ready {
                Ok(bytes) => {
                    self.metrics.replies_reader.inc();
                    return write_within(stream, &bytes, self.write_timeout);
                }
                Err(ticket) => Reply::Ticket(ticket),
            }
        } else {
            reply
        };
        // lint-ok(atomic-ordering): only this thread reads the count for a decision, and it raises it before the send that hands the writer the reply to lower it for.
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.tx.send(reply).is_ok()
    }
}

fn connection<B: SchedBackend>(
    mut stream: TcpStream,
    handle: &SchedHandle<'_, B>,
    backend: &B,
    config: &ServerConfig,
    extra: &[Arc<MetricsRegistry>],
    state: &ServerState,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_poll));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    if !write_within(&mut stream, &MAGIC, config.write_timeout) {
        return;
    }
    // The peer must echo the magic before its first frame; anything else
    // (HTTP, a port scan) is cut off with a typed error.
    let deadline = Instant::now() + config.frame_timeout;
    let mut echo: Vec<u8> = Vec::with_capacity(MAGIC.len());
    loop {
        if echo.len() == MAGIC.len() {
            break;
        }
        if Instant::now() >= deadline {
            state.metrics.count_protocol_error(ErrorCode::BadMagic);
            return;
        }
        let want = MAGIC.len() - echo.len();
        match pull(&mut stream, &mut echo, want) {
            Pull::Got | Pull::WouldBlock => {}
            Pull::Eof | Pull::Err => return,
        }
    }
    if echo != MAGIC {
        state.metrics.count_protocol_error(ErrorCode::BadMagic);
        let payload = encode_response(&Response::Error {
            code: ErrorCode::BadMagic,
            detail: "connection preamble is not SKGWIRE1".into(),
        });
        write_within(&mut stream, &frame(&payload), config.write_timeout);
        return;
    }
    let Ok(wstream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = std::sync::mpsc::sync_channel::<Reply>(config.max_pipeline);
    let queued = AtomicUsize::new(0);
    let metrics = &state.metrics;
    std::thread::scope(|cs| {
        let queued = &queued;
        let write_timeout = config.write_timeout;
        cs.spawn(move || writer_loop(wstream, rx, queued, metrics, write_timeout));
        let replies = Replies {
            tx,
            queued,
            metrics,
            write_timeout,
        };
        reader_loop(&mut stream, handle, backend, config, extra, state, &replies);
        // Reader done: half-close our send side only after the writer has
        // flushed (it owns the clone); dropping the sender ends its loop.
        drop(replies);
    });
    let _ = stream.shutdown(Shutdown::Both);
}

fn writer_loop(
    mut stream: TcpStream,
    rx: Receiver<Reply>,
    queued: &AtomicUsize,
    metrics: &ServerMetrics,
    write_timeout: Duration,
) {
    // After a write failure the channel is still drained — tickets must be
    // waited on (and counted) even when the peer is gone.
    let mut sink_dead = false;
    for reply in rx {
        let bytes = match reply {
            Reply::Immediate(bytes) => bytes,
            Reply::Ticket(ticket) => metrics.query_reply(&ticket.wait().outcome),
        };
        if !sink_dead {
            metrics.replies_writer.inc();
            sink_dead = !write_within(&mut stream, &bytes, write_timeout);
        }
        // Release pairs with the reader's Acquire load in `Replies::send`:
        // this write happens before any reply the reader writes after it
        // reads the count this lowers.
        queued.fetch_sub(1, Ordering::Release);
    }
    if !sink_dead {
        let _ = stream.flush();
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop<B: SchedBackend>(
    stream: &mut TcpStream,
    handle: &SchedHandle<'_, B>,
    backend: &B,
    config: &ServerConfig,
    extra: &[Arc<MetricsRegistry>],
    state: &ServerState,
    replies: &Replies<'_>,
) {
    let metrics = &state.metrics;
    let mut last_activity = Instant::now();
    let mut drain_started: Option<Instant> = None;
    loop {
        let draining = state.draining.load(Ordering::Acquire);
        if draining {
            let started = *drain_started.get_or_insert_with(Instant::now);
            if started.elapsed() >= config.drain_grace {
                return;
            }
        }
        let recv = recv_frame(stream, config);
        match recv {
            Recv::Nothing => {
                if !draining && last_activity.elapsed() >= config.idle_timeout {
                    return;
                }
                continue;
            }
            Recv::Closed => return,
            Recv::Torn => {
                // Torn final frame / slowloris: nothing useful to say to a
                // peer that stopped mid-frame. Count and close.
                metrics.count_protocol_error(ErrorCode::Malformed);
                return;
            }
            Recv::Io => return,
            Recv::TooLarge(len) => {
                metrics.count_protocol_error(ErrorCode::FrameTooLarge);
                let payload = encode_response(&Response::Error {
                    code: ErrorCode::FrameTooLarge,
                    detail: format!("frame length {len} outside (0, {}]", config.max_frame_len),
                });
                replies.send(stream, Reply::Immediate(frame(&payload)));
                return;
            }
            Recv::BadChecksum => {
                metrics.count_protocol_error(ErrorCode::ChecksumMismatch);
                let payload = encode_response(&Response::Error {
                    code: ErrorCode::ChecksumMismatch,
                    detail: "payload checksum mismatch".into(),
                });
                replies.send(stream, Reply::Immediate(frame(&payload)));
                return;
            }
            Recv::Frame(payload) => {
                last_activity = Instant::now();
                metrics.frame_bytes.record(payload.len() as u64);
                let reply = match proto::decode_request(&payload) {
                    Ok(Request::Query {
                        query,
                        deadline_us,
                        priority,
                    }) => {
                        metrics.requests_query.inc();
                        // Re-load: drain may have begun while this frame
                        // was in flight inside `recv_frame`.
                        if state.draining.load(Ordering::Acquire) {
                            // The scheduler's drain begins only after the
                            // connection threads exit; the serving tier
                            // itself sheds new arrivals first.
                            metrics.drain_shed.inc();
                            Reply::Immediate(
                                metrics.query_reply(&SchedOutcome::Shed(ShedReason::Shutdown)),
                            )
                        } else {
                            Reply::Ticket(handle.submit(
                                &query,
                                Duration::from_micros(deadline_us),
                                priority,
                            ))
                        }
                    }
                    Ok(Request::Metrics) => {
                        metrics.requests_metrics.inc();
                        let text =
                            render_scrape(backend, handle, extra, state, config.max_frame_len);
                        Reply::Immediate(frame(&encode_response(&Response::Metrics(text))))
                    }
                    Ok(Request::Ping) => {
                        metrics.requests_ping.inc();
                        let pong = Response::Pong(backend.current_epoch());
                        Reply::Immediate(frame(&encode_response(&pong)))
                    }
                    Ok(Request::Shutdown) => {
                        metrics.requests_shutdown.inc();
                        // Drain begins before the ack can reach the peer,
                        // which may act on it at once.
                        state.draining.store(true, Ordering::Release);
                        let ack = frame(&encode_response(&Response::ShutdownAck));
                        replies.send(stream, Reply::Immediate(ack));
                        continue;
                    }
                    Err(we) => {
                        metrics.count_protocol_error(we.code);
                        let payload = encode_response(&Response::Error {
                            code: we.code,
                            detail: we.detail,
                        });
                        replies.send(stream, Reply::Immediate(frame(&payload)));
                        return;
                    }
                };
                if !replies.send(stream, reply) {
                    return;
                }
            }
        }
    }
}

/// Merged scrape: extra registries (the backing service, its gauges
/// refreshed first), the scheduler's snapshot, then the server's own —
/// truncated at a char boundary to fit one frame.
fn render_scrape<B: SchedBackend>(
    backend: &B,
    handle: &SchedHandle<'_, B>,
    extra: &[Arc<MetricsRegistry>],
    state: &ServerState,
    max_frame_len: u32,
) -> String {
    backend.refresh_gauges();
    let mut snap = MetricsSnapshot::default();
    for registry in extra {
        snap.extend(registry.snapshot());
    }
    snap.extend(handle.metrics());
    snap.extend(state.metrics.registry.snapshot());
    let mut text = snap.to_prometheus();
    // Frame budget: kind byte + u32 string length prefix.
    let budget = (max_frame_len as usize).saturating_sub(8);
    if text.len() > budget {
        let mut cut = budget;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
    }
    text
}

// ---------------------------------------------------------------------------
// Frame reception
// ---------------------------------------------------------------------------

enum Recv {
    /// A complete, checksum-verified payload.
    Frame(Vec<u8>),
    /// No bytes arrived within one poll interval.
    Nothing,
    /// Clean EOF at a frame boundary.
    Closed,
    /// EOF or deadline expiry mid-frame.
    Torn,
    /// Length prefix outside `(0, max_frame_len]`.
    TooLarge(u32),
    /// Frame completed but the checksum did not verify.
    BadChecksum,
    /// Unrecoverable socket error.
    Io,
}

enum Pull {
    Got,
    WouldBlock,
    Eof,
    Err,
}

/// Reads up to `want` more bytes into `out` (single `read` call; the
/// socket's read timeout bounds the wait).
fn pull(stream: &mut TcpStream, out: &mut Vec<u8>, want: usize) -> Pull {
    let mut tmp = [0u8; 4096];
    let n = want.min(tmp.len());
    let Some(dst) = tmp.get_mut(..n) else {
        return Pull::Err;
    };
    match stream.read(dst) {
        Ok(0) => Pull::Eof,
        Ok(got) => {
            if let Some(chunk) = dst.get(..got) {
                out.extend_from_slice(chunk);
            }
            Pull::Got
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Pull::WouldBlock
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Pull::Got,
        Err(_) => Pull::Err,
    }
}

/// Receives one frame. The length prefix is validated before the payload
/// buffer is allocated; once the first header byte arrives the whole frame
/// must complete within [`ServerConfig::frame_timeout`].
fn recv_frame(stream: &mut TcpStream, config: &ServerConfig) -> Recv {
    let mut header: Vec<u8> = Vec::with_capacity(4);
    match pull(stream, &mut header, 4) {
        Pull::WouldBlock => return Recv::Nothing,
        Pull::Eof => return Recv::Closed,
        Pull::Err => return Recv::Io,
        Pull::Got => {}
    }
    let deadline = Instant::now() + config.frame_timeout;
    while header.len() < 4 {
        if Instant::now() >= deadline {
            return Recv::Torn;
        }
        let want = 4 - header.len();
        match pull(stream, &mut header, want) {
            Pull::Eof => return Recv::Torn,
            Pull::Err => return Recv::Io,
            Pull::Got | Pull::WouldBlock => {}
        }
    }
    let Ok(len_bytes) = <[u8; 4]>::try_from(header.as_slice()) else {
        return Recv::Io;
    };
    let len = u32::from_le_bytes(len_bytes);
    if validate_frame_len(len, config.max_frame_len).is_err() {
        return Recv::TooLarge(len);
    }
    // Cap held: at most max_frame_len + 8 bytes are ever allocated here.
    let total = len as usize + 8;
    let mut body: Vec<u8> = Vec::with_capacity(total);
    while body.len() < total {
        if Instant::now() >= deadline {
            return Recv::Torn;
        }
        let want = total - body.len();
        match pull(stream, &mut body, want) {
            Pull::Eof => return Recv::Torn,
            Pull::Err => return Recv::Io,
            Pull::Got | Pull::WouldBlock => {}
        }
    }
    let Some(payload) = body.get(..len as usize) else {
        return Recv::Io;
    };
    let Some(tail) = body.get(len as usize..) else {
        return Recv::Io;
    };
    let Ok(checksum_bytes) = <[u8; 8]>::try_from(tail) else {
        return Recv::Io;
    };
    if u64::from_le_bytes(checksum_bytes) != checksum64(payload) {
        return Recv::BadChecksum;
    }
    body.truncate(len as usize);
    Recv::Frame(body)
}
