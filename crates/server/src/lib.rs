//! # proust-server
//!
//! A networked transactional data-structure server: clients speak either
//! a small line-oriented TCP protocol ([`proto`]) or a compact binary
//! framing (`proust-codec`) against named maps, counters, FIFO queues,
//! and ordered maps (point ops plus `SCAN` range scans), and every
//! request — single op or `MULTI … EXEC` / `BATCH` block — executes as
//! one Proust transaction ([`engine`]).
//!
//! Architecture:
//!
//! * **readiness-driven reactor** — one acceptor thread parked on
//!   `epoll` hands sockets round-robin to `shards` reactor event loops
//!   (`proust-reactor`); each shard owns its connections outright, so
//!   concurrency is bounded by file descriptors, not threads;
//! * **protocol sniffing** — the first byte of each connection selects
//!   the wire: `0xB7` is a binary request frame, anything else is the
//!   text protocol. Both decode into the same typed command model and
//!   share one execution path;
//! * **pipelining + commit-batching** — every readable edge drains all
//!   complete requests; up to 16 (`MAX_BATCH`) of them execute as a
//!   *single* transaction attempt, falling back to per-request
//!   transactions when the batch aborts (see
//!   [`engine::Engine::execute`]). Responses are
//!   queued per connection with backpressure: a peer that stops reading
//!   has its socket paused at the reactor's high-water mark;
//! * **graceful shutdown** — `SHUTDOWN` (or [`ServerHandle::shutdown`])
//!   rings every event loop's doorbell; shards answer the requests they
//!   have already buffered, flush, close, and the STM runtime quiesces
//!   so no transaction is abandoned mid-commit.
//!
//! The structures a server instance exposes are chosen by the Proust
//! design-space axes: `--lap pessimistic|optimistic` picks the
//! lock-allocator policy and `--update eager|lazy` the update strategy.
//! The non-Proustian comparison maps are measured in process, not through
//! the server: by `figure4`, the `lib-*` benchmark workloads, and the
//! `baselines.*` ladder rungs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binary;
pub mod engine;
mod metrics;
pub mod proto;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proust_bench::args::{LapChoice, UpdateChoice};
use proust_reactor::{
    Conn, ConnHandler, Directive, Events, Poller, ReactorMetrics, Shard, ShardInbox, Wakeup,
    INTEREST_ACCEPT, INTEREST_WAKEUP,
};
use proust_stm::obs::Phase;

pub use engine::{Engine, Op, Resp, StageBreakdown, Unit, Waterfall};

/// Everything a server instance needs to know at startup.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Lock-allocator policy axis for the Proustian structures.
    pub lap: LapChoice,
    /// Update-strategy axis for the Proustian maps.
    pub update: UpdateChoice,
    /// Reactor event-loop threads; each owns a slice of the connections.
    pub shards: usize,
    /// Bind address for the Prometheus `/metrics` listener; `None`
    /// disables it. Port 0 picks a free port (see
    /// [`ServerHandle::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// Requests slower than this log a forensics JSON line to stderr;
    /// `None` disables the slow log.
    pub slow_threshold: Option<Duration>,
    /// Flight-recorder sampling period: 1-in-N transactions record
    /// per-phase spans (0 = off). Runtime-adjustable via `TRACE START`.
    pub trace_sample: u64,
    /// Durability directory: enables the write-ahead log, with crash
    /// recovery replayed from it on boot. `None` keeps the server
    /// memory-only.
    pub data_dir: Option<std::path::PathBuf>,
    /// When to fsync WAL appends (only meaningful with `data_dir`).
    pub fsync_policy: proust_wal::FsyncPolicy,
    /// Fault injection: corrupt the WAL tail before recovery runs, to
    /// prove the torn-tail truncation path bites (`--chaos-torn-tail`).
    pub chaos_torn_tail: bool,
    /// Fault injection: stall every real WAL fsync by this long, modeling
    /// a slow disk, so fsync_wait attribution in the request waterfall
    /// can be exercised deterministically (`--chaos-fsync-delay-ms`).
    pub chaos_fsync_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            lap: LapChoice::default(),
            update: UpdateChoice::default(),
            shards: 2,
            metrics_addr: None,
            slow_threshold: None,
            trace_sample: 64,
            data_dir: None,
            fsync_policy: proust_wal::FsyncPolicy::default(),
            chaos_torn_tail: false,
            chaos_fsync_delay: None,
        }
    }
}

/// Maximum parsed requests per commit-batched transaction attempt.
const MAX_BATCH: usize = 16;

/// How often [`ServerHandle::wait`] re-checks the shutdown flag.
const WAIT_POLL: Duration = Duration::from_millis(50);
/// How long shutdown waits for in-flight transactions to drain.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(2);

/// Doorbell token on the acceptor/metrics pollers.
const TOKEN_DOORBELL: u64 = 0;
/// Listener token on the acceptor/metrics pollers.
const TOKEN_LISTENER: u64 = 1;

struct Shared {
    engine: Engine,
    shutdown: AtomicBool,
    reactor: ReactorMetrics,
    inboxes: Vec<ShardInbox>,
    acceptor_wakeup: Wakeup,
    metrics_wakeup: Option<Wakeup>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("engine", &self.engine)
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

impl Shared {
    /// Raise the shutdown flag and ring every parked event loop's
    /// doorbell. Idempotent; no thread in the subsystem sleep-polls, so
    /// shutdown latency is one epoll wakeup, not a poll interval.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for inbox in &self.inboxes {
            inbox.notify();
        }
        self.acceptor_wakeup.notify();
        if let Some(wakeup) = &self.metrics_wakeup {
            wakeup.notify();
        }
    }
}

/// A running server: spawned threads plus the handle used to stop them.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Bind, spawn the acceptor and the reactor shards, and return a
    /// handle. The listener is live when this returns.
    ///
    /// # Errors
    ///
    /// Propagates bind and epoll/eventfd setup failures.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr)?;
                listener.set_nonblocking(true)?;
                Some(listener)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let shard_count = config.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut inboxes = Vec::with_capacity(shard_count);
        for id in 0..shard_count {
            let (shard, inbox) = Shard::new(id)?;
            shards.push(shard);
            inboxes.push(inbox);
        }
        let shared = Arc::new(Shared {
            engine: Engine::open(&config)?,
            shutdown: AtomicBool::new(false),
            reactor: ReactorMetrics::new(shard_count),
            inboxes,
            acceptor_wakeup: Wakeup::new()?,
            metrics_wakeup: match metrics_listener {
                Some(_) => Some(Wakeup::new()?),
                None => None,
            },
        });
        let mut threads = Vec::with_capacity(shard_count + 2);
        if let Some(listener) = metrics_listener {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("metrics".to_string())
                    .spawn(move || metrics_loop(&listener, &shared))
                    .expect("spawn metrics listener"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))
                    .expect("spawn acceptor"),
            );
        }
        for (index, shard) in shards.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("shard-{index}"))
                    .spawn(move || {
                        shard.run(
                            || ProtoHandler::new(Arc::clone(&shared), index),
                            &shared.reactor,
                            &shared.shutdown,
                        );
                    })
                    .expect("spawn reactor shard"),
            );
        }
        Ok(ServerHandle { addr, metrics_addr, shared, threads })
    }
}

/// Handle to a running server: its bound address and the means to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address the Prometheus `/metrics` listener bound, when
    /// configured (resolves port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Whether a shutdown (command or handle) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// One-line JSON stats snapshot (same payload as the `STATS` command).
    pub fn stats_json(&self) -> String {
        self.shared.engine.stats_json(Some(&self.shared.reactor)).to_json()
    }

    /// `(records replayed, torn-tail bytes truncated, torn tails seen)`
    /// from startup recovery; all zeros without `--data-dir`.
    pub fn recovery_stats(&self) -> (u64, u64, u64) {
        self.shared.engine.recovery_stats()
    }

    /// Request a graceful shutdown and wait for it to complete: the
    /// acceptor stops, shards answer the requests they have already
    /// buffered, and the STM runtime quiesces. Returns `true` if every
    /// in-flight transaction drained within the timeout.
    pub fn shutdown(self) -> bool {
        self.shared.begin_shutdown();
        self.join_all()
    }

    /// Block until something else requests shutdown (e.g. a client's
    /// `SHUTDOWN` command), then finish the drain as [`Self::shutdown`].
    pub fn wait(self) -> bool {
        while !self.shared.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(WAIT_POLL);
        }
        self.shared.begin_shutdown();
        self.join_all()
    }

    fn join_all(self) -> bool {
        for thread in self.threads {
            let _ = thread.join();
        }
        let drained = self.shared.engine.stm().quiesce(QUIESCE_TIMEOUT);
        // Drain-then-checkpoint: only a quiesced engine may checkpoint
        // (Engine::checkpoint re-verifies no transaction is in flight).
        // A failed or skipped checkpoint is not a failed shutdown — the
        // WAL alone still recovers everything.
        if drained {
            if let Err(err) = self.shared.engine.checkpoint() {
                eprintln!("checkpoint skipped: {err}");
            }
        }
        drained
    }
}

/// Accept loop: parked on its own poller (listener + shutdown doorbell),
/// so an idle server makes zero syscalls. Accepted sockets go round-robin
/// to the shard inboxes; each push rings the target shard's doorbell.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let Ok(poller) = Poller::new() else { return };
    if poller.add(shared.acceptor_wakeup.as_raw_fd(), TOKEN_DOORBELL, INTEREST_WAKEUP).is_err() {
        return;
    }
    if poller.add(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_ACCEPT).is_err() {
        return;
    }
    let mut events = Events::with_capacity(4);
    let mut next_shard = 0usize;
    loop {
        if poller.wait(&mut events, -1).is_err() {
            return;
        }
        shared.acceptor_wakeup.drain();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    shared.inboxes[next_shard % shared.inboxes.len()].push(stream);
                    next_shard = next_shard.wrapping_add(1);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

/// Accept loop for the dedicated `/metrics` listener, parked the same way
/// as [`accept_loop`]. Each connection is one scrape: read the request
/// head, answer, close.
fn metrics_loop(listener: &TcpListener, shared: &Shared) {
    let Some(wakeup) = &shared.metrics_wakeup else { return };
    let Ok(poller) = Poller::new() else { return };
    if poller.add(wakeup.as_raw_fd(), TOKEN_DOORBELL, INTEREST_WAKEUP).is_err() {
        return;
    }
    if poller.add(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_ACCEPT).is_err() {
        return;
    }
    let mut events = Events::with_capacity(4);
    loop {
        if poller.wait(&mut events, -1).is_err() {
            return;
        }
        wakeup.drain();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = serve_metrics(shared, stream);
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }
}

/// Minimal hand-written HTTP/1.1: enough for `GET /metrics` from
/// Prometheus or `curl`, with no dependency and no keep-alive.
fn serve_metrics(shared: &Shared, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut head: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                    || head.len() > 8192
                {
                    break;
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut tokens = request.lines().next().unwrap_or("").split_whitespace();
    let method = tokens.next().unwrap_or("");
    let path = tokens.next().unwrap_or("");
    let (status, content_type, body) =
        if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                shared.engine.prometheus(Some(&shared.reactor)),
            )
        } else {
            ("404 Not Found", "text/plain; charset=utf-8", "not found\n".to_string())
        };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Which encoding a connection's responses use. Decoding differs per
/// wire, but both produce the same [`Seg`] stream, so batching and
/// accounting live in one place ([`run_segments`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    Text,
    Binary,
}

/// One ordered piece of a response burst.
enum Seg {
    /// Pre-encoded response bytes known at parse time (OK/PONG/QUEUED/
    /// ERR/... lines or frames).
    Lit(Vec<u8>),
    /// A unit to execute transactionally; the first `bool` marks a
    /// `MULTI`/`BATCH` block (framed response), the [`Instant`] stamps
    /// its parse time for latency, and the second `bool` requests a
    /// waterfall echo (binary TRACE flag): the unit's responses are
    /// followed by one INFO frame carrying the burst's stage anatomy.
    Run(Unit, bool, Instant, bool),
    /// `STATS` — serialized at its position so it reflects every earlier
    /// request on this connection.
    Stats,
}

/// Per-`on_data` stage context the reactor handler hands to
/// [`run_segments`]: which shard is serving, when the handler started
/// (anchoring parse attribution), and how long the socket fill took.
pub(crate) struct StageCtx {
    shard: usize,
    entry: Instant,
    sock_read_ns: u64,
}

#[derive(Default)]
struct ConnState {
    /// Open `MULTI` block, if any.
    multi: Option<Vec<Op>>,
    /// Close the connection after this burst.
    quit: bool,
    /// Begin server-wide shutdown after this burst.
    shutdown: bool,
}

/// Per-connection wire state: undecided until the first byte arrives.
enum WireState {
    /// No bytes seen yet; the first byte picks the protocol.
    Sniff,
    Text(ConnState),
    Binary,
}

/// The per-connection protocol handler the reactor shards drive. Owns
/// the connection-gauge accounting (constructor/Drop), the wire sniff,
/// and the per-wire parse state.
struct ProtoHandler {
    shared: Arc<Shared>,
    state: WireState,
    /// Reactor shard serving this connection (waterfall attribution).
    shard: usize,
}

impl ProtoHandler {
    fn new(shared: Arc<Shared>, shard: usize) -> ProtoHandler {
        shared.engine.connection_opened();
        ProtoHandler { shared, state: WireState::Sniff, shard }
    }
}

impl Drop for ProtoHandler {
    fn drop(&mut self) {
        self.shared.engine.connection_closed();
    }
}

impl ConnHandler for ProtoHandler {
    fn on_data(&mut self, conn: &mut Conn) -> Directive {
        let ctx =
            StageCtx { shard: self.shard, entry: Instant::now(), sock_read_ns: conn.last_fill_ns };
        if ctx.sock_read_ns > 0 {
            self.shared.engine.record_stage(Phase::SockRead, ctx.sock_read_ns);
        }
        if matches!(self.state, WireState::Sniff) {
            let Some(&first) = conn.inbuf.first() else {
                return Directive::Continue;
            };
            self.state = if proust_codec::is_binary(first) {
                WireState::Binary
            } else {
                WireState::Text(ConnState::default())
            };
        }
        match &mut self.state {
            WireState::Sniff => unreachable!("sniff resolved above"),
            WireState::Text(state) => text_on_data(&self.shared, conn, state, &ctx),
            WireState::Binary => binary::on_data(&self.shared, conn, &ctx),
        }
    }

    fn on_flushed(&mut self, _conn: &mut Conn, flush_ns: u64) {
        self.shared.engine.record_stage(Phase::SockFlush, flush_ns);
    }
}

/// Text-protocol pump: drain complete lines, execute, queue the response
/// bytes.
fn text_on_data(
    shared: &Shared,
    conn: &mut Conn,
    state: &mut ConnState,
    ctx: &StageCtx,
) -> Directive {
    let segs = drain_lines(shared, &mut conn.inbuf, state);
    let out = run_segments(shared, segs, Wire::Text, ctx);
    conn.queue(&out);
    if state.shutdown {
        state.shutdown = false;
        shared.begin_shutdown();
    }
    if state.quit {
        Directive::CloseAfterFlush
    } else {
        Directive::Continue
    }
}

/// Split complete lines out of `buf` (leaving any partial trailing line)
/// and feed them through the connection state machine.
fn drain_lines(shared: &Shared, buf: &mut Vec<u8>, state: &mut ConnState) -> Vec<Seg> {
    let mut segs = Vec::new();
    while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
        let line_bytes: Vec<u8> = buf.drain(..=nl).collect();
        if state.quit {
            continue; // discard anything pipelined after QUIT
        }
        let line = String::from_utf8_lossy(&line_bytes);
        feed_line(shared, line.trim_end_matches(['\r', '\n']), state, &mut segs);
    }
    segs
}

/// Append one text response line (newline added) as a literal segment.
fn lit_line(segs: &mut Vec<Seg>, line: &str) {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    segs.push(Seg::Lit(bytes));
}

fn feed_line(shared: &Shared, line: &str, state: &mut ConnState, segs: &mut Vec<Seg>) {
    let engine = &shared.engine;
    let err = |segs: &mut Vec<Seg>, msg: String| {
        engine.note_protocol_error();
        lit_line(segs, &format!("ERR {msg}"));
    };
    let parsed = match proto::parse_line(line) {
        Ok(parsed) => parsed,
        Err(msg) => return err(segs, msg),
    };
    match parsed {
        proto::Line::Data(cmd) => match engine.resolve(&cmd) {
            Ok(op) => match &mut state.multi {
                Some(pending) => {
                    pending.push(op);
                    lit_line(segs, "QUEUED");
                }
                None => segs.push(Seg::Run(Unit { ops: vec![op] }, false, Instant::now(), false)),
            },
            Err(msg) => err(segs, msg),
        },
        proto::Line::Multi => match state.multi {
            Some(_) => err(segs, "nested MULTI".to_string()),
            None => {
                state.multi = Some(Vec::new());
                lit_line(segs, "OK");
            }
        },
        proto::Line::Exec => match state.multi.take() {
            Some(ops) => segs.push(Seg::Run(Unit { ops }, true, Instant::now(), false)),
            None => err(segs, "EXEC without MULTI".to_string()),
        },
        proto::Line::Discard => match state.multi.take() {
            Some(_) => lit_line(segs, "OK"),
            None => err(segs, "DISCARD without MULTI".to_string()),
        },
        // Control verbs are connection-level; inside MULTI they are
        // protocol errors rather than silently breaking atomicity.
        _ if state.multi.is_some() => err(segs, format!("{line:?} not allowed in MULTI")),
        proto::Line::Ping => lit_line(segs, "PONG"),
        proto::Line::Stats => segs.push(Seg::Stats),
        proto::Line::Trace(cmd) => lit_line(segs, &engine.trace_command(cmd)),
        proto::Line::Shutdown => {
            state.shutdown = true;
            lit_line(segs, "OK");
        }
        proto::Line::Quit => {
            state.quit = true;
            lit_line(segs, "OK");
        }
    }
}

/// Mutable flush-window state threaded through one [`run_segments`]
/// call: the pending commit batch plus the stage bookkeeping that turns
/// each flush into a [`Waterfall`].
struct FlushWindow {
    /// The pending units, handed to the engine by slice.
    units: Vec<Unit>,
    /// Per pending unit: MULTI/BATCH framing, parse stamp, TRACE echo.
    meta: Vec<(bool, Instant, bool)>,
    pending_ops: usize,
    /// Parse time accumulated for the pending units (per-request deltas
    /// between parse stamps).
    parse_ns: u64,
    /// When this flush window opened: handler entry for the first flush,
    /// the previous flush's end afterwards. Anchors the independent wall
    /// measurement each waterfall carries.
    opened: Instant,
    /// Whether the window still owns the burst's socket-read time (only
    /// the first flush of an `on_data` call does).
    first: bool,
}

/// Execute the burst: group consecutive `Run` segments into commit
/// batches of at most [`MAX_BATCH`] requests, keep every response in
/// request order, record per-request service latency and per-stage
/// waterfall timings, and encode for the connection's wire.
fn run_segments(shared: &Shared, segs: Vec<Seg>, wire: Wire, ctx: &StageCtx) -> Vec<u8> {
    let engine = &shared.engine;
    let mut out: Vec<u8> = Vec::new();
    let mut window = FlushWindow {
        units: Vec::new(),
        meta: Vec::new(),
        pending_ops: 0,
        parse_ns: 0,
        opened: ctx.entry,
        first: true,
    };
    // Parse attribution: every Run segment's stamp marks the moment its
    // parse finished; the delta from the previous mark (handler entry
    // for the first) is that request's parse time. All stamps were taken
    // during the drain, before this function ran, so the deltas are
    // exact regardless of flush boundaries.
    let mut parse_mark = ctx.entry;
    for seg in segs {
        match seg {
            Seg::Run(unit, is_multi, stamp, echo) => {
                let parse_ns = stamp.saturating_duration_since(parse_mark).as_nanos() as u64;
                parse_mark = stamp;
                engine.record_stage(Phase::Parse, parse_ns);
                window.parse_ns += parse_ns;
                window.pending_ops += unit.ops.len();
                window.units.push(unit);
                window.meta.push((is_multi, stamp, echo));
                if window.pending_ops >= MAX_BATCH {
                    flush_window(shared, wire, ctx, &mut out, &mut window);
                }
            }
            Seg::Lit(bytes) => {
                flush_window(shared, wire, ctx, &mut out, &mut window);
                out.extend_from_slice(&bytes);
            }
            Seg::Stats => {
                flush_window(shared, wire, ctx, &mut out, &mut window);
                let json = shared.engine.stats_json(Some(&shared.reactor)).to_json();
                match wire {
                    Wire::Text => out.extend_from_slice(format!("STATS {json}\n").as_bytes()),
                    Wire::Binary => proust_codec::put_info(&mut out, &json),
                }
            }
        }
    }
    flush_window(shared, wire, ctx, &mut out, &mut window);
    out
}

/// Execute and encode one pending commit batch, sealing its waterfall:
/// batch-wait per request, the engine's stage breakdown once per flush,
/// the encode time, and the independently measured wall clock.
fn flush_window(
    shared: &Shared,
    wire: Wire,
    ctx: &StageCtx,
    out: &mut Vec<u8>,
    window: &mut FlushWindow,
) {
    if window.units.is_empty() {
        return;
    }
    let engine = &shared.engine;
    let batch_ops = window.pending_ops;
    engine.record_batch_occupancy(batch_ops as u64);
    let last_stamp = window.meta.last().expect("pending checked non-empty").1;
    let exec_start = Instant::now();
    for (_, stamp, _) in &window.meta {
        let wait = exec_start.saturating_duration_since(*stamp).as_nanos() as u64;
        engine.record_stage(Phase::BatchWait, wait);
    }
    let (responses, breakdown) = engine.execute_stages(&window.units);
    let done = Instant::now();
    engine.record_stage(Phase::StmExec, breakdown.stm_exec_ns);
    engine.record_stage(Phase::WalAppend, breakdown.wal_append_ns);
    engine.record_stage(Phase::FsyncWait, breakdown.fsync_wait_ns);
    let mut wf = Waterfall {
        shard: ctx.shard as u32,
        batch_ops: batch_ops as u32,
        fsync_cohort: breakdown.fsync_cohort,
        attempts: breakdown.attempts,
        ..Waterfall::default()
    };
    wf.set_stage(Phase::SockRead, if window.first { ctx.sock_read_ns } else { 0 });
    wf.set_stage(Phase::Parse, window.parse_ns);
    // The waterfall's batch wait is the residual gap between the last
    // parse and execution, clamped to this window so a mid-burst flush
    // does not double-count the previous flush's execution time.
    let wait_anchor = if last_stamp > window.opened { last_stamp } else { window.opened };
    wf.set_stage(
        Phase::BatchWait,
        exec_start.saturating_duration_since(wait_anchor).as_nanos() as u64,
    );
    wf.set_stage(Phase::StmExec, breakdown.stm_exec_ns);
    wf.set_stage(Phase::WalAppend, breakdown.wal_append_ns);
    wf.set_stage(Phase::FsyncWait, breakdown.fsync_wait_ns);
    // A TRACE-flagged request echoes the waterfall as it stands at
    // encode time: resp_encode and sock_flush are still zero (they have
    // not happened yet); the exemplar copy recorded below includes them.
    let echo_json: Option<String> =
        window.meta.iter().any(|(_, _, echo)| *echo).then(|| wf.to_json().to_json());
    let encode_start = done;
    for ((unit, (is_multi, stamp, echo)), resps) in
        window.units.drain(..).zip(window.meta.drain(..)).zip(responses)
    {
        let elapsed = done.duration_since(stamp).as_nanos() as u64;
        if unit.ops.is_empty() {
            engine.latency.record(elapsed); // empty EXEC
        }
        for op in &unit.ops {
            engine.record_op_latency(op, elapsed);
        }
        match wire {
            Wire::Text => {
                if is_multi {
                    out.extend_from_slice(format!("RESULTS {}\n", resps.len()).as_bytes());
                }
                for resp in &resps {
                    out.extend_from_slice(resp.to_line().as_bytes());
                    out.push(b'\n');
                }
            }
            Wire::Binary => {
                if is_multi {
                    let mut inner = Vec::new();
                    for resp in &resps {
                        binary::encode_resp(&mut inner, resp);
                    }
                    proust_codec::put_batch_response(out, resps.len() as u32, &inner);
                } else {
                    for resp in &resps {
                        binary::encode_resp(out, resp);
                    }
                }
                if echo {
                    let json = echo_json.as_deref().expect("echo implies echo_json");
                    proust_codec::put_info(out, json);
                }
            }
        }
    }
    let sealed = Instant::now();
    let encode_ns = sealed.duration_since(encode_start).as_nanos() as u64;
    engine.record_stage(Phase::RespEncode, encode_ns);
    wf.set_stage(Phase::RespEncode, encode_ns);
    wf.wall_ns = wf.stage(Phase::SockRead)
        + sealed.saturating_duration_since(window.opened).as_nanos() as u64;
    engine.note_waterfall(&wf);
    window.pending_ops = 0;
    window.parse_ns = 0;
    window.opened = sealed;
    window.first = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_codec::{op, resp, Parsed};
    use proust_stm::obs::JsonValue;
    use std::io::{BufRead, BufReader};

    struct Client {
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            Client { reader: BufReader::new(stream) }
        }

        fn send(&mut self, lines: &str) {
            self.reader.get_mut().write_all(lines.as_bytes()).expect("send");
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("recv");
            line.trim_end().to_string()
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(&format!("{line}\n"));
            self.recv()
        }
    }

    /// A client speaking the binary protocol: frames out, frames in.
    struct BinClient {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    /// A decoded binary response, owned (no borrow of the read buffer).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct OwnedResp {
        code: u8,
        args: Vec<u64>,
        entries: Option<Vec<(u64, u64)>>,
        text: Option<String>,
        batch: Option<Vec<OwnedResp>>,
    }

    impl OwnedResp {
        fn status(code: u8) -> OwnedResp {
            OwnedResp { code, args: vec![], entries: None, text: None, batch: None }
        }

        fn value(value: u64) -> OwnedResp {
            OwnedResp { code: resp::VALUE, args: vec![value], ..OwnedResp::status(resp::VALUE) }
        }

        fn from_view(view: &proust_codec::FrameView<'_>) -> OwnedResp {
            OwnedResp {
                code: view.code,
                args: (0..view.arg_count()).filter_map(|i| view.arg(i)).collect(),
                entries: if view.code == resp::ENTRIES { view.entries() } else { None },
                text: if view.code == resp::ERR || view.code == resp::INFO {
                    view.text().map(str::to_string)
                } else {
                    None
                },
                batch: if view.code == resp::BATCH {
                    Some(
                        view.batch(proust_codec::RESP_MAGIC)
                            .expect("batch decodes")
                            .iter()
                            .map(OwnedResp::from_view)
                            .collect(),
                    )
                } else {
                    None
                },
            }
        }
    }

    impl BinClient {
        fn connect(addr: SocketAddr) -> BinClient {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            BinClient { stream, buf: Vec::new() }
        }

        fn send_raw(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).expect("send");
        }

        fn request(&mut self, code: u8, name: &str, args: &[u64]) -> OwnedResp {
            let mut frame = Vec::new();
            proust_codec::put_request(&mut frame, code, name, args);
            self.send_raw(&frame);
            self.recv()
        }

        fn recv(&mut self) -> OwnedResp {
            loop {
                match proust_codec::parse_frame(&self.buf, proust_codec::RESP_MAGIC)
                    .expect("well-formed response stream")
                {
                    Parsed::Frame { view, consumed } => {
                        let owned = OwnedResp::from_view(&view);
                        self.buf.drain(..consumed);
                        return owned;
                    }
                    Parsed::Incomplete => {
                        let mut chunk = [0u8; 4096];
                        let n = self.stream.read(&mut chunk).expect("read");
                        assert!(n > 0, "server closed mid-frame");
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                }
            }
        }
    }

    #[test]
    fn serves_the_protocol_end_to_end() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        assert_eq!(client.roundtrip("PING"), "PONG");
        assert_eq!(client.roundtrip("PUT m 1 10"), "OK");
        assert_eq!(client.roundtrip("GET m 1"), "VALUE 10");
        assert_eq!(client.roundtrip("GET m 2"), "NIL");
        assert_eq!(client.roundtrip("INC c 5"), "OK");
        assert_eq!(client.roundtrip("GET c"), "VALUE 5");
        assert_eq!(client.roundtrip("BOGUS"), "ERR unknown verb \"BOGUS\"");
        // Pipelined burst: all responses, in order.
        client.send("PUT m 2 20\nGET m 2\nDEL m 2\nGET m 2\n");
        assert_eq!(client.recv(), "OK");
        assert_eq!(client.recv(), "VALUE 20");
        assert_eq!(client.recv(), "VALUE 20");
        assert_eq!(client.recv(), "NIL");
        assert_eq!(client.roundtrip("QUIT"), "OK");
        assert!(handle.shutdown());
    }

    #[test]
    fn pipelined_burst_flushes_in_batches_of_at_most_sixteen() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        let burst: String = (0..40).map(|key| format!("GET m {key}\n")).collect();
        client.send(&burst);
        for _ in 0..40 {
            assert_eq!(client.recv(), "NIL");
        }
        let occupancy = &handle.shared.engine.batch_occupancy;
        assert!(occupancy.max() <= 16, "a flush held {} ops", occupancy.max());
        assert_eq!(occupancy.sum(), 40);
        assert!(handle.shutdown());
    }

    #[test]
    fn scan_round_trip_over_the_wire() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        assert_eq!(client.roundtrip("OPUT o 5 50"), "OK");
        assert_eq!(client.roundtrip("OPUT o 2 20"), "OK");
        assert_eq!(client.roundtrip("OGET o 5"), "VALUE 50");
        assert_eq!(client.roundtrip("SCAN o 0 10"), "VALUE 2 2=20 5=50");
        assert_eq!(client.roundtrip("SCAN o 3 3"), "VALUE 0");
        assert_eq!(client.roundtrip("SCAN o 9 3"), "ERR reversed scan bounds 9 > 3");
        assert_eq!(client.roundtrip("ODEL o 2"), "VALUE 20");
        // SCAN inside MULTI: the scan and the put that would invalidate
        // it run in one atomic unit, so the scan sees the pre-put state.
        assert_eq!(client.roundtrip("MULTI"), "OK");
        assert_eq!(client.roundtrip("SCAN o 0 10"), "QUEUED");
        assert_eq!(client.roundtrip("OPUT o 7 70"), "QUEUED");
        assert_eq!(client.roundtrip("SCAN o 0 10"), "QUEUED");
        assert_eq!(client.roundtrip("EXEC"), "RESULTS 3");
        assert_eq!(client.recv(), "VALUE 1 5=50");
        assert_eq!(client.recv(), "OK");
        assert_eq!(client.recv(), "VALUE 2 5=50 7=70");
        assert!(handle.shutdown());
    }

    #[test]
    fn multi_exec_discard() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        assert_eq!(client.roundtrip("MULTI"), "OK");
        assert_eq!(client.roundtrip("PUT m 1 1"), "QUEUED");
        assert_eq!(client.roundtrip("INC c 2"), "QUEUED");
        assert_eq!(client.roundtrip("GET m 1"), "QUEUED");
        assert_eq!(client.roundtrip("PING"), "ERR \"PING\" not allowed in MULTI");
        assert_eq!(client.roundtrip("EXEC"), "RESULTS 3");
        assert_eq!(client.recv(), "OK");
        assert_eq!(client.recv(), "OK");
        assert_eq!(client.recv(), "VALUE 1");
        assert_eq!(client.roundtrip("EXEC"), "ERR EXEC without MULTI");
        assert_eq!(client.roundtrip("MULTI"), "OK");
        assert_eq!(client.roundtrip("PUT m 9 9"), "QUEUED");
        assert_eq!(client.roundtrip("DISCARD"), "OK");
        assert_eq!(client.roundtrip("GET m 9"), "NIL");
        assert!(handle.shutdown());
    }

    #[test]
    fn stats_and_shutdown_command() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        assert_eq!(client.roundtrip("PUT m 1 1"), "OK");
        let stats = client.roundtrip("STATS");
        let payload = stats.strip_prefix("STATS ").expect("STATS prefix");
        let parsed = JsonValue::parse(payload).expect("STATS is one-line JSON");
        assert!(parsed.get("commits").and_then(JsonValue::as_u64).unwrap() >= 1, "{stats}");
        // STATS v2: live gauges, slow-txn accounting, and the
        // conflict-matrix top cells ride along.
        assert!(parsed.get("in_flight").and_then(JsonValue::as_u64).is_some(), "{stats}");
        assert!(parsed.get("connections").and_then(JsonValue::as_u64).unwrap() >= 1, "{stats}");
        assert!(parsed.get("connections_total").and_then(JsonValue::as_u64).unwrap() >= 1);
        assert_eq!(parsed.get("slow_txns").and_then(JsonValue::as_u64), Some(0));
        assert!(parsed.get("conflict_matrix_top").and_then(JsonValue::as_array).is_some());
        assert!(parsed.get("op_p99_ns").and_then(|o| o.get("put")).is_some(), "{stats}");
        assert!(parsed.get("trace_sample_every").and_then(JsonValue::as_u64).is_some());
        // STATS v5: the reactor serving path.
        assert_eq!(parsed.get("reactor_shards").and_then(JsonValue::as_u64), Some(2), "{stats}");
        assert!(parsed.get("reactor_wakeups").and_then(JsonValue::as_u64).unwrap() >= 1);
        let per_shard =
            parsed.get("connections_per_shard").and_then(JsonValue::as_array).expect("array");
        assert_eq!(per_shard.len(), 2, "{stats}");
        let open: u64 = per_shard.iter().filter_map(JsonValue::as_u64).sum();
        assert!(open >= 1, "this connection must be counted: {stats}");
        // STATS v6: request-waterfall stage quantiles and tail exemplars.
        assert!(parsed.get("slow_requests").and_then(JsonValue::as_u64).is_some(), "{stats}");
        for stage in ["sock_read", "parse", "batch_wait", "stm_exec", "resp_encode"] {
            assert!(
                parsed.get("stage_p99_ns").and_then(|s| s.get(stage)).is_some(),
                "missing stage_p99_ns.{stage}: {stats}"
            );
        }
        assert!(parsed.get("top_stage").and_then(JsonValue::as_str).is_some(), "{stats}");
        assert!(parsed.get("batch_occupancy_p99").and_then(JsonValue::as_u64).is_some());
        let exemplars =
            parsed.get("stage_exemplars").and_then(JsonValue::as_array).expect("exemplars");
        assert!(!exemplars.is_empty(), "the PUT must have left a waterfall: {stats}");
        assert_eq!(client.roundtrip("SHUTDOWN"), "OK");
        assert!(handle.wait(), "drain should complete");
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect metrics");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
            .expect("send request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let config =
            ServerConfig { metrics_addr: Some("127.0.0.1:0".to_string()), ..Default::default() };
        let handle = Server::start(config).expect("start");
        let mut client = Client::connect(handle.addr());
        assert_eq!(client.roundtrip("PUT m 1 1"), "OK");
        assert_eq!(client.roundtrip("GET m 1"), "VALUE 1");
        let metrics = handle.metrics_addr().expect("metrics listener bound");
        let response = http_get(metrics, "/metrics");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("version=0.0.4"), "{head}");
        let samples = proust_stm::obs::parse_exposition(body).expect("valid exposition");
        let commits =
            samples.iter().find(|s| s.name == "proust_txn_commits_total").expect("commits counter");
        assert!(commits.value >= 2.0, "commits {}", commits.value);
        let kinds: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "proust_txn_conflicts_total")
            .filter_map(|s| s.label("kind"))
            .collect();
        assert_eq!(kinds.len(), 8, "conflict kinds {kinds:?}");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "proust_request_latency_ns_bucket"
                    && s.label("op") == Some("put")),
            "missing put latency buckets"
        );
        assert!(samples.iter().any(|s| s.name == "proust_txn_in_flight"));
        assert!(samples.iter().any(|s| s.name == "proust_connections_open" && s.value >= 1.0));
        // The reactor families ride along: wakeups have happened (this
        // very connection), the per-shard gauge covers every shard, and
        // the ready-event histogram emits its bucket ladder.
        let wakeups = samples
            .iter()
            .find(|s| s.name == "proust_reactor_wakeups_total")
            .expect("reactor wakeups");
        assert!(wakeups.value >= 1.0, "wakeups {}", wakeups.value);
        assert!(samples.iter().any(|s| s.name == "proust_conn_backpressure_total"));
        let shard_gauges: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "proust_connections")
            .filter_map(|s| s.label("shard"))
            .collect();
        assert_eq!(shard_gauges, ["0", "1"], "one gauge per shard");
        assert!(
            samples
                .iter()
                .any(|s| s.name == "proust_reactor_ready_events_bucket"
                    && s.label("le") == Some("+Inf")),
            "ready-events histogram must emit +Inf"
        );
        // Anything but GET /metrics is a 404.
        let response = http_get(metrics, "/nope");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        assert!(handle.shutdown());
    }

    #[test]
    fn trace_commands_control_the_flight_recorder() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        // The tracer is process-global, and sibling tests starting
        // servers reset its sample rate; retry the capture window until
        // a sampled span lands (first iteration in the common case).
        let mut sampled_span = false;
        for _ in 0..25 {
            assert_eq!(client.roundtrip("TRACE START 1"), "OK");
            assert_eq!(client.roundtrip("PUT m 1 1"), "OK");
            assert_eq!(client.roundtrip("GET m 1"), "VALUE 1");
            let dump = client.roundtrip("TRACE DUMP");
            let payload = dump.strip_prefix("TRACE ").expect("TRACE prefix");
            let doc = JsonValue::parse(payload).expect("dump is one-line JSON");
            let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
            if events.iter().any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")) {
                sampled_span = true;
                break;
            }
        }
        // Under the trace feature (on by default here), 1-in-1 sampling
        // must record complete ("X") per-phase spans.
        #[cfg(feature = "trace")]
        assert!(sampled_span, "no phase spans in any dump");
        #[cfg(not(feature = "trace"))]
        let _ = sampled_span;
        assert_eq!(client.roundtrip("TRACE STOP"), "OK");
        // TRACE is a control verb: rejected inside MULTI.
        assert_eq!(client.roundtrip("MULTI"), "OK");
        assert_eq!(client.roundtrip("TRACE DUMP"), "ERR \"TRACE DUMP\" not allowed in MULTI");
        assert_eq!(client.roundtrip("DISCARD"), "OK");
        assert!(handle.shutdown());
    }

    #[test]
    fn concurrent_clients_increment_without_lost_updates() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let addr = handle.addr();
        let per_client = 200u64;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    for _ in 0..per_client {
                        assert_eq!(client.roundtrip("INC shared"), "OK");
                    }
                });
            }
        });
        let mut client = Client::connect(addr);
        assert_eq!(client.roundtrip("GET shared"), format!("VALUE {}", 8 * per_client));
        assert!(handle.shutdown());
    }

    #[test]
    fn binary_protocol_round_trips_every_opcode() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = BinClient::connect(handle.addr());
        assert_eq!(client.request(op::PING, "", &[]), OwnedResp::status(resp::PONG));
        assert_eq!(client.request(op::MAP_PUT, "m", &[1, 10]), OwnedResp::status(resp::OK));
        assert_eq!(client.request(op::MAP_GET, "m", &[1]), OwnedResp::value(10));
        assert_eq!(client.request(op::MAP_GET, "m", &[2]), OwnedResp::status(resp::NIL));
        assert_eq!(client.request(op::MAP_DEL, "m", &[1]), OwnedResp::value(10));
        assert_eq!(client.request(op::CTR_INC, "c", &[5]), OwnedResp::status(resp::OK));
        assert_eq!(client.request(op::CTR_GET, "c", &[]), OwnedResp::value(5));
        assert_eq!(client.request(op::Q_ENQ, "q", &[7]), OwnedResp::status(resp::OK));
        assert_eq!(client.request(op::Q_DEQ, "q", &[]), OwnedResp::value(7));
        assert_eq!(client.request(op::Q_DEQ, "q", &[]), OwnedResp::status(resp::NIL));
        assert_eq!(client.request(op::ORD_PUT, "o", &[5, 50]), OwnedResp::status(resp::OK));
        assert_eq!(client.request(op::ORD_PUT, "o", &[2, 20]), OwnedResp::status(resp::OK));
        assert_eq!(client.request(op::ORD_GET, "o", &[5]), OwnedResp::value(50));
        let scan = client.request(op::ORD_SCAN, "o", &[0, 10]);
        assert_eq!(scan.code, resp::ENTRIES);
        assert_eq!(scan.entries, Some(vec![(2, 20), (5, 50)]));
        assert_eq!(client.request(op::ORD_DEL, "o", &[2]), OwnedResp::value(20));
        // BATCH executes atomically and answers one framed response.
        let mut inner = Vec::new();
        proust_codec::put_request(&mut inner, op::MAP_PUT, "m", &[9, 90]);
        proust_codec::put_request(&mut inner, op::MAP_GET, "m", &[9]);
        proust_codec::put_request(&mut inner, op::ORD_SCAN, "o", &[0, 100]);
        let mut frame = Vec::new();
        proust_codec::put_batch_request(&mut frame, 3, &inner);
        client.send_raw(&frame);
        let batch = client.recv();
        assert_eq!(batch.code, resp::BATCH);
        let parts = batch.batch.expect("nested responses");
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], OwnedResp::status(resp::OK));
        assert_eq!(parts[1], OwnedResp::value(90));
        assert_eq!(parts[2].entries, Some(vec![(5, 50)]));
        // A malformed nested frame rejects the whole batch with a single
        // ERR prefix (not "ERR ERR ...") and keeps the connection.
        let mut bad = Vec::new();
        proust_codec::put_batch_request(&mut bad, 1, &[0xFF; 8]);
        client.send_raw(&bad);
        let fault = client.recv();
        assert_eq!(fault.code, resp::ERR);
        assert_eq!(fault.text.as_deref(), Some("ERR malformed nested frame in BATCH body"));
        // STATS over binary: INFO frame carrying the same one-line JSON.
        let stats = client.request(op::STATS, "", &[]);
        assert_eq!(stats.code, resp::INFO);
        let parsed = JsonValue::parse(&stats.text.expect("info text")).expect("STATS JSON");
        assert!(parsed.get("commits").and_then(JsonValue::as_u64).unwrap() >= 1);
        assert!(parsed.get("reactor_shards").and_then(JsonValue::as_u64).unwrap() >= 1);
        // Request-level errors answer ERR but keep the connection.
        let bad = client.request(op::CTR_INC, "c", &[0]);
        assert_eq!(bad.code, resp::ERR);
        assert_eq!(client.request(op::PING, "", &[]), OwnedResp::status(resp::PONG));
        // QUIT answers OK, then the server closes.
        assert_eq!(client.request(op::QUIT, "", &[]), OwnedResp::status(resp::OK));
        let mut tail = Vec::new();
        client.stream.read_to_end(&mut tail).expect("clean close");
        assert!(tail.is_empty());
        assert!(handle.shutdown());
    }

    #[test]
    fn text_and_binary_encodings_have_identical_effects() {
        // The same request sequence over both wires must leave identical
        // state, observable from either wire — the typed Resp model makes
        // the encodings equal by construction, this proves it end to end.
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut text = Client::connect(handle.addr());
        let mut bin = BinClient::connect(handle.addr());
        let script: &[(&str, u8, &str, &[u64])] = &[
            ("PUT s 1 11", op::MAP_PUT, "s", &[1, 11]),
            ("INC s 3", op::CTR_INC, "s", &[3]),
            ("ENQ s 5", op::Q_ENQ, "s", &[5]),
            ("OPUT s 2 22", op::ORD_PUT, "s", &[2, 22]),
        ];
        for (line, code, name, args) in script {
            let text_resp = text.roundtrip(line);
            // Apply the binary copy to a different namespace prefix? No —
            // both wires drive the SAME structures; the binary pass runs
            // second and must observe the text pass's writes identically.
            let bin_resp = bin.request(*code, name, args);
            assert_eq!(bin_resp.code, resp::OK, "{line} over binary");
            assert_eq!(text_resp, "OK", "{line} over text");
        }
        // Cross-wire reads agree on the merged state.
        assert_eq!(text.roundtrip("GET s 1"), "VALUE 11");
        assert_eq!(bin.request(op::MAP_GET, "s", &[1]), OwnedResp::value(11));
        assert_eq!(text.roundtrip("GET s"), "VALUE 6"); // two INC 3
        assert_eq!(bin.request(op::CTR_GET, "s", &[]), OwnedResp::value(6));
        assert_eq!(text.roundtrip("DEQ s"), "VALUE 5"); // first enqueue
        assert_eq!(bin.request(op::Q_DEQ, "s", &[]), OwnedResp::value(5)); // second
        assert_eq!(text.roundtrip("SCAN s 0 10"), "VALUE 1 2=22");
        let scan = bin.request(op::ORD_SCAN, "s", &[0, 10]);
        assert_eq!(scan.entries, Some(vec![(2, 22)]));
        // Validation parity: the same malformed requests earn ERR on both.
        assert_eq!(text.roundtrip("INC s 0"), "ERR delta must be in 1..=4096");
        assert_eq!(bin.request(op::CTR_INC, "s", &[0]).code, resp::ERR);
        assert_eq!(text.roundtrip("SCAN s 9 3"), "ERR reversed scan bounds 9 > 3");
        assert_eq!(bin.request(op::ORD_SCAN, "s", &[9, 3]).code, resp::ERR);
        assert!(handle.shutdown());
    }

    #[test]
    fn oversized_frame_rejected_without_wedging_the_server() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = BinClient::connect(handle.addr());
        // Header claims a 2 MiB payload: rejected from the header alone,
        // one ERR frame, connection closed.
        let mut frame = vec![proust_codec::REQ_MAGIC, op::MAP_PUT, 0, 0];
        frame.extend_from_slice(&((2 * proust_codec::MAX_PAYLOAD) as u32).to_le_bytes());
        client.send_raw(&frame);
        let err = client.recv();
        assert_eq!(err.code, resp::ERR);
        assert!(err.text.expect("message").contains("exceeds cap"));
        let mut tail = Vec::new();
        client.stream.read_to_end(&mut tail).expect("server closes faulted conn");
        assert!(tail.is_empty());
        // The server is not wedged: fresh connections on both wires work.
        let mut bin = BinClient::connect(handle.addr());
        assert_eq!(bin.request(op::PING, "", &[]), OwnedResp::status(resp::PONG));
        let mut text = Client::connect(handle.addr());
        assert_eq!(text.roundtrip("PING"), "PONG");
        assert!(handle.shutdown());
    }

    /// The eight stage names, in pipeline order — the shape every
    /// waterfall JSON object must carry.
    const STAGE_NAMES: [&str; 8] = [
        "sock_read",
        "parse",
        "batch_wait",
        "stm_exec",
        "wal_append",
        "fsync_wait",
        "resp_encode",
        "sock_flush",
    ];

    #[test]
    fn request_waterfalls_cover_every_stage_and_sum_to_wall_time() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = Client::connect(handle.addr());
        // A pipelined burst so batching and per-request parse deltas both
        // exercise; every request lands in the stage histograms.
        client.send("PUT w 1 10\nGET w 1\nINC w 2\nGET w\nPUT w 2 20\nDEL w 2\n");
        for _ in 0..6 {
            client.recv();
        }
        let stats = client.roundtrip("STATS");
        let payload = stats.strip_prefix("STATS ").expect("STATS prefix");
        let parsed = JsonValue::parse(payload).expect("STATS JSON");
        // (a) all eight stages are quantified.
        for stage in STAGE_NAMES {
            assert!(
                parsed.get("stage_p99_ns").and_then(|s| s.get(stage)).is_some(),
                "missing {stage}: {stats}"
            );
        }
        // (b) every exemplar's stage spans reconcile with its wall time.
        // The stage sum and the wall clock are measured independently
        // (the wall includes inter-stage seams the spans cannot), so the
        // acceptance bound is: sum <= wall (+ scheduling jitter), and the
        // sum accounts for most of the wall.
        let exemplars =
            parsed.get("stage_exemplars").and_then(JsonValue::as_array).expect("exemplars");
        assert!(!exemplars.is_empty(), "burst must leave tail exemplars: {stats}");
        for wf in exemplars {
            let total = wf.get("total_ns").and_then(JsonValue::as_u64).expect("total_ns");
            let wall = wf.get("wall_ns").and_then(JsonValue::as_u64).expect("wall_ns");
            let stages = wf.get("stages").expect("stages object");
            let sum: u64 = STAGE_NAMES
                .iter()
                .map(|s| stages.get(s).and_then(JsonValue::as_u64).expect("stage value"))
                .sum();
            assert_eq!(sum, total, "total must equal the stage sum: {stats}");
            // Wall is an independent clock over the same interval; the
            // spans may not overshoot it by more than scheduling noise.
            assert!(
                total <= wall + wall / 2 + 100_000,
                "stage sum {total} far exceeds wall {wall}: {stats}"
            );
            assert!(wf.get("batch_ops").and_then(JsonValue::as_u64).unwrap() >= 1);
        }
        assert!(handle.shutdown());
    }

    #[test]
    fn trace_flagged_binary_request_echoes_its_waterfall() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = BinClient::connect(handle.addr());
        // TRACE flag on a single op: response frame, then an INFO frame
        // carrying the request's waterfall JSON.
        let mut frame = Vec::new();
        proust_codec::put_request_flags(
            &mut frame,
            op::MAP_PUT,
            proust_codec::flag::TRACE,
            "m",
            &[1, 10],
        );
        client.send_raw(&frame);
        assert_eq!(client.recv(), OwnedResp::status(resp::OK));
        let info = client.recv();
        assert_eq!(info.code, resp::INFO, "TRACE flag must append an INFO frame");
        let wf = JsonValue::parse(&info.text.expect("waterfall text")).expect("waterfall JSON");
        let stages = wf.get("stages").expect("stages object");
        for stage in STAGE_NAMES {
            assert!(stages.get(stage).is_some(), "echo missing stage {stage}");
        }
        // The echo is sealed before encode/flush happen, so those two
        // stages are necessarily zero in the echoed copy.
        assert_eq!(stages.get("resp_encode").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(stages.get("sock_flush").and_then(JsonValue::as_u64), Some(0));
        assert!(wf.get("batch_ops").and_then(JsonValue::as_u64).unwrap() >= 1);
        // Unflagged requests stay echo-free: next response is the GET's.
        assert_eq!(client.request(op::MAP_GET, "m", &[1]), OwnedResp::value(10));
        // TRACE on a BATCH echoes after the batch response.
        let mut inner = Vec::new();
        proust_codec::put_request(&mut inner, op::MAP_PUT, "m", &[2, 20]);
        proust_codec::put_request(&mut inner, op::MAP_GET, "m", &[2]);
        let mut frame = Vec::new();
        proust_codec::put_batch_request_flags(&mut frame, proust_codec::flag::TRACE, 2, &inner);
        client.send_raw(&frame);
        let batch = client.recv();
        assert_eq!(batch.code, resp::BATCH);
        let info = client.recv();
        assert_eq!(info.code, resp::INFO, "flagged BATCH must echo its waterfall");
        assert!(handle.shutdown());
    }

    #[test]
    fn binary_shutdown_drains_gracefully() {
        let handle = Server::start(ServerConfig::default()).expect("start");
        let mut client = BinClient::connect(handle.addr());
        assert_eq!(client.request(op::MAP_PUT, "m", &[1, 1]), OwnedResp::status(resp::OK));
        assert_eq!(client.request(op::SHUTDOWN, "", &[]), OwnedResp::status(resp::OK));
        assert!(handle.wait(), "drain should complete");
    }
}
