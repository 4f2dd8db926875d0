//! The TCP front door: a resident acceptor thread plus one worker
//! thread per connection, all over `std::net` (no external runtime).
//!
//! Each connection speaks either the length-prefixed binary protocol
//! (see [`crate::wire`]) or minimal HTTP/1.1 — sniffed from the first
//! four bytes: `b"GET "` decodes as a length prefix of ~542 MB, far
//! past [`MAX_FRAME`], so the two framings can never be confused.
//! Binary connections loop request → admission → reply; HTTP
//! connections answer one `GET /status` with the monitor's JSON
//! document and close.

use crate::lock;
use crate::monitor::Monitor;
use crate::tenant::{TenantGate, TenantTable};
use crate::wire::{self, ErrorCode, Request, MAX_FRAME, MAX_FRAME_STALLS};
use bnn_serve::{request_seed, Handle, ServeStats, Server};
use std::io::{self, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream,
    ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-tenant admission policy.
    pub tenants: TenantTable,
    /// Socket read timeout — the poll granularity at which idle
    /// connection workers re-check the shutdown flag. A peer that
    /// connects and never speaks, or starts a length prefix, a frame
    /// or an HTTP head and then goes silent, is dropped after 100 of
    /// these (~5 s at the default).
    pub read_timeout: Duration,
    /// Maximum simultaneously-open connections; excess accepts are
    /// closed immediately.
    pub max_connections: usize,
    /// Per-connection pipelining bound (protocol v2): how many
    /// admitted requests one connection may have awaiting replies
    /// before the server stops reading further frames from it (TCP
    /// backpressure). Clamped to at least 1.
    pub max_pipeline: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            tenants: TenantTable::default(),
            read_timeout: Duration::from_millis(50),
            max_connections: 256,
            max_pipeline: 64,
        }
    }
}

/// State shared by the acceptor and every connection worker.
struct NetShared {
    handle: Handle,
    base_seed: u64,
    monitor: Monitor,
    gate: TenantGate,
    shutdown: AtomicBool,
    active: AtomicUsize,
    conn_seq: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
    read_timeout: Duration,
    max_connections: usize,
    max_pipeline: usize,
}

/// The running front door. Owns the [`Server`] it fronts: dropping
/// (or [`NetServer::shutdown`]) closes the listener, drains the
/// admission queue and joins every thread.
pub struct NetServer {
    local: SocketAddr,
    server: Option<Server>,
    shared: Arc<NetShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind the front door on `addr` (use port 0 for an ephemeral
    /// port; see [`NetServer::local_addr`]) over an already-started
    /// admission [`Server`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        server: Server,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            handle: server.handle(),
            base_seed: server.base_seed(),
            monitor: Monitor::new(LATENCY_WINDOW, server.backend_name()),
            gate: TenantGate::new(cfg.tenants),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            read_timeout: cfg.read_timeout,
            max_connections: cfg.max_connections.max(1),
            max_pipeline: cfg.max_pipeline.max(1),
        });
        let accept_shared = Arc::clone(&shared);
        // audit:allow(concurrency) the resident acceptor thread is the front door's owner loop (one per NetServer, joined on shutdown) — not data-parallel fan-out, which still routes through WorkerPool.
        let acceptor = thread::Builder::new()
            .name("bnn-net-acceptor".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(NetServer {
            local,
            server: Some(server),
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Snapshot of the fronted server's admission counters/gauges.
    pub fn stats(&self) -> ServeStats {
        self.shared.handle.stats()
    }

    /// The `/status` JSON document, rendered in-process (exactly what
    /// an HTTP client would receive).
    pub fn status_json(&self) -> String {
        self.shared.monitor.status_json(&self.shared.handle.stats())
    }

    /// Graceful shutdown: stop accepting, drain the admission queue
    /// (already-accepted requests are served), then join the acceptor
    /// and every connection worker.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drain and close the admission layer first: workers blocked
        // in Pending::wait resolve (reply or typed Shutdown), and any
        // frame arriving after this resolves Shutdown immediately.
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        // Unblock the acceptor's blocking accept() with a poke
        // connection; it observes the flag and exits. A wildcard bind
        // (0.0.0.0 / [::]) records the wildcard as the local addr,
        // and connecting *to* a wildcard is not portable — poke
        // loopback at the bound port instead. The connect is
        // time-bounded as a backstop; past that, a failed poke means
        // the listener is already dead — nothing to unblock.
        let mut poke = self.local;
        if poke.ip().is_unspecified() {
            poke.set_ip(match poke.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Idle workers notice the flag within one read timeout.
        let drained: Vec<JoinHandle<()>> = {
            let mut workers = lock(&self.shared.workers);
            workers.drain(..).collect()
        };
        for worker in drained {
            let _ = worker.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local", &self.local)
            .finish_non_exhaustive()
    }
}

/// One reserved connection slot: increments `active` on construction
/// and releases it on drop, so the slot comes back even if the worker
/// unwinds mid-connection — or the spawn itself fails and the un-run
/// closure (guard and all) is dropped. Without this, a panicking
/// worker would leak its slot and ratchet the server toward refusing
/// every connection at `max_connections`.
struct SlotGuard {
    shared: Arc<NetShared>,
}

impl SlotGuard {
    fn acquire(shared: Arc<NetShared>) -> SlotGuard {
        shared.active.fetch_add(1, Ordering::SeqCst);
        SlotGuard { shared }
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The acceptor loop: accept, reap finished workers, spawn a worker
/// per connection (or close immediately at the connection cap).
fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (stream, _) = match accepted {
            Ok(pair) => pair,
            // Transient accept errors (e.g. the peer reset before we
            // got to it) should not kill the front door.
            Err(_) => continue,
        };
        reap_finished(&shared);
        if shared.active.load(Ordering::SeqCst) >= shared.max_connections {
            let _ = stream.shutdown(SockShutdown::Both);
            continue;
        }
        shared.monitor.record_connection();
        let slot = SlotGuard::acquire(Arc::clone(&shared));
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        // audit:allow(concurrency) one worker thread per accepted connection, bounded by max_connections and joined on shutdown — connection I/O is inherently blocking on std::net, and the compute fan-out behind it still routes through WorkerPool.
        let spawned = thread::Builder::new()
            .name(format!("bnn-net-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(stream, &slot.shared);
                // `slot` drops here (or on unwind), releasing the
                // reservation exactly once either way.
            });
        if let Ok(handle) = spawned {
            lock(&shared.workers).push(handle);
        }
        // Spawn failure drops the un-run closure — and the SlotGuard
        // with it — so the reservation is released and the connection
        // shed without killing the acceptor.
    }
}

/// Join workers that have already finished, so a long-lived server
/// under connection churn does not accumulate JoinHandles.
fn reap_finished(shared: &NetShared) {
    let mut workers = lock(&shared.workers);
    let mut live = Vec::with_capacity(workers.len());
    for handle in workers.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            live.push(handle);
        }
    }
    *workers = live;
}

/// Sniff result for one fresh connection.
enum Framing {
    Binary,
    Http,
    /// Peer closed (or shutdown began) before sending four bytes.
    Gone,
}

/// How often [`sniff`] re-peeks a prefix that has started arriving.
const SNIFF_TICK: Duration = Duration::from_millis(1);

/// Peek the first four bytes without consuming them. `b"GET "` means
/// HTTP; anything else is a binary length prefix. A peer that stays
/// silent, or starts a prefix and stalls, cannot pin a connection
/// slot: the four bytes are waited for only as long as
/// `wire::read_frame` lets a started frame stay silent
/// ([`MAX_FRAME_STALLS`] read timeouts).
fn sniff(stream: &TcpStream, shared: &NetShared) -> Framing {
    let mut first = [0u8; 4];
    let budget = shared.read_timeout * MAX_FRAME_STALLS;
    let mut waited = Duration::ZERO;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Framing::Gone;
        }
        match stream.peek(&mut first) {
            Ok(4) if &first == b"GET " => return Framing::Http,
            Ok(4) => return Framing::Binary,
            // A partial peek returns immediately; yield briefly so
            // the loop is not a busy spin while the rest of the
            // prefix is in flight.
            Ok(1..=3) if waited < budget => {
                thread::sleep(SNIFF_TICK);
                waited += SNIFF_TICK;
            }
            // An empty peek waited out one read timeout.
            Err(e) if waited < budget && read_stalled(&e) => waited += shared.read_timeout,
            // Closed, failed, or silent past the budget.
            _ => return Framing::Gone,
        }
    }
}

/// Whether a read came back empty only because the socket's read
/// timeout fired (or a signal interrupted it): the peer is silent, not
/// gone.
fn read_stalled(e: &io::Error) -> bool {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// One connection, start to finish.
fn serve_connection(stream: TcpStream, shared: &NetShared) {
    // Replies are single small writes; Nagle only adds latency here.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.read_timeout)).is_err() {
        return;
    }
    match sniff(&stream, shared) {
        Framing::Binary => serve_binary(stream, shared),
        Framing::Http => serve_http(stream, shared),
        Framing::Gone => {}
    }
}

/// Outcome of reading and decoding one request frame. `Request`
/// carries the request's root trace span id (0 when tracing is
/// disabled), allocated the moment the frame arrived so every
/// downstream stage span can nest under it.
enum NextFrame {
    Request(Request, u64),
    /// Clean close, transport error, or shutdown: just return.
    Closed,
    /// Framing or decode failure: answer `Malformed`, then close.
    Malformed,
}

/// Read and decode the next request frame, polling the shutdown flag
/// on idle ticks. Shared by the lock-step and pipelined loops.
fn next_frame(stream: &mut TcpStream, shared: &NetShared) -> NextFrame {
    loop {
        let payload = match wire::read_frame(stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return NextFrame::Closed, // clean close
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return NextFrame::Closed;
                }
                continue; // idle poll tick
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized prefix or stalled frame: framing is lost.
                shared.monitor.record_malformed();
                return NextFrame::Malformed;
            }
            Err(_) => return NextFrame::Closed,
        };
        let root = bnn_trace::new_span();
        let decode_span = bnn_trace::start();
        match wire::decode_request(&payload) {
            Ok(request) => {
                bnn_trace::finish(
                    decode_span,
                    bnn_trace::Stage::Decode,
                    root,
                    payload.len() as u64,
                );
                return NextFrame::Request(request, root);
            }
            Err(_) => {
                // Typed decode error: the stream itself is still
                // framed, but trust nothing after a bad frame.
                shared.monitor.record_malformed();
                return NextFrame::Malformed;
            }
        }
    }
}

/// The binary request → reply loop. Lock-step ([`answer`] of
/// [`admit`], on this thread) until the peer sends a correlation id;
/// the first corr-carrying frame upgrades the connection to the
/// pipelined reader/writer pair, gated on protocol v2 so v1 peers
/// never pay for the second thread.
fn serve_binary(mut stream: TcpStream, shared: &NetShared) {
    let mut out = Vec::new();
    loop {
        let (request, root) = match next_frame(&mut stream, shared) {
            NextFrame::Request(request, root) => (request, root),
            NextFrame::Closed => return,
            NextFrame::Malformed => {
                wire::encode_error(ErrorCode::Malformed, None, None, None, &mut out);
                let _ = wire::write_frame(&mut stream, &out);
                return;
            }
        };
        if request.corr.is_some() {
            serve_pipelined(stream, shared, request, root);
            return;
        }
        let step = admit(shared, request, root);
        if !answer(&mut stream, shared, step, &mut out) {
            return;
        }
    }
}

/// One request between [`admit`] and [`answer`] — on a pipelined
/// connection, the unit of work handed from the reader to its writer.
enum PipeStep {
    /// Admitted: `answer` waits on the pending and replies.
    Submitted {
        pending: bnn_serve::Pending,
        corr: Option<u64>,
        seed: Option<u64>,
        /// Trace-clock µs stamped before the tenant gate: `/status`
        /// latency and the `request` root span both run from here
        /// through the reply write, so no stage span nested under the
        /// root can start before it.
        t0_us: u64,
        /// Root trace span id (0 when tracing is disabled).
        root: u64,
    },
    /// Refused before admission (gate refusal or malformed frame):
    /// `answer` emits the typed error, in submission order.
    Refused {
        code: ErrorCode,
        corr: Option<u64>,
        seed: Option<u64>,
    },
}

/// Longest one pipelined reply write may stall before the writer
/// declares the peer dead and tears the connection down.
const PIPELINE_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Latency ring size behind `/status` p50/p99.
const LATENCY_WINDOW: usize = 1024;

/// A pipelined (protocol v2) connection: the reader half keeps
/// admitting frames while the writer half answers completions, so up
/// to `max_pipeline` requests per connection overlap in the admission
/// queue instead of one. Replies are written in submission order
/// (requests may *complete* out of order under priority scheduling;
/// the client correlates by id either way), and the bounded channel
/// between the halves turns a peer that submits faster than it reads
/// replies into plain TCP backpressure rather than unbounded memory.
fn serve_pipelined(reader: TcpStream, shared: &NetShared, first: Request, first_root: u64) {
    let writer_stream = match reader.try_clone() {
        Ok(stream) => stream,
        Err(_) => return,
    };
    if writer_stream
        .set_write_timeout(Some(PIPELINE_WRITE_TIMEOUT))
        .is_err()
    {
        return;
    }
    let (tx, rx) = mpsc::sync_channel::<PipeStep>(shared.max_pipeline);
    // audit:allow(concurrency) the pipelined writer is this connection's second owner thread — scoped, joined before the connection worker returns — because reply writes must overlap frame reads; the compute fan-out behind it still routes through WorkerPool.
    thread::scope(|scope| {
        let writer = scope.spawn(|| pipeline_write_loop(writer_stream, shared, rx));
        pipeline_read_loop(reader, shared, first, first_root, tx);
        // `tx` was moved into the read loop and dropped there, so the
        // writer drains every queued step and exits; the join bounds
        // the connection worker's lifetime.
        let _ = writer.join();
    });
}

/// The pipelined reader: read → decode → [`admit`] → hand to the
/// writer. Never writes to the socket itself.
fn pipeline_read_loop(
    mut stream: TcpStream,
    shared: &NetShared,
    first: Request,
    first_root: u64,
    tx: mpsc::SyncSender<PipeStep>,
) {
    let mut next = Some((first, first_root));
    loop {
        let (request, root) = match next.take() {
            Some(pair) => pair,
            None => match next_frame(&mut stream, shared) {
                NextFrame::Request(request, root) => (request, root),
                NextFrame::Closed => return,
                NextFrame::Malformed => {
                    // Queued behind the in-flight steps, so every
                    // already-admitted request still gets its answer
                    // before the connection closes.
                    let _ = tx.send(PipeStep::Refused {
                        code: ErrorCode::Malformed,
                        corr: None,
                        seed: None,
                    });
                    return;
                }
            },
        };
        let step = admit(shared, request, root);
        // A full channel blocks here — the backpressure path — until
        // the writer frees a slot; a dead writer (write failure) tears
        // the pair down via the send error instead.
        if tx.send(step).is_err() {
            return;
        }
    }
}

/// The pipelined writer: [`answer`] each step in submission order. A
/// failed or stalled write ends the loop; dropping the receiver then
/// unblocks the reader.
fn pipeline_write_loop(mut stream: TcpStream, shared: &NetShared, rx: mpsc::Receiver<PipeStep>) {
    let mut out = Vec::new();
    while let Ok(step) = rx.recv() {
        if !answer(&mut stream, shared, step, &mut out) {
            return;
        }
    }
}

/// Gate and submit one decoded request — the first half of serving
/// it, identical on lock-step and pipelined connections. Never
/// touches the socket.
fn admit(shared: &NetShared, request: Request, root: u64) -> PipeStep {
    let t0_us = bnn_trace::clock::now_us();
    let (corr, seed) = (request.corr, request.seed);
    let admit_span = bnn_trace::start();
    let admitted = shared.gate.admit(&request.tenant, request.priority);
    bnn_trace::finish(admit_span, bnn_trace::Stage::Admission, root, 0);
    let Ok(granted) = admitted else {
        shared.monitor.record_rate_limited();
        return PipeStep::Refused {
            code: ErrorCode::RateLimited,
            corr,
            seed,
        };
    };
    let mut submission = shared
        .handle
        .request(request.input)
        .priority(granted)
        .trace(root);
    if let Some(us) = request.deadline_us {
        submission = submission.deadline(Duration::from_micros(us));
    }
    if let Some(seed) = seed {
        submission = submission.seed(seed);
    }
    let submit_span = bnn_trace::start();
    let pending = submission.submit();
    bnn_trace::finish(submit_span, bnn_trace::Stage::Submit, root, 0);
    PipeStep::Submitted {
        pending,
        corr,
        seed,
        t0_us,
        root,
    }
}

/// Wait for one admitted request and write its reply or typed error
/// frame — the second half of serving it. Returns `false` when the
/// connection should close (a write failed).
fn answer(stream: &mut TcpStream, shared: &NetShared, step: PipeStep, out: &mut Vec<u8>) -> bool {
    match step {
        PipeStep::Refused { code, corr, seed } => {
            wire::encode_error(code, None, seed, corr, out);
            wire::write_frame(stream, out).is_ok()
        }
        PipeStep::Submitted {
            pending,
            corr,
            seed,
            t0_us,
            root,
        } => {
            let id = pending.id();
            let wait_span = bnn_trace::start();
            let waited = pending.wait();
            bnn_trace::finish(wait_span, bnn_trace::Stage::WriterWait, root, 0);
            match waited {
                Ok(reply) => {
                    // Seed echo: the client's pinned seed, or the
                    // derived per-request seed — either way the reply
                    // is offline-reproducible from (input, seed) alone.
                    let seed = seed.unwrap_or_else(|| request_seed(shared.base_seed, reply.id));
                    let latency = bnn_trace::clock::now_us().saturating_sub(t0_us);
                    shared.monitor.record_reply(
                        Duration::from_micros(latency),
                        reply.coalesced,
                        &reply.cost,
                    );
                    wire::encode_reply(&reply, seed, corr, out);
                }
                Err(err) => {
                    let seed = seed.or_else(|| id.map(|id| request_seed(shared.base_seed, id)));
                    wire::encode_error(ErrorCode::from(err), id, seed, corr, out);
                }
            }
            let wrote = wire::write_frame(stream, out).is_ok();
            // The request's root span — the whole server-side
            // residency, admission through reply write — so every
            // stage span recorded with `parent == root` nests under
            // one top-level bar in the trace view.
            if bnn_trace::enabled() {
                let dur = bnn_trace::clock::now_us().saturating_sub(t0_us);
                bnn_trace::record(bnn_trace::Stage::Request, root, 0, t0_us, dur, 0);
            }
            wrote
        }
    }
}

/// Largest HTTP request head we accept before answering 431.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Minimal HTTP/1.1: answer one request and close. A head still
/// incomplete after [`MAX_FRAME_STALLS`] silent read timeouts (the
/// stalled-frame bound) or at shutdown is answered 408: the server
/// is done waiting on this connection.
fn serve_http(mut stream: TcpStream, shared: &NetShared) {
    shared.monitor.record_http();
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    let mut stalls = 0;
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HTTP_HEAD {
            let _ = write_http(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                JSON,
                "",
            );
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if read_stalled(&e) => {
                stalls += 1;
                if stalls >= MAX_FRAME_STALLS || shared.shutdown.load(Ordering::SeqCst) {
                    let _ = write_http(&mut stream, 408, "Request Timeout", JSON, "");
                    return;
                }
            }
            Err(_) => return,
        }
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let _ = match (method, path) {
        ("GET", "/status") => {
            let body = shared.monitor.status_json(&shared.handle.stats());
            write_http(&mut stream, 200, "OK", JSON, &body)
        }
        ("GET", "/metrics") => {
            let body = shared.monitor.metrics_text(&shared.handle.stats());
            write_http(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        ("GET", "/trace") => {
            // Draining hands the rings to this reader and clears them;
            // stage histograms behind /metrics are unaffected.
            let body = bnn_trace::drain_chrome_json();
            write_http(&mut stream, 200, "OK", JSON, &body)
        }
        ("GET", _) => write_http(&mut stream, 404, "Not Found", JSON, ""),
        _ => write_http(&mut stream, 405, "Method Not Allowed", JSON, ""),
    };
    let _ = stream.shutdown(SockShutdown::Both);
}

/// Content-Type of every JSON-bodied response (`/status`, `/trace`,
/// and bodiless error statuses).
const JSON: &str = "application/json";

fn write_http(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

// MAX_FRAME is re-used by the framing sniffer rationale above; keep
// the import tied to this module even if the sniffer changes.
const _: () = assert!(MAX_FRAME < 0x2054_4547, "`GET ` must decode past MAX_FRAME");
