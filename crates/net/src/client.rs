//! Blocking clients for the binary protocol — the lock-step
//! [`NetClient`] (protocol v1) and the depth-bounded
//! [`PipelinedClient`] (protocol v2) — plus a one-shot HTTP GET
//! helper for the `/status`, `/metrics` and `/trace` endpoints.
//! Enough for tests, examples and load drivers without pulling in an
//! HTTP stack.
//!
//! Every connection is time-bounded: [`Timeouts`] (default bounded)
//! covers connect, read and write, and a stalled or half-dead server
//! surfaces as a typed `TimedOut` I/O error instead of hanging the
//! caller forever — a closed-loop driver depends on it.

use crate::wire::{self, Request, Response};
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket time bounds for client connections. All three must be
/// nonzero (`std::net` rejects zero-duration socket timeouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// TCP connect bound.
    pub connect: Duration,
    /// Read bound: the longest a caller blocks waiting for the first
    /// byte of a response frame.
    pub read: Duration,
    /// Write bound: the longest one socket write may stall.
    pub write: Duration,
}

impl Default for Timeouts {
    /// Bounded by default: 5 s connect, 30 s read, 30 s write.
    fn default() -> Timeouts {
        Timeouts {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(30),
            write: Duration::from_secs(30),
        }
    }
}

/// Resolve `addr` and connect within `timeouts.connect`, then arm the
/// read/write timeouts on the stream.
fn connect_stream<A: ToSocketAddrs>(addr: A, timeouts: Timeouts) -> io::Result<TcpStream> {
    let mut last_err = None;
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeouts.connect) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeouts.read))?;
                stream.set_write_timeout(Some(timeouts.write))?;
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

/// Unix surfaces an expired socket timeout as `WouldBlock`; normalize
/// both spellings to the typed `TimedOut` the caller can match on.
fn as_timeout(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::WouldBlock {
        io::Error::new(io::ErrorKind::TimedOut, e)
    } else {
        e
    }
}

/// A blocking lock-step binary-protocol connection (protocol v1): one
/// request in flight at a time.
pub struct NetClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl NetClient {
    /// Connect to a [`crate::NetServer`] with [`Timeouts::default`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<NetClient> {
        NetClient::connect_with(addr, Timeouts::default())
    }

    /// Connect with explicit time bounds.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, timeouts: Timeouts) -> io::Result<NetClient> {
        Ok(NetClient {
            stream: connect_stream(addr, timeouts)?,
            buf: Vec::new(),
        })
    }

    /// The local (client-side) address of this connection.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Send one request and block for its response (reply or typed
    /// error frame). Encode and decode failures surface as
    /// `InvalidInput` / `InvalidData` I/O errors; a server that stays
    /// silent past the read timeout surfaces as `TimedOut`.
    pub fn send(&mut self, request: &Request) -> io::Result<Response> {
        wire::encode_request(request, &mut self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        wire::write_frame(&mut self.stream, &self.buf).map_err(as_timeout)?;
        let payload = wire::read_frame(&mut self.stream)
            .map_err(as_timeout)?
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed before answering",
                )
            })?;
        wire::decode_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The result of one [`PipelinedClient::submit`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// Correlation id assigned to the submitted request.
    pub corr: u64,
    /// A response drained to make room, when the pipeline was already
    /// at depth — `(corr, response)` of an *earlier* request.
    pub drained: Option<(u64, Response)>,
}

/// A pipelined binary-protocol connection (protocol v2): keeps up to
/// `depth` requests in flight, correlating replies to submissions by
/// the echoed correlation id. Correlation is out-of-order safe — a
/// server may answer in any order — and a typed error frame resolves
/// only its own id. [`PipelinedClient::drain`] is the clean teardown:
/// it blocks until every in-flight id has resolved.
///
/// Lock-step v1 peers are unaffected: the pipelined client always
/// stamps a correlation id, which upgrades its frames to protocol v2;
/// a server that does not speak v2 rejects them with a typed
/// `BadVersion`/`BadFlags` decode error rather than misbehaving.
pub struct PipelinedClient {
    stream: TcpStream,
    buf: Vec<u8>,
    depth: usize,
    next_corr: u64,
    in_flight: BTreeSet<u64>,
}

impl PipelinedClient {
    /// Connect with `depth` in-flight slots (clamped to at least 1)
    /// and [`Timeouts::default`].
    pub fn connect<A: ToSocketAddrs>(addr: A, depth: usize) -> io::Result<PipelinedClient> {
        PipelinedClient::connect_with(addr, depth, Timeouts::default())
    }

    /// Connect with explicit time bounds.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        depth: usize,
        timeouts: Timeouts,
    ) -> io::Result<PipelinedClient> {
        Ok(PipelinedClient {
            stream: connect_stream(addr, timeouts)?,
            buf: Vec::new(),
            depth: depth.max(1),
            next_corr: 0,
            in_flight: BTreeSet::new(),
        })
    }

    /// The configured in-flight bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Requests currently awaiting a response.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Submit one request without waiting for its response. Assigns
    /// the next correlation id (overriding any `corr` already on the
    /// request) and returns it; when the pipeline is already at
    /// depth, one response is drained first and returned alongside.
    /// Correlation ids count up from 0 per connection, so the n-th
    /// submission carries corr `n`.
    pub fn submit(&mut self, request: &Request) -> io::Result<Submitted> {
        let drained = if self.in_flight.len() >= self.depth {
            Some(self.recv()?)
        } else {
            None
        };
        let corr = self.next_corr;
        let mut stamped = request.clone();
        stamped.corr = Some(corr);
        wire::encode_request(&stamped, &mut self.buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        wire::write_frame(&mut self.stream, &self.buf).map_err(as_timeout)?;
        self.next_corr += 1;
        self.in_flight.insert(corr);
        Ok(Submitted { corr, drained })
    }

    /// Block for the next response frame, in whatever order the
    /// server resolves them, and return it with its correlation id.
    /// Errors: `TimedOut` past the read timeout, `UnexpectedEof` if
    /// the server closes with requests still in flight, `InvalidData`
    /// for an uncorrelatable frame (no corr echo, or a corr this
    /// connection never submitted).
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        if self.in_flight.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "nothing in flight",
            ));
        }
        let payload = wire::read_frame(&mut self.stream)
            .map_err(as_timeout)?
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed with requests in flight",
                )
            })?;
        let response = wire::decode_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let corr = match &response {
            Response::Reply(reply) => reply.corr,
            Response::Error(err) => err.corr,
        };
        match corr {
            Some(corr) if self.in_flight.remove(&corr) => Ok((corr, response)),
            Some(corr) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response for unknown correlation id {corr}"),
            )),
            // A corr-less frame on a pipelined connection is either a
            // v1 server or a Malformed error (our own frame never
            // decoded); neither can be matched to a submission.
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                match response {
                    Response::Error(err) => {
                        format!("uncorrelated error frame mid-pipeline: {}", err.code)
                    }
                    Response::Reply(_) => "uncorrelated (v1) reply frame mid-pipeline".to_string(),
                },
            )),
        }
    }

    /// Clean teardown: block until every in-flight id has resolved
    /// and return the responses in arrival order.
    pub fn drain(&mut self) -> io::Result<Vec<(u64, Response)>> {
        let mut out = Vec::with_capacity(self.in_flight.len());
        while !self.in_flight.is_empty() {
            out.push(self.recv()?);
        }
        Ok(out)
    }
}

/// Fetch any front-door GET endpoint (`/status`, `/metrics`,
/// `/trace`) and return the response body with status line and
/// headers stripped. Non-200 responses and transport failures
/// surface as typed I/O errors; a server that accepts and never
/// replies surfaces as `TimedOut`.
pub fn http_get<A: ToSocketAddrs>(addr: A, path: &str, timeouts: Timeouts) -> io::Result<String> {
    if path.is_empty() || !path.starts_with('/') || path.contains(char::is_whitespace) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("path must be absolute and whitespace-free: {path:?}"),
        ));
    }
    let mut stream = connect_stream(addr, timeouts)?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bnn\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(as_timeout)?;
    stream.flush().map_err(as_timeout)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(as_timeout)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 HTTP response"))?;
    match text.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        Some((head, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "unexpected status line: {}",
                head.lines().next().unwrap_or("<empty>")
            ),
        )),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HTTP response (no header terminator)",
        )),
    }
}
