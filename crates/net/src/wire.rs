//! The length-prefixed binary protocol, versions 1 and 2.
//!
//! Every frame on the wire is a little-endian `u32` payload length
//! followed by that many payload bytes. The payload's first two bytes
//! are always the protocol version ([`PROTOCOL_VERSION`] or
//! [`PROTOCOL_V2`]) and the frame kind; everything after is
//! kind-specific. All integers are little-endian; `f32`/`f64` travel
//! as their IEEE-754 bit patterns, so a reply's probabilities are
//! **bit-identical** to what the engine produced — the loopback
//! conformance suite depends on it.
//!
//! **Version 2 is version 1 plus correlation ids.** A v2 request may
//! carry a client-chosen `corr` id (flag bit 2); the server echoes it
//! in the answering reply or error frame, which lets a pipelined
//! client keep many requests in flight per connection and match
//! responses out of order. Frames without a correlation id are
//! encoded as v1 byte-for-byte, so lock-step v1 peers keep working
//! against a v2 server and vice versa — version negotiation is
//! per-frame, not per-connection.
//!
//! # Request frame (`kind = 1`)
//!
//! | field | type | notes |
//! |---|---|---|
//! | version | `u8` | [`PROTOCOL_VERSION`], or [`PROTOCOL_V2`] when flag bit 2 is used |
//! | kind | `u8` | `1` |
//! | flags | `u8` | bit 0: deadline present, bit 1: seed present, bit 2 (v2 only): corr present |
//! | priority | `u8` | `0` Low, `1` Normal, `2` High |
//! | tenant len | `u8` | tenant id length in bytes (0 = anonymous) |
//! | tenant | bytes | UTF-8 tenant id |
//! | deadline | `u64` | queue-time budget in µs (iff flag bit 0) |
//! | seed | `u64` | pinned mask-stream seed (iff flag bit 1) |
//! | corr | `u64` | client correlation id (iff flag bit 2; v2 only) |
//! | n, c, h, w | `4 × u32` | input shape; `n` must be 1 |
//! | data | `c·h·w × f32` | the input tensor, NCHW order |
//!
//! # Reply frame (`kind = 2`)
//!
//! | field | type | notes |
//! |---|---|---|
//! | version, kind | `u8, u8` | kind `2` |
//! | corr | `u64` | echoed correlation id (v2 frames only) |
//! | id | `u64` | server-assigned request id |
//! | seed | `u64` | **seed echo** — see below |
//! | coalesced | `u32` | requests in this reply's micro-batch |
//! | k | `u32` | number of classes |
//! | probs | `k × f32` | predictive probabilities |
//! | predicted | `u32` | argmax class |
//! | confidence | `f32` | max-prob confidence |
//! | entropy | `f64` | predictive entropy (nats) |
//! | mutual information | `f64` | BALD epistemic share (nats) |
//! | samples | `u64` | Monte Carlo samples served |
//! | batch | `u64` | input items (always 1 per request) |
//! | wall ms | `f64` | measured engine wall time |
//! | has model | `u8` | 1 if an analytic cost model follows |
//! | cycles | `u64` | modelled cycles (iff has model) |
//! | latency ms | `f64` | modelled latency (iff has model) |
//! | mem bytes | `u64` | modelled memory traffic (iff has model) |
//!
//! # Error frame (`kind = 3`)
//!
//! | field | type | notes |
//! |---|---|---|
//! | version, kind | `u8, u8` | kind `3` |
//! | code | `u8` | see [`ErrorCode`]: `1` Rejected, `2` DeadlineExceeded, `3` BackendFailed, `4` Shutdown, `5` RateLimited, `6` Malformed, `7` BadInput |
//! | flags | `u8` | bit 0: id present, bit 1: seed present, bit 2 (v2 only): corr present |
//! | id | `u64` | request id, if one was assigned |
//! | seed | `u64` | seed echo, if one is known |
//! | corr | `u64` | echoed correlation id (iff flag bit 2; v2 only) |
//!
//! An error frame always echoes the correlation id of the request it
//! answers when that request carried one — so a typed error
//! mid-pipeline fails exactly its own request and no other. The one
//! exception is `Malformed`: the offending frame never decoded, so
//! there is no id to echo and the connection closes after the frame.
//! A frame that decodes but whose input shape the served graph refuses
//! (`BadInput`, code 7) is answered like any other typed error, and
//! the connection stays open.
//!
//! # Seed echo
//!
//! Every reply carries the request's *effective* mask-stream seed:
//! the seed the client pinned, or — when none was sent — the
//! server-derived `request_seed(base_seed, id)`. Feeding that seed to
//! an offline `Session` (or a `bnn_mcd::Plan::one` run with a
//! `SoftwareMaskSource`) over the same input reproduces the reply's
//! probabilities bit for bit, so any answer that ever crossed the
//! wire can be re-derived and audited after the fact.
//!
//! # Decoder contract
//!
//! [`decode_request`] / [`decode_response`] never panic: every
//! malformed input — truncated frame, oversized length prefix, bad
//! version byte, unknown kind or priority, non-UTF-8 tenant id,
//! multi-item shape, trailing bytes — resolves to a typed
//! [`DecodeError`]. The `bnn-audit` panic rule covers this crate, so
//! the no-panic property is enforced statically as well as by the
//! malformed-input tests.

use bnn_mcd::{CostReport, ModelCost, Uncertainty};
use bnn_serve::{Priority, ServeError};
use bnn_tensor::{Shape4, Tensor};
use std::io::{self, Read, Write};

/// The baseline (lock-step) protocol version. Frames without a
/// correlation id are always encoded at this version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Protocol version 2: version 1 plus correlation ids for pipelined
/// connections. Emitted only for frames that actually carry a `corr`
/// field, so v1 peers never see it unless they asked for it.
pub const PROTOCOL_V2: u8 = 2;

/// Hard bound on any frame payload (16 MiB): a length prefix past
/// this is rejected before any allocation, so a hostile or corrupt
/// prefix cannot balloon server memory.
pub const MAX_FRAME: usize = 1 << 24;

/// Frame kind: a prediction request.
pub const KIND_REQUEST: u8 = 1;
/// Frame kind: a served reply.
pub const KIND_REPLY: u8 = 2;
/// Frame kind: a typed error.
pub const KIND_ERROR: u8 = 3;

const FLAG_DEADLINE: u8 = 1;
const FLAG_SEED: u8 = 2;
const FLAG_ID: u8 = 1;
/// Request flag bit 2 / error flag bit 2: a correlation id follows
/// the other optional fields. Only defined at [`PROTOCOL_V2`].
const FLAG_CORR: u8 = 4;

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant id (empty = anonymous, served under the default
    /// tenant policy).
    pub tenant: String,
    /// Requested admission class — the server clamps it to the
    /// tenant's priority ceiling.
    pub priority: Priority,
    /// Optional queue-time budget in microseconds.
    pub deadline_us: Option<u64>,
    /// Optional pinned mask-stream seed; absent means the server
    /// derives one from its base seed and the request id.
    pub seed: Option<u64>,
    /// Optional client correlation id (protocol v2). The server
    /// echoes it verbatim in the answering reply or error frame, so a
    /// pipelined client can match responses out of order.
    pub corr: Option<u64>,
    /// The single-item input tensor.
    pub input: Tensor,
}

impl Request {
    /// A plain request: anonymous tenant, normal priority, no
    /// deadline, server-derived seed.
    pub fn new(input: Tensor) -> Request {
        Request {
            tenant: String::new(),
            priority: Priority::Normal,
            deadline_us: None,
            seed: None,
            corr: None,
            input,
        }
    }

    /// Set the tenant id.
    pub fn tenant(mut self, tenant: &str) -> Request {
        self.tenant = tenant.to_string();
        self
    }

    /// Set the requested admission class.
    pub fn priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Set the queue-time budget in microseconds.
    pub fn deadline_us(mut self, us: u64) -> Request {
        self.deadline_us = Some(us);
        self
    }

    /// Pin the mask-stream seed (the reproducibility hook).
    pub fn seed(mut self, seed: u64) -> Request {
        self.seed = Some(seed);
        self
    }

    /// Attach a correlation id (upgrades the frame to protocol v2).
    pub fn corr(mut self, corr: u64) -> Request {
        self.corr = Some(corr);
        self
    }
}

/// One decoded reply frame (`kind = 2`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireReply {
    /// Echoed client correlation id (present iff the request carried
    /// one — a protocol-v2 frame).
    pub corr: Option<u64>,
    /// Server-assigned request id.
    pub id: u64,
    /// The effective mask-stream seed (see the module docs on seed
    /// echo).
    pub seed: u64,
    /// How many requests shared this reply's micro-batch.
    pub coalesced: u32,
    /// Predictive probabilities, one `f32` per class, bit-identical
    /// to the engine output.
    pub probs: Vec<f32>,
    /// Per-request uncertainty summary.
    pub uncertainty: Uncertainty,
    /// This request's slice of the engine cost report.
    pub cost: CostReport,
}

/// The typed error carried by an error frame (`kind = 3`) — the
/// wire-level superset of [`ServeError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Shed by admission control (queue at capacity).
    Rejected,
    /// The queue-time deadline passed before the micro-batch formed.
    DeadlineExceeded,
    /// The backend failed while serving (or the breaker is tripped).
    BackendFailed,
    /// The server shut down before the request was served.
    Shutdown,
    /// The tenant's token bucket is empty — retry after backing off.
    RateLimited,
    /// The request frame could not be decoded; the server closes the
    /// connection after sending this.
    Malformed,
    /// The request decoded, but its input shape does not fit the served
    /// graph ([`ServeError::BadInput`]); not retryable. The connection
    /// stays open.
    BadInput,
}

impl ErrorCode {
    /// Wire byte for this code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Rejected => 1,
            ErrorCode::DeadlineExceeded => 2,
            ErrorCode::BackendFailed => 3,
            ErrorCode::Shutdown => 4,
            ErrorCode::RateLimited => 5,
            ErrorCode::Malformed => 6,
            ErrorCode::BadInput => 7,
        }
    }

    /// Decode a wire byte.
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        match byte {
            1 => Some(ErrorCode::Rejected),
            2 => Some(ErrorCode::DeadlineExceeded),
            3 => Some(ErrorCode::BackendFailed),
            4 => Some(ErrorCode::Shutdown),
            5 => Some(ErrorCode::RateLimited),
            6 => Some(ErrorCode::Malformed),
            7 => Some(ErrorCode::BadInput),
            _ => None,
        }
    }
}

impl From<ServeError> for ErrorCode {
    fn from(err: ServeError) -> ErrorCode {
        match err {
            ServeError::Rejected => ErrorCode::Rejected,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::BackendFailed => ErrorCode::BackendFailed,
            ServeError::Shutdown => ErrorCode::Shutdown,
            ServeError::BadInput => ErrorCode::BadInput,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Rejected => "rejected by admission control",
            ErrorCode::DeadlineExceeded => "queue-time deadline exceeded",
            ErrorCode::BackendFailed => "backend failed",
            ErrorCode::Shutdown => "server shut down",
            ErrorCode::RateLimited => "tenant rate limit exceeded",
            ErrorCode::Malformed => "malformed request frame",
            ErrorCode::BadInput => "input shape does not fit the served graph",
        })
    }
}

/// One decoded error frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError {
    /// Why the request failed.
    pub code: ErrorCode,
    /// The request id, if admission had already assigned one.
    pub id: Option<u64>,
    /// The effective seed, if one is known (pinned by the client, or
    /// derived once the id was assigned).
    pub seed: Option<u64>,
    /// Echoed client correlation id, when the failed request carried
    /// one — this is what lets a typed error mid-pipeline fail only
    /// its own request.
    pub corr: Option<u64>,
}

/// A decoded server-to-client frame: a reply or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was served.
    Reply(WireReply),
    /// The request failed with a typed code.
    Error(WireError),
}

/// Why a frame payload failed to decode. Every variant is a typed,
/// non-panicking outcome — the decoder's whole contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before a field it promised.
    Truncated {
        /// Bytes the field needed.
        expected: usize,
        /// Bytes actually left.
        got: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The version byte is neither [`PROTOCOL_VERSION`] nor
    /// [`PROTOCOL_V2`].
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
    /// The flags byte carries bits this version does not define.
    BadFlags(u8),
    /// The priority byte names no admission class.
    BadPriority(u8),
    /// The tenant id bytes are not UTF-8.
    BadTenant,
    /// The input shape is unusable (zero axis, `n != 1`, or an
    /// element count past the frame bound).
    BadShape {
        /// Items (must be 1).
        n: u32,
        /// Channels.
        c: u32,
        /// Height.
        h: u32,
        /// Width.
        w: u32,
    },
    /// The error-code byte names no [`ErrorCode`].
    BadErrorCode(u8),
    /// Bytes remained after the last promised field.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: field needs {expected} byte(s), {got} left"
                )
            }
            DecodeError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: length prefix {len} exceeds the {max}-byte bound"
                )
            }
            DecodeError::BadVersion(v) => {
                write!(
                    f,
                    "bad version byte {v} (this build speaks {PROTOCOL_VERSION} and {PROTOCOL_V2})"
                )
            }
            DecodeError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::BadFlags(b) => write!(f, "undefined flag bits in {b:#04x}"),
            DecodeError::BadPriority(p) => write!(f, "unknown priority byte {p}"),
            DecodeError::BadTenant => f.write_str("tenant id is not UTF-8"),
            DecodeError::BadShape { n, c, h, w } => {
                write!(
                    f,
                    "unusable input shape ({n}, {c}, {h}, {w}): requests are single-item"
                )
            }
            DecodeError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last field")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Why a frame could not be encoded (caller-side validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// Tenant ids travel behind a `u8` length.
    TenantTooLong(usize),
    /// Requests are single-item (`n == 1`).
    MultiItemInput(usize),
    /// The encoded payload would exceed [`MAX_FRAME`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::TenantTooLong(len) => {
                write!(f, "tenant id is {len} bytes (maximum 255)")
            }
            EncodeError::MultiItemInput(n) => {
                write!(f, "request input has {n} items (requests are single-item)")
            }
            EncodeError::FrameTooLarge(len) => {
                write!(f, "encoded payload is {len} bytes (maximum {MAX_FRAME})")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Bounds-checked little-endian reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated {
            expected: n,
            got: self.buf.len().saturating_sub(self.pos),
        })?;
        match self.buf.get(self.pos..end) {
            Some(slice) => {
                self.pos = end;
                Ok(slice)
            }
            None => Err(DecodeError::Truncated {
                expected: n,
                got: self.buf.len().saturating_sub(self.pos),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The decoder's final check: every byte must belong to a field.
    fn finish(&self) -> Result<(), DecodeError> {
        let extra = self.buf.len().saturating_sub(self.pos);
        if extra > 0 {
            return Err(DecodeError::TrailingBytes { extra });
        }
        Ok(())
    }
}

fn priority_byte(p: Priority) -> u8 {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

fn priority_from(byte: u8) -> Result<Priority, DecodeError> {
    match byte {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        other => Err(DecodeError::BadPriority(other)),
    }
}

/// Encode a request payload into `out` (cleared first).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    out.clear();
    if req.tenant.len() > u8::MAX as usize {
        return Err(EncodeError::TenantTooLong(req.tenant.len()));
    }
    let shape = req.input.shape();
    if shape.n != 1 {
        return Err(EncodeError::MultiItemInput(shape.n));
    }
    out.push(if req.corr.is_some() {
        PROTOCOL_V2
    } else {
        PROTOCOL_VERSION
    });
    out.push(KIND_REQUEST);
    let mut flags = 0u8;
    if req.deadline_us.is_some() {
        flags |= FLAG_DEADLINE;
    }
    if req.seed.is_some() {
        flags |= FLAG_SEED;
    }
    if req.corr.is_some() {
        flags |= FLAG_CORR;
    }
    out.push(flags);
    out.push(priority_byte(req.priority));
    out.push(req.tenant.len() as u8);
    out.extend_from_slice(req.tenant.as_bytes());
    if let Some(us) = req.deadline_us {
        out.extend_from_slice(&us.to_le_bytes());
    }
    if let Some(seed) = req.seed {
        out.extend_from_slice(&seed.to_le_bytes());
    }
    if let Some(corr) = req.corr {
        out.extend_from_slice(&corr.to_le_bytes());
    }
    for dim in [shape.n, shape.c, shape.h, shape.w] {
        out.extend_from_slice(&(dim as u32).to_le_bytes());
    }
    for v in req.input.as_slice() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    if out.len() > MAX_FRAME {
        let len = out.len();
        out.clear();
        return Err(EncodeError::FrameTooLarge(len));
    }
    Ok(())
}

/// Decode a request payload. Never panics: every malformed input
/// resolves to a typed [`DecodeError`].
pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
    let mut cur = Cursor::new(payload);
    let version = cur.u8()?;
    if version != PROTOCOL_VERSION && version != PROTOCOL_V2 {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = cur.u8()?;
    if kind != KIND_REQUEST {
        return Err(DecodeError::BadKind(kind));
    }
    let flags = cur.u8()?;
    // FLAG_CORR is defined only at v2; a v1 frame carrying it is as
    // malformed as any other undefined bit.
    let defined = if version == PROTOCOL_V2 {
        FLAG_DEADLINE | FLAG_SEED | FLAG_CORR
    } else {
        FLAG_DEADLINE | FLAG_SEED
    };
    if flags & !defined != 0 {
        return Err(DecodeError::BadFlags(flags));
    }
    let priority = priority_from(cur.u8()?)?;
    let tenant_len = cur.u8()? as usize;
    let tenant = std::str::from_utf8(cur.take(tenant_len)?)
        .map_err(|_| DecodeError::BadTenant)?
        .to_string();
    let deadline_us = if flags & FLAG_DEADLINE != 0 {
        Some(cur.u64()?)
    } else {
        None
    };
    let seed = if flags & FLAG_SEED != 0 {
        Some(cur.u64()?)
    } else {
        None
    };
    let corr = if flags & FLAG_CORR != 0 {
        Some(cur.u64()?)
    } else {
        None
    };
    let (n, c, h, w) = (cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?);
    // `n == 1` keeps the serving front door's single-input contract
    // (the admission layer asserts it). The element count uses
    // checked multiplication — three attacker-chosen u32 dims can
    // overflow u64 — and is bounded by `MAX_FRAME / 4` so the f32
    // data length stays inside the frame bound with no further
    // (overflowable) multiply.
    if n != 1 || c == 0 || h == 0 || w == 0 {
        return Err(DecodeError::BadShape { n, c, h, w });
    }
    let elems = [c, h, w]
        .iter()
        .try_fold(1u64, |acc, &d| acc.checked_mul(u64::from(d)))
        .filter(|&e| e <= (MAX_FRAME / 4) as u64);
    let elems = match elems {
        Some(e) => e as usize,
        None => return Err(DecodeError::BadShape { n, c, h, w }),
    };
    let mut data = Vec::with_capacity(elems);
    for _ in 0..elems {
        data.push(cur.f32()?);
    }
    cur.finish()?;
    Ok(Request {
        tenant,
        priority,
        deadline_us,
        seed,
        corr,
        input: Tensor::from_vec(
            Shape4::new(n as usize, c as usize, h as usize, w as usize),
            data,
        ),
    })
}

/// Encode a served reply (the serve-layer [`bnn_serve::Reply`] plus
/// its effective seed and, for protocol-v2 requests, the echoed
/// correlation id) into `out` (cleared first).
pub fn encode_reply(reply: &bnn_serve::Reply, seed: u64, corr: Option<u64>, out: &mut Vec<u8>) {
    out.clear();
    match corr {
        Some(corr) => {
            out.push(PROTOCOL_V2);
            out.push(KIND_REPLY);
            out.extend_from_slice(&corr.to_le_bytes());
        }
        None => {
            out.push(PROTOCOL_VERSION);
            out.push(KIND_REPLY);
        }
    }
    out.extend_from_slice(&reply.id.to_le_bytes());
    out.extend_from_slice(&seed.to_le_bytes());
    out.extend_from_slice(
        &u32::try_from(reply.coalesced)
            .unwrap_or(u32::MAX)
            .to_le_bytes(),
    );
    let probs = reply.probs.item(0);
    out.extend_from_slice(&u32::try_from(probs.len()).unwrap_or(u32::MAX).to_le_bytes());
    for p in probs {
        out.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    let u = &reply.uncertainty;
    out.extend_from_slice(&u32::try_from(u.predicted).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(&u.confidence.to_bits().to_le_bytes());
    out.extend_from_slice(&u.entropy.to_bits().to_le_bytes());
    out.extend_from_slice(&u.mutual_information.to_bits().to_le_bytes());
    let cost = &reply.cost;
    out.extend_from_slice(&(cost.samples as u64).to_le_bytes());
    out.extend_from_slice(&(cost.batch as u64).to_le_bytes());
    out.extend_from_slice(&cost.wall_ms.to_bits().to_le_bytes());
    match cost.model {
        Some(model) => {
            out.push(1);
            out.extend_from_slice(&model.cycles.to_le_bytes());
            out.extend_from_slice(&model.latency_ms.to_bits().to_le_bytes());
            out.extend_from_slice(&model.mem_bytes.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Encode a typed error frame into `out` (cleared first). A `corr`
/// echo upgrades the frame to protocol v2.
pub fn encode_error(
    code: ErrorCode,
    id: Option<u64>,
    seed: Option<u64>,
    corr: Option<u64>,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.push(if corr.is_some() {
        PROTOCOL_V2
    } else {
        PROTOCOL_VERSION
    });
    out.push(KIND_ERROR);
    out.push(code.as_u8());
    let mut flags = 0u8;
    if id.is_some() {
        flags |= FLAG_ID;
    }
    if seed.is_some() {
        flags |= FLAG_SEED;
    }
    if corr.is_some() {
        flags |= FLAG_CORR;
    }
    out.push(flags);
    if let Some(id) = id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    if let Some(seed) = seed {
        out.extend_from_slice(&seed.to_le_bytes());
    }
    if let Some(corr) = corr {
        out.extend_from_slice(&corr.to_le_bytes());
    }
}

/// Decode a server-to-client payload (reply or error frame). Never
/// panics; every malformed input resolves to a typed [`DecodeError`].
pub fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut cur = Cursor::new(payload);
    let version = cur.u8()?;
    if version != PROTOCOL_VERSION && version != PROTOCOL_V2 {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = cur.u8()?;
    match kind {
        KIND_REPLY => {
            // A v2 reply always opens with the echoed correlation id.
            let corr = if version == PROTOCOL_V2 {
                Some(cur.u64()?)
            } else {
                None
            };
            let id = cur.u64()?;
            let seed = cur.u64()?;
            let coalesced = cur.u32()?;
            let k = cur.u32()? as usize;
            // u64 compare: `k * 4` could wrap usize on 32-bit hosts.
            if k as u64 > (MAX_FRAME / 4) as u64 {
                return Err(DecodeError::BadShape {
                    n: 1,
                    c: k as u32,
                    h: 1,
                    w: 1,
                });
            }
            let mut probs = Vec::with_capacity(k);
            for _ in 0..k {
                probs.push(cur.f32()?);
            }
            let uncertainty = Uncertainty {
                predicted: cur.u32()? as usize,
                confidence: cur.f32()?,
                entropy: cur.f64()?,
                mutual_information: cur.f64()?,
            };
            let samples = cur.u64()? as usize;
            let batch = cur.u64()? as usize;
            let wall_ms = cur.f64()?;
            let model = match cur.u8()? {
                0 => None,
                _ => Some(ModelCost {
                    cycles: cur.u64()?,
                    latency_ms: cur.f64()?,
                    mem_bytes: cur.u64()?,
                }),
            };
            cur.finish()?;
            Ok(Response::Reply(WireReply {
                corr,
                id,
                seed,
                coalesced,
                probs,
                uncertainty,
                cost: CostReport {
                    samples,
                    batch,
                    wall_ms,
                    model,
                },
            }))
        }
        KIND_ERROR => {
            let code_byte = cur.u8()?;
            let code = ErrorCode::from_u8(code_byte).ok_or(DecodeError::BadErrorCode(code_byte))?;
            let flags = cur.u8()?;
            let defined = if version == PROTOCOL_V2 {
                FLAG_ID | FLAG_SEED | FLAG_CORR
            } else {
                FLAG_ID | FLAG_SEED
            };
            if flags & !defined != 0 {
                return Err(DecodeError::BadFlags(flags));
            }
            let id = if flags & FLAG_ID != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let seed = if flags & FLAG_SEED != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            let corr = if flags & FLAG_CORR != 0 {
                Some(cur.u64()?)
            } else {
                None
            };
            cur.finish()?;
            Ok(Response::Error(WireError {
                code,
                id,
                seed,
                corr,
            }))
        }
        other => Err(DecodeError::BadKind(other)),
    }
}

/// Write one frame (length prefix + payload) to `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            EncodeError::FrameTooLarge(payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// How many consecutive mid-frame read timeouts [`read_frame`]
/// tolerates before declaring the frame stalled. With the serving
/// default 50 ms read timeout this is ~5 s of silence in the middle
/// of a frame — an idle connection (no frame started) times out on
/// the *first* read instead, so polling loops stay responsive. The
/// server holds a started length prefix and a started HTTP head to
/// the same bound.
pub(crate) const MAX_FRAME_STALLS: u32 = 100;

/// Read one length-prefixed frame from `r`.
///
/// * `Ok(Some(payload))` — a complete frame arrived;
/// * `Ok(None)` — the peer closed the connection cleanly before
///   starting a frame;
/// * `Err(TimedOut / WouldBlock)` — the connection is idle (a read
///   timeout fired before any frame byte arrived) — the caller's
///   poll loop re-checks its shutdown flag and calls again;
/// * any other `Err` — the frame is unrecoverable: an oversized
///   length prefix (rejected before allocation), a mid-frame EOF, a
///   stalled frame, or a transport error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match fill(r, &mut len_bytes, true) {
        Ok(()) => {}
        // `fill` signals "peer closed cleanly before a frame started"
        // as NotFound; surface it as the clean-EOF variant.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            DecodeError::Oversized {
                len,
                max: MAX_FRAME,
            },
        ));
    }
    let mut payload = vec![0u8; len];
    fill(r, &mut payload, false)?;
    Ok(Some(payload))
}

/// Read exactly `buf.len()` bytes. With `allow_idle`, a clean EOF or
/// a timeout *before the first byte* is surfaced to the caller: a
/// clean close as `NotFound`, which [`read_frame`] maps to `Ok(None)`.
/// Once any byte has arrived, timeouts retry (up to
/// [`MAX_FRAME_STALLS`]) and EOF is an error.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], allow_idle: bool) -> io::Result<()> {
    let mut got = 0;
    let mut stalls = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 && allow_idle {
                    // Clean close before a frame started.
                    return Err(io::Error::new(io::ErrorKind::NotFound, "peer closed"));
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if got == 0 && allow_idle {
                    // Idle connection: let the caller's poll loop
                    // re-check shutdown and come back.
                    return Err(e);
                }
                stalls += 1;
                if stalls >= MAX_FRAME_STALLS {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "frame stalled mid-transfer",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
