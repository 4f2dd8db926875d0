//! The load drivers, one per workload kind. Each generator thread
//! walks its connection's [`SlotStream`] until the pass deadline,
//! checks every reply as it arrives (pinned seed echoed, probabilities
//! sum to 1), and returns a [`ConnLog`] of exact per-request samples;
//! nothing is aggregated while the load runs.
//!
//! These are the benchmark's own loops, not `bnn-loadgen`'s: its
//! open-loop modes read replies only when the pipeline is full, so at
//! low rates a reply waits in the socket until later sends happen and
//! the measured latency *falls* as the rate rises. The open loop here
//! has an independent reader that timestamps each reply on arrival
//! (the unit test at the bottom pins that).

use crate::plan::{derive, Slot, SlotStream, MIX};
use crate::spans::{spanned, Span, SpanLog};
use crate::stack::{session_seed, wire_request, Inputs, Model};
use crate::workload::{Workload, POISSON_RATE};
use bnn_fpga::net::wire;
use bnn_fpga::net::{ErrorCode, Response, WireReply};
use bnn_fpga::trace;
use bnn_fpga::{Handle, NetClient, PipelinedClient};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and the reply passed its checks.
    Ok,
    /// The server answered with a typed error.
    Refused(ErrorCode),
    /// The connection failed or the reply never came.
    Transport,
    /// Served, but the reply failed a check (wrong seed echoed,
    /// probabilities off the simplex).
    BadReply,
}

/// One finished operation: 16 bytes, because a pass keeps every one.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Client-observed latency in ns (from due time on the open loop).
    pub lat_ns: u64,
    /// Completion time, µs since the pass epoch.
    pub done_us: u32,
    /// `Reply::coalesced` (0 when the path has no dispatcher).
    pub coalesced: u16,
    /// How it ended.
    pub outcome: Outcome,
}

/// Samples a generator's log holds before it has to grow: 2^17 is
/// four times what the fastest load answers per connection in a run.
/// The log is written once up front, so its pages are resident before
/// the warm-up and `peak_rss_mib` does not rise with the number of
/// requests answered — a faster program must not read as a fatter one.
const LOG_SAMPLES: usize = 1 << 17;

/// A reply kept for the digest and the offline replay.
#[derive(Debug, Clone)]
pub struct Kept {
    /// Slot index on its connection.
    pub slot: u32,
    /// Pool indices of the images asked about.
    pub inputs: Vec<usize>,
    /// The pinned mask seed.
    pub seed: u64,
    /// The probabilities that came back.
    pub probs: Vec<f32>,
    /// Chosen for the 1-in-64 replay (else kept for the digest only).
    pub sampled: bool,
}

/// One send of the open loop: when, how late, how much was pending.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Send time, ns since the pass epoch.
    pub t_ns: u64,
    /// Send time minus due time, ns.
    pub lag_ns: u64,
    /// Requests sent and not yet answered at this send.
    pub inflight: u64,
}

/// Everything one generator thread saw.
#[derive(Debug)]
pub struct ConnLog {
    /// Connection index.
    pub conn: usize,
    /// Operations issued (answered or not).
    pub issued: u64,
    /// Finished operations.
    pub done: Vec<Done>,
    /// Replies kept for verification.
    pub kept: Vec<Kept>,
    /// Open-loop pacing samples.
    pub pace: Vec<Pace>,
    /// The thread's own spans (traced pass only).
    pub spans: Vec<SpanLog>,
}

/// What every driver needs to know about the pass it is part of.
#[derive(Clone, Copy)]
pub struct PassCtx<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// The run seed.
    pub seed: u64,
    /// The input pool.
    pub inputs: &'a Inputs,
    /// Time zero of the pass (warm-up starts here).
    pub epoch: Instant,
    /// When generators stop issuing.
    pub deadline: Instant,
    /// Whether this is the traced pass (own spans recorded).
    pub traced: bool,
}

impl PassCtx<'_> {
    fn log(&self, conn: usize) -> ConnLog {
        let filler = Done {
            lat_ns: u64::MAX,
            done_us: u32::MAX,
            coalesced: 0,
            outcome: Outcome::Transport,
        };
        let mut done = vec![filler; LOG_SAMPLES];
        done.clear();
        ConnLog {
            conn,
            issued: 0,
            done,
            kept: Vec::new(),
            pace: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn span_log(&self, lane: usize) -> Option<SpanLog> {
        self.traced.then(|| SpanLog::new(lane))
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn done(&self, arrived: Instant, lat_ns: u64, outcome: Outcome, coalesced: u32) -> Done {
        Done {
            lat_ns,
            done_us: (self.since_epoch(arrived) / 1000) as u32,
            coalesced: coalesced.min(u32::from(u16::MAX)) as u16,
            outcome,
        }
    }

    /// Whether slot `slot` of `conn` is kept, and whether it is one of
    /// the 1-in-64 replies replayed offline (chosen from the seed, not
    /// from anything measured).
    fn keep(&self, conn: usize, slot: u32) -> Option<bool> {
        let sampled = derive(self.seed ^ 0x5a3b, request_id(conn, slot)) % 64 == 0;
        (sampled || (slot as usize) < self.w.digest_slots).then_some(sampled)
    }
}

fn request_id(conn: usize, slot: u32) -> u64 {
    (conn as u64) << 32 | u64::from(slot)
}

/// Record (traced pass only) a request's root span: its whole
/// client-observed latency, under the id its children already name.
fn push_root(spans: &mut Option<SpanLog>, root: u64, request: u64, start_us: u64, lat_ns: u64) {
    if let Some(spans) = spans {
        spans.push(Span {
            name: "request",
            start_us,
            dur_ns: lat_ns,
            id: root,
            parent: 0,
            request,
        });
    }
}

/// The per-reply checks: probabilities finite and summing to 1 ± 1e-4
/// per image, and (where the path echoes one) the pinned seed.
fn reply_ok(probs: &[f32], classes: usize, echoed: Option<u64>, pinned: u64) -> bool {
    echoed.map_or(true, |seed| seed == pinned)
        && !probs.is_empty()
        && probs.chunks(classes).all(|row| {
            let sum: f32 = row.iter().sum();
            row.iter().all(|p| p.is_finite()) && (sum - 1.0).abs() <= 1e-4
        })
}

const CLASSES: usize = 10;

fn wire_outcome(response: &Response, slot: &Slot) -> (Outcome, u32) {
    match response {
        Response::Reply(reply) => {
            let ok = reply_ok(&reply.probs, CLASSES, Some(reply.seed), slot.seed);
            (
                if ok { Outcome::Ok } else { Outcome::BadReply },
                reply.coalesced,
            )
        }
        Response::Error(err) => (Outcome::Refused(err.code), 0),
    }
}

fn keep_wire(ctx: &PassCtx, log: &mut ConnLog, idx: u32, slot: &Slot, reply: &WireReply) {
    if let Some(sampled) = ctx.keep(log.conn, idx) {
        log.kept.push(Kept {
            slot: idx,
            inputs: vec![slot.input],
            seed: slot.seed,
            probs: reply.probs.clone(),
            sampled,
        });
    }
}

/// Finish one request of a wire driver: classify, keep, record the
/// sample and (traced) the request's root span.
#[allow(clippy::too_many_arguments)]
fn finish_wire(
    ctx: &PassCtx,
    log: &mut ConnLog,
    spans: &mut Option<SpanLog>,
    idx: u32,
    slot: &Slot,
    response: &Response,
    root: u64,
    started: (Instant, u64),
    arrived: Instant,
) {
    let rid = request_id(log.conn, idx);
    let (outcome, coalesced) = spanned(spans, "decode", rid, root, || {
        let checked = wire_outcome(response, slot);
        if let (Outcome::Ok, Response::Reply(reply)) = (checked.0, response) {
            keep_wire(ctx, log, idx, slot, reply);
        }
        checked
    });
    let lat_ns = arrived.saturating_duration_since(started.0).as_nanos() as u64;
    log.done.push(ctx.done(arrived, lat_ns, outcome, coalesced));
    push_root(spans, root, rid, started.1, lat_ns);
}

fn transport_failure(ctx: &PassCtx, log: &mut ConnLog) {
    log.done
        .push(ctx.done(Instant::now(), 0, Outcome::Transport, 0));
}

/// Lock-step over TCP: `NetClient` (protocol v1), one request in
/// flight, zero think time.
pub fn lockstep(ctx: &PassCtx, addr: SocketAddr, conn: usize) -> ConnLog {
    let mut log = ctx.log(conn);
    let mut spans = ctx.span_log(conn);
    let Ok(mut client) = NetClient::connect(addr) else {
        log.issued = 1;
        transport_failure(ctx, &mut log);
        return log;
    };
    for (idx, slot) in (0u32..).zip(SlotStream::new(ctx.seed, conn, POISSON_RATE)) {
        if Instant::now() >= ctx.deadline {
            break;
        }
        let rid = request_id(conn, idx);
        let root = spans.as_mut().map_or(0, SpanLog::reserve);
        let started = (Instant::now(), trace::clock::now_us());
        let request = spanned(&mut spans, "encode", rid, root, || {
            wire_request(ctx.inputs, &slot)
        });
        log.issued += 1;
        // `send` is encode + write + read + decode in one call; from
        // outside it is all waiting.
        let response = spanned(&mut spans, "wait", rid, root, || client.send(&request));
        let arrived = Instant::now();
        match response {
            Ok(response) => finish_wire(
                ctx, &mut log, &mut spans, idx, &slot, &response, root, started, arrived,
            ),
            Err(_) => {
                transport_failure(ctx, &mut log);
                break;
            }
        }
    }
    log.spans.extend(spans);
    log
}

/// Pipelined over TCP: `PipelinedClient` (protocol v2), `depth`
/// requests in flight, closed loop — the next request goes out only
/// when a reply has made room.
pub fn pipelined(ctx: &PassCtx, addr: SocketAddr, conn: usize) -> ConnLog {
    let mut log = ctx.log(conn);
    let mut spans = ctx.span_log(conn);
    let depth = ctx.w.depth;
    let Ok(mut client) = PipelinedClient::connect(addr, depth) else {
        log.issued = 1;
        transport_failure(ctx, &mut log);
        return log;
    };
    // In flight, oldest first: (corr = slot index, slot, root span,
    // start). Replies may come back in any order.
    let mut flying: VecDeque<(u32, Slot, u64, (Instant, u64))> = VecDeque::new();
    let mut stream = (0u32..).zip(SlotStream::new(ctx.seed, conn, POISSON_RATE));
    let mut issuing = true;
    while issuing || !flying.is_empty() {
        if flying.len() >= depth || !issuing {
            let received = spanned(&mut spans, "wait", 0, 0, || client.recv());
            let arrived = Instant::now();
            let Ok((corr, response)) = received else {
                break;
            };
            let Some(pos) = flying.iter().position(|f| u64::from(f.0) == corr) else {
                break;
            };
            let Some((idx, slot, root, started)) = flying.remove(pos) else {
                break;
            };
            finish_wire(
                ctx, &mut log, &mut spans, idx, &slot, &response, root, started, arrived,
            );
            continue;
        }
        if Instant::now() >= ctx.deadline {
            issuing = false;
            continue;
        }
        let Some((idx, slot)) = stream.next() else {
            break;
        };
        let rid = request_id(conn, idx);
        let root = spans.as_mut().map_or(0, SpanLog::reserve);
        let started = (Instant::now(), trace::clock::now_us());
        let request = spanned(&mut spans, "encode", rid, root, || {
            wire_request(ctx.inputs, &slot)
        });
        log.issued += 1;
        // Never at depth here, so `submit` only encodes and writes.
        let sent = spanned(&mut spans, "write", rid, root, || client.submit(&request));
        match sent {
            Ok(submitted) if submitted.corr == u64::from(idx) => {
                flying.push_back((idx, slot, root, started));
            }
            _ => {
                transport_failure(ctx, &mut log);
                break;
            }
        }
    }
    // Anything still in flight after a transport break never answered.
    for _ in flying {
        transport_failure(ctx, &mut log);
    }
    log.spans.extend(spans);
    log
}

/// How long the open loop's reader waits for stragglers once the
/// writer has stopped.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Open loop over TCP on raw `wire::` frames: a paced writer sends on
/// the seeded Poisson schedule whatever came back, and a reader on a
/// cloned stream timestamps each reply **on arrival**. Latency runs
/// from the instant the request was *due*, so a stall is charged to
/// every request it delays, and `Pace::lag_ns` says how late the
/// generator itself ran.
pub fn open_loop(ctx: &PassCtx, addr: SocketAddr, conn: usize, rate: f64) -> ConnLog {
    let mut log = ctx.log(conn);
    let connected = TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_write_timeout(Some(Duration::from_secs(30)))?;
        // The reader polls: an idle read times out so it can see that
        // the writer is done.
        s.set_read_timeout(Some(Duration::from_millis(20)))?;
        let reader = s.try_clone()?;
        Ok((s, reader))
    });
    let Ok((mut write_half, mut read_half)) = connected else {
        log.issued = 1;
        transport_failure(ctx, &mut log);
        return log;
    };
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    // Due time of slot i = epoch + gap_0 + … + gap_i: both threads
    // derive it from their own copy of the stream.
    let due_at = |elapsed_us: u64| ctx.epoch + Duration::from_micros(elapsed_us);

    // The reader owns the log while the pass runs; the writer only paces.
    let (pace, writer_spans, mut log) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rlog = log;
            let mut spans = ctx.span_log(conn + 100);
            let mut plan = SlotStream::new(ctx.seed, conn, rate);
            let mut planned: Vec<(Slot, u64)> = Vec::new();
            let mut elapsed_us = 0u64;
            let mut done_since: Option<Instant> = None;
            loop {
                let frame = spanned(&mut spans, "wait", 0, 0, || {
                    wire::read_frame(&mut read_half)
                });
                let arrived = Instant::now();
                match frame {
                    Ok(Some(payload)) => {
                        let got = received.fetch_add(1, Ordering::Relaxed) + 1;
                        let Ok(response) = wire::decode_response(&payload) else {
                            break;
                        };
                        let corr = match &response {
                            Response::Reply(r) => r.corr,
                            Response::Error(e) => e.corr,
                        };
                        let Some(corr) = corr.filter(|&c| c < got + (1 << 20)) else {
                            break;
                        };
                        while planned.len() as u64 <= corr {
                            let slot = plan.next_slot();
                            elapsed_us += slot.gap_us;
                            planned.push((slot, elapsed_us));
                        }
                        let (slot, due_us) = planned[corr as usize];
                        let due = due_at(due_us);
                        let root = spans.as_mut().map_or(0, SpanLog::reserve);
                        let start_us = trace::clock::now_us().saturating_sub(
                            arrived.saturating_duration_since(due).as_micros() as u64,
                        );
                        finish_wire(
                            ctx,
                            &mut rlog,
                            &mut spans,
                            corr as u32,
                            &slot,
                            &response,
                            root,
                            (due, start_us),
                            arrived,
                        );
                    }
                    Ok(None) => break,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if writer_done.load(Ordering::Acquire) {
                            if received.load(Ordering::Relaxed) >= sent.load(Ordering::Acquire) {
                                break;
                            }
                            let since = *done_since.get_or_insert(arrived);
                            if arrived.duration_since(since) > DRAIN_GRACE {
                                break;
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            rlog.spans.extend(spans);
            rlog
        });

        let mut spans = ctx.span_log(conn);
        let mut pace = Vec::with_capacity(1 << 14);
        let mut buf = Vec::new();
        let mut elapsed_us = 0u64;
        for (idx, slot) in (0u64..).zip(SlotStream::new(ctx.seed, conn, rate)) {
            elapsed_us += slot.gap_us;
            let due = due_at(elapsed_us);
            if due >= ctx.deadline {
                break;
            }
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            let rid = request_id(conn, idx as u32);
            let encoded = spanned(&mut spans, "encode", rid, 0, || {
                wire::encode_request(&wire_request(ctx.inputs, &slot).corr(idx), &mut buf)
            });
            let wrote = encoded.is_ok()
                && spanned(&mut spans, "write", rid, 0, || {
                    wire::write_frame(&mut write_half, &buf)
                })
                .is_ok();
            if !wrote {
                break;
            }
            sent.store(idx + 1, Ordering::Release);
            pace.push(Pace {
                t_ns: ctx.since_epoch(now),
                lag_ns: now.saturating_duration_since(due).as_nanos() as u64,
                inflight: (idx + 1).saturating_sub(received.load(Ordering::Relaxed)),
            });
        }
        writer_done.store(true, Ordering::Release);
        let log = reader.join().unwrap_or_else(|_| ctx.log(conn));
        (pace, spans, log)
    });

    log.issued = sent.load(Ordering::Acquire);
    log.pace = pace;
    log.spans.extend(writer_spans);
    // Sent but never answered: a missing reply is a failed request.
    for _ in log.done.len() as u64..log.issued {
        transport_failure(ctx, &mut log);
    }
    log
}

/// In-process closed loop through a `Handle`:
/// `request(x).priority(..).seed(..).submit().wait()`.
pub fn inproc(ctx: &PassCtx, handle: &Handle, conn: usize) -> ConnLog {
    let mut log = ctx.log(conn);
    let mut spans = ctx.span_log(conn);
    for (idx, slot) in (0u32..).zip(SlotStream::new(ctx.seed, conn, POISSON_RATE)) {
        if Instant::now() >= ctx.deadline {
            break;
        }
        let rid = request_id(conn, idx);
        let root = spans.as_mut().map_or(0, SpanLog::reserve);
        let started = (Instant::now(), trace::clock::now_us());
        let class = &MIX[slot.class];
        let submission = spanned(&mut spans, "encode", rid, root, || {
            let mut s = handle
                .request(ctx.inputs.images[slot.input].clone())
                .priority(class.priority)
                .seed(slot.seed);
            if let Some(us) = class.deadline_us {
                s = s.deadline(Duration::from_micros(us));
            }
            s
        });
        log.issued += 1;
        let pending = spanned(&mut spans, "write", rid, root, || submission.submit());
        let reply = spanned(&mut spans, "wait", rid, root, || pending.wait());
        let arrived = Instant::now();
        let (outcome, coalesced) = spanned(&mut spans, "decode", rid, root, || match &reply {
            Ok(reply) => {
                let probs = reply.probs.as_slice();
                // The simulator's modelled cost rides on every reply.
                let ok = reply_ok(probs, CLASSES, None, slot.seed) && reply.cost.model.is_some();
                if ok {
                    if let Some(sampled) = ctx.keep(conn, idx) {
                        log.kept.push(Kept {
                            slot: idx,
                            inputs: vec![slot.input],
                            seed: slot.seed,
                            probs: probs.to_vec(),
                            sampled,
                        });
                    }
                }
                (
                    if ok { Outcome::Ok } else { Outcome::BadReply },
                    reply.coalesced as u32,
                )
            }
            Err(e) => (Outcome::Refused(ErrorCode::from(*e)), 0),
        });
        let lat_ns = arrived.saturating_duration_since(started.0).as_nanos() as u64;
        log.done.push(ctx.done(arrived, lat_ns, outcome, coalesced));
        push_root(&mut spans, root, rid, started.1, lat_ns);
    }
    log.spans.extend(spans);
    log
}

/// In-process batch calls, no server: one thread, one session, one
/// continuing mask stream; each call is
/// `Session::predictive_batched(xs, 1)` on `images_per_op` images.
pub fn session_batch(ctx: &PassCtx, model: &Model) -> ConnLog {
    let mut log = ctx.log(0);
    let mut spans = ctx.span_log(0);
    let per_op = ctx.w.images_per_op;
    let mut session = model.session(session_seed(ctx.seed));
    let mut slots = SlotStream::new(ctx.seed, 0, POISSON_RATE);
    for idx in 0u32.. {
        if Instant::now() >= ctx.deadline {
            break;
        }
        let rid = request_id(0, idx);
        let root = spans.as_mut().map_or(0, SpanLog::reserve);
        let started = (Instant::now(), trace::clock::now_us());
        let picks: Vec<usize> = slots.by_ref().take(per_op).map(|s| s.input).collect();
        let xs = spanned(&mut spans, "encode", rid, root, || ctx.inputs.batch(&picks));
        log.issued += 1;
        let probs = spanned(&mut spans, "wait", rid, root, || {
            session.predictive_batched(&xs, 1)
        });
        let arrived = Instant::now();
        let ok = spanned(&mut spans, "decode", rid, root, || {
            let ok =
                probs.len() == per_op * CLASSES && reply_ok(probs.as_slice(), CLASSES, None, 0);
            if ok && (idx as usize) < ctx.w.digest_slots {
                log.kept.push(Kept {
                    slot: idx,
                    inputs: picks.clone(),
                    seed: 0,
                    probs: probs.as_slice().to_vec(),
                    sampled: true,
                });
            }
            ok
        });
        let lat_ns = arrived.saturating_duration_since(started.0).as_nanos() as u64;
        let outcome = if ok { Outcome::Ok } else { Outcome::BadReply };
        log.done.push(ctx.done(arrived, lat_ns, outcome, 0));
        push_root(&mut spans, root, rid, started.1, lat_ns);
    }
    log.spans.extend(spans);
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{percentile_sorted, sorted};
    use crate::workload::WORKLOADS;
    use bnn_fpga::mcd::{CostReport, Uncertainty};
    use bnn_fpga::tensor::{Shape4, Tensor};
    use std::net::TcpListener;

    /// A stub front door: one connection, requests answered strictly
    /// in order after a fixed 1 ms of "service", seed and corr echoed.
    /// A single server with deterministic service time: latency can
    /// only rise with the arrival rate.
    fn echo_listener() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut out = Vec::new();
            while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
                let request = wire::decode_request(&payload).unwrap();
                std::thread::sleep(Duration::from_millis(1));
                let reply = bnn_fpga::Reply {
                    id: 0,
                    probs: Tensor::full(Shape4::vec(1, CLASSES), 0.1),
                    uncertainty: Uncertainty {
                        predicted: 0,
                        confidence: 0.1,
                        entropy: 0.0,
                        mutual_information: 0.0,
                    },
                    cost: CostReport::default(),
                    coalesced: 1,
                };
                wire::encode_reply(&reply, request.seed.unwrap_or(0), request.corr, &mut out);
                if wire::write_frame(&mut stream, &out).is_err() {
                    break;
                }
            }
        });
        (addr, worker)
    }

    fn open_loop_p50_us(rate: f64) -> (f64, usize) {
        let (addr, worker) = echo_listener();
        let inputs = Inputs::generate(1);
        let epoch = Instant::now();
        let ctx = PassCtx {
            w: &WORKLOADS[2],
            seed: 11,
            inputs: &inputs,
            epoch,
            deadline: epoch + Duration::from_millis(1200),
            traced: false,
        };
        let log = open_loop(&ctx, addr, 0, rate);
        worker.join().unwrap();
        assert!(log.done.iter().all(|d| d.outcome == Outcome::Ok));
        assert_eq!(log.done.len() as u64, log.issued);
        let lats: Vec<f64> = log.done.iter().map(|d| d.lat_ns as f64 / 1e3).collect();
        (percentile_sorted(&sorted(&lats), 50.0).unwrap(), lats.len())
    }

    /// The artefact this driver exists to avoid: a client that reads
    /// replies only when it next sends reports *lower* latency at a
    /// *higher* rate. Against a 1 ms single server, 100/s is almost
    /// idle and 600/s queues (M/D/1 at 60 % load waits ≈ 0.75 ms on
    /// average), so measured latency must not fall as the rate rises —
    /// and at the idle rate it must be the service time, not a
    /// multiple of the 10 ms arrival gap.
    #[test]
    fn open_loop_latency_does_not_fall_as_the_rate_rises() {
        let (slow, n_slow) = open_loop_p50_us(100.0);
        let (fast, n_fast) = open_loop_p50_us(600.0);
        assert!(n_slow > 60 && n_fast > 400, "sent {n_slow} / {n_fast}");
        assert!(
            fast >= slow,
            "p50 fell from {slow:.0} us at 100/s to {fast:.0} us at 600/s"
        );
        assert!(
            slow < 5_000.0,
            "idle-rate p50 {slow:.0} us is not service time"
        );
    }

    #[test]
    fn reply_checks_catch_a_wrong_seed_and_a_bad_simplex() {
        let good = [0.1f32; 10];
        assert!(reply_ok(&good, 10, Some(5), 5));
        assert!(reply_ok(&good, 10, None, 5));
        assert!(!reply_ok(&good, 10, Some(6), 5));
        let mut off = good;
        off[0] = 0.2;
        assert!(!reply_ok(&off, 10, Some(5), 5));
        let mut nan = good;
        nan[3] = f32::NAN;
        assert!(!reply_ok(&nan, 10, Some(5), 5));
        assert!(!reply_ok(&[], 10, None, 0));
    }
}
