//! The benchmark's own span recorder: one span around every call it
//! makes into a layer during the traced pass. Spans stay in memory
//! (one log per generator thread, no locks) and are written out when
//! the pass ends, merged with the program's `bnn-trace` events into a
//! single Chrome trace. Untraced passes carry no log at all, so no
//! end-to-end metric ever pays for this.

use crate::json::Json;
use bnn_fpga::trace;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the benchmark was doing (`encode`, `write`, `wait`,
    /// `decode`, or `request` for the whole client-observed latency).
    pub name: &'static str,
    /// Start, µs on the `bnn-trace` clock (shared with the program's
    /// spans, so both line up in one timeline).
    pub start_us: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// This span's id.
    pub id: u64,
    /// The span that caused it (0 = none).
    pub parent: u64,
    /// The request it belongs to: `conn << 32 | slot`.
    pub request: u64,
}

/// Spans of one generator thread.
#[derive(Debug)]
pub struct SpanLog {
    lane: u64,
    next: u64,
    /// The spans, in completion order.
    pub spans: Vec<Span>,
}

/// Most spans one thread keeps; later ones are counted, not stored.
const SPAN_CAP: usize = 1 << 19;

impl SpanLog {
    /// A log for generator thread `lane` (ids are unique across lanes).
    pub fn new(lane: usize) -> SpanLog {
        SpanLog {
            lane: lane as u64,
            next: 1,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Reserve an id for a span recorded later (a request root whose
    /// children are recorded first).
    pub fn reserve(&mut self) -> u64 {
        let id = (self.lane + 1) << 40 | self.next;
        self.next += 1;
        id
    }

    /// Record a finished span under a reserved id.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }
}

/// Run `f`, recording it as a span when `log` is present. With no log
/// (every untraced pass) this is just the call.
pub fn spanned<T>(
    log: &mut Option<SpanLog>,
    name: &'static str,
    request: u64,
    parent: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(log) = log else { return f() };
    let start_us = trace::clock::now_us();
    let t0 = Instant::now();
    let out = f();
    let dur_ns = t0.elapsed().as_nanos() as u64;
    let id = log.reserve();
    log.push(Span {
        name,
        start_us,
        dur_ns,
        id,
        parent,
        request,
    });
    out
}

/// Median duration in µs of the spans called `name` (0 when the
/// workload records none: its client call has no such step).
pub fn p50_us(logs: &[SpanLog], name: &str) -> f64 {
    let durs: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.spans)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    crate::stats::median(&durs).unwrap_or(0.0)
}

fn event(name: &str, cat: &str, ts: u64, dur_us: f64, pid: u64, tid: u64, args: Json) -> Json {
    let mut e = Json::obj();
    e.push("name", name)
        .push("cat", cat)
        .push("ph", "X")
        .push("ts", ts)
        .push("dur", dur_us)
        .push("pid", pid)
        .push("tid", tid)
        .push("args", args);
    e
}

/// One Chrome trace-event document: the program's spans (pid 1, one
/// track per recording thread — what `GET /trace` would serve) and the
/// benchmark's own (pid 2, one track per generator thread, request
/// roots on a track of their own so overlapping pipelined requests do
/// not fight their children for nesting).
pub fn chrome_trace(program: &[trace::ThreadTrace], own: &[SpanLog]) -> Json {
    let mut events = Vec::new();
    for thread in program {
        for ev in &thread.events {
            let mut args = Json::obj();
            args.push("span", ev.span_id)
                .push("parent", ev.parent)
                .push("meta", ev.meta);
            events.push(event(
                ev.stage.name(),
                "bnn",
                ev.t_start_us,
                ev.dur_us as f64,
                1,
                u64::from(thread.tid),
                args,
            ));
        }
    }
    for log in own {
        for s in &log.spans {
            let mut args = Json::obj();
            args.push("span", s.id)
                .push("parent", s.parent)
                .push("request", s.request);
            let track = if s.name == "request" { 100 } else { 0 } + log.lane;
            events.push(event(
                s.name,
                "bench",
                s.start_us,
                s.dur_ns as f64 / 1e3,
                2,
                track,
                args,
            ));
        }
    }
    let mut doc = Json::obj();
    doc.push("traceEvents", events)
        .push("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_when_a_log_is_present() {
        let mut none: Option<SpanLog> = None;
        assert_eq!(spanned(&mut none, "wait", 1, 0, || 7), 7);
        let mut some = Some(SpanLog::new(2));
        let root = some.as_mut().unwrap().reserve();
        assert_eq!(spanned(&mut some, "wait", 9, root, || 7), 7);
        let log = some.unwrap();
        assert_eq!(log.spans.len(), 1);
        assert_eq!(log.spans[0].parent, root);
        assert_eq!(log.spans[0].request, 9);
        assert_ne!(log.spans[0].id, root);
        assert!(p50_us(&[log], "wait") >= 0.0);
    }

    #[test]
    fn chrome_trace_merges_both_sources() {
        let program = vec![trace::ThreadTrace {
            tid: 3,
            events: vec![trace::Event {
                span_id: 10,
                parent: 0,
                stage: trace::Stage::Compute,
                t_start_us: 1000,
                dur_us: 250,
                meta: 4,
            }],
        }];
        let mut log = SpanLog::new(0);
        let id = log.reserve();
        log.push(Span {
            name: "request",
            start_us: 990,
            dur_ns: 300_000,
            id,
            parent: 0,
            request: 5,
        });
        let doc = chrome_trace(&program, &[log]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("compute")
        );
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("bench"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(300.0));
        assert!(Json::parse(&doc.to_string()).is_ok());
    }
}
