//! Rolling-window serving telemetry behind `GET /status` and the
//! Prometheus-style `GET /metrics` exposition.
//!
//! Live telemetry for a running server: a ring buffer of recent
//! request latencies (nearest-rank p50/p99 answered from log2 bucket
//! counts folded at record time — no per-snapshot copy or sort), a
//! cumulative [`LogHistogram`] of
//! every latency ever recorded, a batch-size histogram, aggregated
//! [`CostReport`]s keyed by substrate, and net-layer counters
//! (connections, HTTP hits, rate-limited and malformed frames).
//! Admission counters and the queue-depth/in-flight gauges come
//! straight from [`bnn_serve::ServeStats`] at snapshot time, so
//! `/status` and `Server::stats()` can never disagree at quiesce.

use crate::lock;
use bnn_mcd::CostReport;
use bnn_serve::ServeStats;
use bnn_trace::{bucket_of, percentile_in_buckets, JsonObj, LogHistogram, LOG2_BUCKETS};
use std::sync::Mutex;
use std::time::Duration;

/// Upper edges of the batch-size histogram buckets: 1, 2, 3–4, 5–8,
/// 9–16, 17–32, 33+.
const BATCH_EDGES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Number of histogram buckets (the edges plus the 33+ overflow).
pub const BATCH_BUCKETS: usize = BATCH_EDGES.len() + 1;

/// Human-readable bucket labels, aligned with [`BATCH_BUCKETS`].
pub const BATCH_LABELS: [&str; BATCH_BUCKETS] = ["1", "2", "3-4", "5-8", "9-16", "17-32", "33+"];

fn batch_bucket(size: usize) -> usize {
    match BATCH_EDGES.iter().position(|&edge| size <= edge) {
        Some(i) => i,
        None => BATCH_EDGES.len(),
    }
}

/// Mutable monitor state; one lock, touched once per reply.
struct State {
    /// Latency ring, microseconds; `next` is the overwrite cursor.
    /// Kept so window bucket counts can be decremented on eviction
    /// and so the window min/max are exact.
    ring: Vec<u64>,
    next: usize,
    /// Log2 bucket counts over exactly the ring's contents,
    /// maintained incrementally: +1 on record, -1 on eviction.
    window_buckets: [u64; LOG2_BUCKETS],
    /// Every latency ever recorded — the `/metrics` histogram.
    cumulative: LogHistogram,
    /// Total replies recorded (ring may hold only the tail).
    recorded: u64,
    batch_hist: [u64; BATCH_BUCKETS],
    cost: CostReport,
    rate_limited: u64,
    malformed: u64,
    connections: u64,
    http_requests: u64,
}

/// Rolling-window monitor shared by every connection worker.
pub struct Monitor {
    window: usize,
    substrate: &'static str,
    state: Mutex<State>,
}

impl Monitor {
    /// A monitor keeping the most recent `window` latencies (clamped
    /// to at least 1) for the named substrate.
    pub fn new(window: usize, substrate: &'static str) -> Monitor {
        Monitor {
            window: window.max(1),
            substrate,
            state: Mutex::new(State {
                ring: Vec::new(),
                next: 0,
                window_buckets: [0; LOG2_BUCKETS],
                cumulative: LogHistogram::new(),
                recorded: 0,
                batch_hist: [0; BATCH_BUCKETS],
                cost: CostReport::default(),
                rate_limited: 0,
                malformed: 0,
                connections: 0,
                http_requests: 0,
            }),
        }
    }

    /// Fold one served reply: wall-clock latency as seen by the
    /// connection worker, the coalesced batch size, and the cost
    /// slice. O(1): the latency lands in the ring, the window bucket
    /// counts (evicted slot decremented first), and the cumulative
    /// histogram — snapshots never re-scan or sort.
    pub fn record_reply(&self, latency: Duration, coalesced: usize, cost: &CostReport) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut st = lock(&self.state);
        if st.ring.len() < self.window {
            st.ring.push(us);
        } else {
            let slot = st.next;
            let evicted = st.ring[slot];
            st.window_buckets[bucket_of(evicted)] -= 1;
            st.ring[slot] = us;
        }
        st.window_buckets[bucket_of(us)] += 1;
        st.cumulative.record(us);
        st.next = (st.next + 1) % self.window;
        st.recorded += 1;
        st.batch_hist[batch_bucket(coalesced.max(1))] += 1;
        st.cost.accumulate(cost);
    }

    /// Count a frame the tenant gate refused.
    pub fn record_rate_limited(&self) {
        lock(&self.state).rate_limited += 1;
    }

    /// Count a frame the decoder refused.
    pub fn record_malformed(&self) {
        lock(&self.state).malformed += 1;
    }

    /// Count an accepted connection.
    pub fn record_connection(&self) {
        lock(&self.state).connections += 1;
    }

    /// Count an HTTP request (any path or method).
    pub fn record_http(&self) {
        lock(&self.state).http_requests += 1;
    }

    /// Consistent copy of everything the monitor knows.
    ///
    /// Percentiles are answered from the window bucket counts folded
    /// at record time ([`percentile_in_buckets`], the same nearest-rank
    /// walk as [`LogHistogram::percentile_per_mille`], here over the
    /// rolling window) — no ring copy and no sort, just an O(window)
    /// min/max scan plus an O(buckets) walk, all allocation-free — so
    /// a `/status` poll holds the lock for a bounded, tiny interval
    /// regardless of window size or polling rate.
    pub fn snapshot(&self) -> MonitorSnapshot {
        let st = lock(&self.state);
        let (mut min_us, mut max_us) = (u64::MAX, 0u64);
        for &us in &st.ring {
            min_us = min_us.min(us);
            max_us = max_us.max(us);
        }
        let total = st.ring.len() as u64;
        MonitorSnapshot {
            substrate: self.substrate,
            window: self.window,
            latency_samples: st.ring.len(),
            p50_us: percentile_in_buckets(&st.window_buckets, total, min_us, max_us, 500),
            p99_us: percentile_in_buckets(&st.window_buckets, total, min_us, max_us, 990),
            recorded: st.recorded,
            batch_hist: st.batch_hist,
            cost: st.cost,
            rate_limited: st.rate_limited,
            malformed: st.malformed,
            connections: st.connections,
            http_requests: st.http_requests,
        }
    }

    /// Render the full `/status` document: the monitor snapshot plus
    /// the admission layer's own counters and gauges.
    pub fn status_json(&self, stats: &ServeStats) -> String {
        self.snapshot().to_json(stats)
    }

    /// Render the Prometheus-style text exposition behind
    /// `GET /metrics`: the always-on cumulative served-latency
    /// histogram (its `_count` equals the admission layer's `served`
    /// at quiesce, which `tests/reconcile.rs` gates), admission and
    /// front-door counters, and — when tracing is enabled — the
    /// per-stage span-duration histograms.
    pub fn metrics_text(&self, stats: &ServeStats) -> String {
        use bnn_trace::metrics::{push_header, push_histogram, push_sample};
        let (latency, rate_limited, malformed, connections, http_requests) = {
            let st = lock(&self.state);
            (
                st.cumulative.clone(),
                st.rate_limited,
                st.malformed,
                st.connections,
                st.http_requests,
            )
        };
        let mut out = String::with_capacity(2048);
        push_header(
            &mut out,
            "bnn_request_latency_us",
            "histogram",
            "end-to-end served-reply latency in microseconds, cumulative since start",
        );
        push_histogram(
            &mut out,
            "bnn_request_latency_us",
            &[("substrate", self.substrate)],
            &latency,
        );
        push_header(
            &mut out,
            "bnn_admission_total",
            "counter",
            "terminal admission outcomes by disposition",
        );
        for (disposition, value) in [
            ("served", stats.served),
            ("shed", stats.shed),
            ("expired", stats.expired),
            ("failed", stats.failed),
            ("rejected", stats.rejected),
        ] {
            push_sample(
                &mut out,
                "bnn_admission_total",
                &[("disposition", disposition)],
                value,
            );
        }
        push_header(
            &mut out,
            "bnn_queue_depth",
            "gauge",
            "requests accepted into the admission queue but not yet batched",
        );
        push_sample(&mut out, "bnn_queue_depth", &[], stats.queued);
        push_header(
            &mut out,
            "bnn_in_flight",
            "gauge",
            "requests taken into a micro-batch whose replies are still pending",
        );
        push_sample(&mut out, "bnn_in_flight", &[], stats.in_flight);
        push_header(&mut out, "bnn_net_total", "counter", "front-door events");
        for (event, value) in [
            ("connections", connections),
            ("http_requests", http_requests),
            ("rate_limited", rate_limited),
            ("malformed", malformed),
        ] {
            push_sample(&mut out, "bnn_net_total", &[("event", event)], value);
        }
        bnn_trace::metrics::push_stage_histograms(&mut out, "bnn_stage_duration_us");
        out
    }
}

/// Point-in-time copy of the monitor state.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorSnapshot {
    /// Which engine substrate this server fronts.
    pub substrate: &'static str,
    /// Configured latency window size.
    pub window: usize,
    /// Latencies currently in the ring (≤ window).
    pub latency_samples: usize,
    /// Nearest-rank median latency over the window, µs, answered at
    /// log2-bucket resolution (interpolated within the hit bucket,
    /// clamped to the window's exact min/max).
    pub p50_us: Option<u64>,
    /// Nearest-rank 99th-percentile latency over the window, µs, at
    /// the same log2-bucket resolution as `p50_us`.
    pub p99_us: Option<u64>,
    /// Total replies ever recorded.
    pub recorded: u64,
    /// Batch-size histogram, buckets per [`BATCH_LABELS`].
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Every recorded reply's engine cost, accumulated (one reply per
    /// `recorded`).
    pub cost: CostReport,
    /// Frames refused by the tenant gate.
    pub rate_limited: u64,
    /// Frames the decoder refused.
    pub malformed: u64,
    /// Connections accepted.
    pub connections: u64,
    /// HTTP requests seen.
    pub http_requests: u64,
}

impl MonitorSnapshot {
    /// Render the `/status` JSON document, merging the admission
    /// layer's counters and gauges. Rendered through the stack's one
    /// JSON writer ([`JsonObj`]: call-order keys, three-decimal
    /// floats, `null` for an empty window's percentiles).
    pub fn to_json(&self, stats: &ServeStats) -> String {
        let mut admission = JsonObj::new();
        admission
            .field_u64("served", stats.served)
            .field_u64("shed", stats.shed)
            .field_u64("expired", stats.expired)
            .field_u64("failed", stats.failed)
            .field_u64("rejected", stats.rejected)
            .field_u64("queued", stats.queued)
            .field_u64("in_flight", stats.in_flight);
        let mut latency = JsonObj::new();
        latency
            .field_u64("window", self.window as u64)
            .field_u64("samples", self.latency_samples as u64)
            .field_u64("recorded", self.recorded)
            .field_opt_u64("p50_us", self.p50_us)
            .field_opt_u64("p99_us", self.p99_us);
        let mut batches = JsonObj::new();
        for (label, count) in BATCH_LABELS.iter().zip(self.batch_hist) {
            batches.field_u64(label, count);
        }
        let model = self.cost.model.unwrap_or_default();
        let mut cost = JsonObj::new();
        cost.field_u64("requests", self.recorded)
            .field_u64("samples", self.cost.samples as u64)
            .field_f64("wall_ms", self.cost.wall_ms)
            .field_u64("cycles", model.cycles)
            .field_u64("mem_bytes", model.mem_bytes)
            .field_f64("modelled_latency_ms", model.latency_ms);
        let mut net = JsonObj::new();
        net.field_u64("connections", self.connections)
            .field_u64("http_requests", self.http_requests)
            .field_u64("rate_limited", self.rate_limited)
            .field_u64("malformed", self.malformed);
        let mut doc = JsonObj::new();
        // Advertises the newest protocol this build speaks; v1 peers
        // are still accepted (the version is negotiated per frame).
        doc.field_u64("protocol_version", 2)
            .field_str("substrate", self.substrate)
            .field_raw("admission", &admission.finish())
            .field_raw("latency", &latency.finish())
            .field_raw("batch_histogram", &batches.finish())
            .field_raw("cost", &cost.finish())
            .field_raw("net", &net.finish());
        doc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_mcd::ModelCost;

    fn report(samples: usize, wall_ms: f64, model: Option<ModelCost>) -> CostReport {
        CostReport {
            samples,
            batch: 1,
            wall_ms,
            model,
        }
    }

    #[test]
    fn batch_buckets_partition_sizes() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(5), 3);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(16), 4);
        assert_eq!(batch_bucket(17), 5);
        assert_eq!(batch_bucket(32), 5);
        assert_eq!(batch_bucket(33), 6);
        assert_eq!(batch_bucket(1000), 6);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        // An empty window answers `None`.
        let snap = Monitor::new(8, "float").snapshot();
        assert_eq!((snap.p50_us, snap.p99_us), (None, None));
        // One sample pins every percentile via the min/max clamp.
        let m = Monitor::new(8, "float");
        m.record_reply(Duration::from_micros(7), 1, &report(1, 0.0, None));
        let snap = m.snapshot();
        assert_eq!((snap.p50_us, snap.p99_us), (Some(7), Some(7)));
        // Uniform values collapse to that value regardless of rank.
        let m = Monitor::new(64, "float");
        for _ in 0..64 {
            m.record_reply(Duration::from_micros(777), 1, &report(1, 0.0, None));
        }
        let snap = m.snapshot();
        assert_eq!((snap.p50_us, snap.p99_us), (Some(777), Some(777)));
    }

    #[test]
    fn ring_keeps_only_the_window_tail() {
        let m = Monitor::new(4, "float");
        for us in [10u64, 20, 30, 40, 1000, 2000] {
            m.record_reply(Duration::from_micros(us), 1, &report(8, 0.5, None));
        }
        let snap = m.snapshot();
        assert_eq!(snap.latency_samples, 4);
        assert_eq!(snap.recorded, 6);
        // Window now holds {30, 40, 1000, 2000}: rank 2 of 4 lands at
        // the start of 40's bucket [32, 63], rank 4 at the start of
        // 2000's bucket [1024, 2047] — log2-bucket resolution, so the
        // answers are the bucket floors, not the exact samples.
        assert_eq!(snap.p50_us, Some(32));
        assert_eq!(snap.p99_us, Some(1024));
        assert_eq!(snap.cost.samples, 48);
    }

    #[test]
    fn cost_aggregates_fold_model_fields() {
        let m = Monitor::new(16, "accel");
        let model = ModelCost {
            cycles: 100,
            latency_ms: 0.25,
            mem_bytes: 4096,
        };
        m.record_reply(Duration::from_micros(5), 3, &report(8, 1.0, Some(model)));
        m.record_reply(Duration::from_micros(5), 3, &report(8, 1.0, Some(model)));
        let snap = m.snapshot();
        let folded = snap.cost.model.expect("model fields folded");
        assert_eq!(folded.cycles, 200);
        assert_eq!(folded.mem_bytes, 8192);
        assert!((folded.latency_ms - 0.5).abs() < 1e-9);
        assert_eq!(snap.batch_hist[2], 2); // both coalesced=3 → "3-4"
    }

    /// Snapshot under concurrent `record_reply` must never observe a
    /// torn ring: every writer records the same latency, so any
    /// consistent snapshot has p50 == p99 == that latency, at most
    /// `window` samples, and a recorded count that only grows.
    #[test]
    fn snapshot_under_concurrent_record_never_tears() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let m = Arc::new(Monitor::new(64, "fused"));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        m.record_reply(Duration::from_micros(777), 2, &report(4, 0.1, None));
                    }
                });
            }
            let mut last_recorded = 0;
            for _ in 0..200 {
                let snap = m.snapshot();
                assert!(snap.latency_samples <= snap.window);
                assert!(snap.recorded >= last_recorded, "recorded went backwards");
                last_recorded = snap.recorded;
                if snap.latency_samples > 0 {
                    assert_eq!(snap.p50_us, Some(777), "torn ring: {:?}", snap.p50_us);
                    assert_eq!(snap.p99_us, Some(777), "torn ring: {:?}", snap.p99_us);
                }
                assert_eq!(snap.cost.samples as u64, 4 * snap.recorded);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn status_json_is_balanced_and_carries_counters() {
        let m = Monitor::new(8, "int8");
        m.record_reply(Duration::from_micros(123), 1, &report(4, 0.1, None));
        m.record_rate_limited();
        m.record_malformed();
        m.record_connection();
        m.record_http();
        let stats = ServeStats {
            served: 1,
            ..Default::default()
        };
        // The exact bytes: the benchmark parses `admission.*` and
        // `net.*` out of this document, so it must not drift.
        assert_eq!(
            m.status_json(&stats),
            "{\"protocol_version\":2,\"substrate\":\"int8\",\
             \"admission\":{\"served\":1,\"shed\":0,\"expired\":0,\"failed\":0,\
             \"rejected\":0,\"queued\":0,\"in_flight\":0},\
             \"latency\":{\"window\":8,\"samples\":1,\"recorded\":1,\
             \"p50_us\":123,\"p99_us\":123},\
             \"batch_histogram\":{\"1\":1,\"2\":0,\"3-4\":0,\"5-8\":0,\
             \"9-16\":0,\"17-32\":0,\"33+\":0},\
             \"cost\":{\"requests\":1,\"samples\":4,\"wall_ms\":0.100,\"cycles\":0,\
             \"mem_bytes\":0,\"modelled_latency_ms\":0.000},\
             \"net\":{\"connections\":1,\"http_requests\":1,\"rate_limited\":1,\
             \"malformed\":1}}"
        );
        // An empty window renders its percentiles as `null`.
        let empty = Monitor::new(8, "int8").status_json(&stats);
        assert!(empty.contains("\"p50_us\":null,\"p99_us\":null"), "{empty}");
    }

    #[test]
    fn metrics_text_reconciles_with_recorded_replies() {
        let m = Monitor::new(8, "fused");
        for us in [100u64, 200, 300] {
            m.record_reply(Duration::from_micros(us), 1, &report(4, 0.1, None));
        }
        m.record_connection();
        m.record_rate_limited();
        let stats = ServeStats {
            served: 3,
            queued: 2,
            ..Default::default()
        };
        let text = m.metrics_text(&stats);
        assert!(text.contains("# TYPE bnn_request_latency_us histogram"));
        assert!(
            text.contains("bnn_request_latency_us_count{substrate=\"fused\"} 3"),
            "histogram count must equal recorded replies:\n{text}"
        );
        assert!(text.contains("bnn_request_latency_us_bucket{substrate=\"fused\",le=\"+Inf\"} 3"));
        assert!(text.contains("bnn_request_latency_us_sum{substrate=\"fused\"} 600"));
        assert!(text.contains("bnn_admission_total{disposition=\"served\"} 3"));
        assert!(text.contains("bnn_queue_depth 2"));
        assert!(text.contains("bnn_net_total{event=\"connections\"} 1"));
        assert!(text.contains("bnn_net_total{event=\"rate_limited\"} 1"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
            assert!(parts.next().is_some(), "missing name in {line:?}");
        }
    }
}
