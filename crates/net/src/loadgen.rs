//! Deterministic planning and tallying behind the `loadgen` binary.
//!
//! Everything in this module is pure: no clocks, no threads, no I/O,
//! no ambient state — a schedule is a function of its seed, which is
//! what lets two runs of the load generator submit byte-identical
//! request streams. The binary in `src/bin/loadgen.rs` owns the
//! sockets and the wall clock; this module owns the arithmetic:
//!
//! * [`plan`] expands a [`PlanConfig`] into per-connection
//!   [`Slot`] schedules — seeded class picks (weighted by
//!   [`ClassSpec::weight`]) and seeded inter-arrival gaps for the
//!   three [`ArrivalMode`]s (closed-loop think time, open-loop fixed
//!   rate, open-loop Poisson via [`SoftRng`]);
//! * [`LogHistogram`] folds observed latencies into log2 buckets and
//!   answers per-mille percentiles (p50/p99/p999) with linear
//!   interpolation inside the hit bucket;
//! * [`Outcomes`] tallies responses by kind, mirroring the server's
//!   `/status` counters so the binary can cross-check them exactly at
//!   quiesce.
//!
//! Seed discipline: connection `c` derives its stream seed as
//! `request_seed(base, c)`, and slot `s` on that connection pins the
//! request's mask-stream seed to `request_seed(conn_seed, s)` — the
//! same SplitMix64 scramble the serve layer uses, so no two slots in
//! a run share a seed and every reply is offline-reproducible from
//! `(input, seed)` alone.

use crate::wire::ErrorCode;
use bnn_rng::SoftRng;
use bnn_serve::{request_seed, Priority};

/// Arrival pacing for one connection's request stream. The `gap_us`
/// stamped on each [`Slot`] means "wait this long before sending",
/// measured from the previous reply (closed loop) or from the
/// previous send (open loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Closed loop: send, block for the reply, think, repeat. Offered
    /// load adapts to service rate — the generator can never outrun
    /// the server, so tail latencies stay honest.
    Closed {
        /// Think time between a reply and the next send.
        think_us: u64,
    },
    /// Open loop at a fixed rate: every slot is one period apart
    /// regardless of replies (up to the pipeline depth bound).
    Fixed {
        /// Constant inter-send period.
        period_us: u64,
    },
    /// Open loop with Poisson arrivals: exponentially distributed
    /// gaps with the given mean, drawn from the connection's seeded
    /// [`SoftRng`] stream.
    Poisson {
        /// Mean inter-send gap (1e6 / rate for a per-second rate).
        mean_gap_us: u64,
    },
}

/// One request class in the mix: a named (priority, tenant, deadline)
/// tuple picked per slot with probability `weight / Σ weights`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Human-readable class name.
    pub name: String,
    /// Relative pick weight; non-positive weights never get picked.
    pub weight: f64,
    /// Requested admission class.
    pub priority: Priority,
    /// Tenant id presented at the door (empty = anonymous).
    pub tenant: String,
    /// Optional queue-time budget stamped on every request.
    pub deadline_us: Option<u64>,
}

/// The full load shape: how many connections, how many requests each,
/// paced how, drawn from which class mix, derived from which seed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanConfig {
    /// Base seed; the entire schedule is a pure function of it.
    pub seed: u64,
    /// Concurrent connections to drive.
    pub connections: usize,
    /// Requests per connection.
    pub requests_per_connection: usize,
    /// Arrival pacing shared by every connection.
    pub mode: ArrivalMode,
    /// Request class mix (must be non-empty with positive total
    /// weight).
    pub classes: Vec<ClassSpec>,
}

/// One planned request: which class, which pinned seed, and how long
/// to wait before sending it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Index into [`PlanConfig::classes`].
    pub class: usize,
    /// Pinned mask-stream seed (`request_seed(conn_seed, slot)`).
    pub seed: u64,
    /// Inter-arrival gap before this send, per [`ArrivalMode`].
    pub gap_us: u64,
}

/// Why a [`PlanConfig`] could not be expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The class mix is empty.
    NoClasses,
    /// Every class weight is zero or negative.
    ZeroWeight,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoClasses => write!(f, "class mix is empty"),
            PlanError::ZeroWeight => write!(f, "class mix has no positive weight"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Expand a [`PlanConfig`] into one [`Slot`] schedule per connection.
/// Deterministic: same config, same schedules, independent of
/// evaluation order — each connection draws from its own forked
/// stream, so adding a connection never reshuffles the others.
pub fn plan(cfg: &PlanConfig) -> Result<Vec<Vec<Slot>>, PlanError> {
    if cfg.classes.is_empty() {
        return Err(PlanError::NoClasses);
    }
    let total_weight: f64 = cfg.classes.iter().map(|c| c.weight.max(0.0)).sum();
    // NaN weights also land here: NaN sums propagate and fail the check.
    if total_weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(PlanError::ZeroWeight);
    }
    let mut schedules = Vec::with_capacity(cfg.connections);
    for conn in 0..cfg.connections {
        let conn_seed = request_seed(cfg.seed, conn as u64);
        let mut rng = SoftRng::new(conn_seed);
        let mut slots = Vec::with_capacity(cfg.requests_per_connection);
        for slot in 0..cfg.requests_per_connection {
            let class = pick_class(&cfg.classes, total_weight, rng.next_f64());
            let gap_us = match cfg.mode {
                ArrivalMode::Closed { think_us } => think_us,
                ArrivalMode::Fixed { period_us } => period_us,
                ArrivalMode::Poisson { mean_gap_us } => {
                    exponential_gap(mean_gap_us, rng.next_f64())
                }
            };
            slots.push(Slot {
                class,
                seed: request_seed(conn_seed, slot as u64),
                gap_us,
            });
        }
        schedules.push(slots);
    }
    Ok(schedules)
}

/// Weighted pick: walk the cumulative weights until `u * total` falls
/// inside a class. `u` in [0, 1); non-positive weights are skipped.
fn pick_class(classes: &[ClassSpec], total_weight: f64, u: f64) -> usize {
    let target = u * total_weight;
    let mut cum = 0.0;
    let mut last_positive = 0;
    for (i, class) in classes.iter().enumerate() {
        if class.weight > 0.0 {
            cum += class.weight;
            last_positive = i;
            if target < cum {
                return i;
            }
        }
    }
    // Float round-off on the final cumulative sum: land on the last
    // pickable class rather than off the end.
    last_positive
}

/// Exponential inter-arrival gap: `-ln(1 - u) * mean`, the inverse
/// CDF of the exponential distribution. `u` in [0, 1) keeps the log
/// argument in (0, 1], so the gap is finite and non-negative; casts
/// saturate rather than wrap.
fn exponential_gap(mean_gap_us: u64, u: f64) -> u64 {
    let gap = -(1.0 - u).ln() * mean_gap_us as f64;
    if gap.is_finite() && gap >= 0.0 {
        gap as u64 // saturating f64→u64 cast
    } else {
        mean_gap_us
    }
}

// The histogram grew up here and moved down into `bnn-trace` once the
// tracer (below `bnn-net` in the crate DAG) needed it; re-exported so
// existing callers keep compiling.
pub use bnn_trace::{LogHistogram, LOG2_BUCKETS};

/// Client-side response tally, keyed the same way as the server's
/// `/status` counters so the two can be cross-checked exactly at
/// quiesce. Note the door folds admission sheds into wire `Rejected`
/// frames, so client `rejected` corresponds to server
/// `rejected + shed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Reply frames (successful predictions).
    pub served: u64,
    /// `Rejected` error frames (queue at capacity or shed).
    pub rejected: u64,
    /// `DeadlineExceeded` error frames.
    pub expired: u64,
    /// `BackendFailed` error frames.
    pub failed: u64,
    /// `Shutdown` error frames.
    pub shutdown: u64,
    /// `RateLimited` error frames (tenant gate).
    pub rate_limited: u64,
    /// `Malformed` error frames (should be zero for this generator).
    pub malformed: u64,
    /// Transport-level failures: timeouts, resets, unexpected EOF.
    pub transport: u64,
}

impl Outcomes {
    /// Count one reply frame.
    pub fn record_served(&mut self) {
        self.served += 1;
    }

    /// Count one typed error frame by its code.
    pub fn record_error(&mut self, code: ErrorCode) {
        match code {
            ErrorCode::Rejected => self.rejected += 1,
            ErrorCode::DeadlineExceeded => self.expired += 1,
            ErrorCode::BackendFailed => self.failed += 1,
            ErrorCode::Shutdown => self.shutdown += 1,
            ErrorCode::RateLimited => self.rate_limited += 1,
            ErrorCode::Malformed => self.malformed += 1,
        }
    }

    /// Count one transport-level failure.
    pub fn record_transport(&mut self) {
        self.transport += 1;
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Outcomes) {
        self.served += other.served;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.failed += other.failed;
        self.shutdown += other.shutdown;
        self.rate_limited += other.rate_limited;
        self.malformed += other.malformed;
        self.transport += other.transport;
    }

    /// Every response accounted for, across all kinds.
    pub fn total(&self) -> u64 {
        self.served
            + self.rejected
            + self.expired
            + self.failed
            + self.shutdown
            + self.rate_limited
            + self.malformed
            + self.transport
    }
}

/// Append a JSON-escaped string literal (with quotes) to `out`
/// (re-exported from `bnn-trace`, where the writers now live).
pub use bnn_trace::push_json_str;

#[cfg(test)]
mod tests {
    use super::*;

    fn classes() -> Vec<ClassSpec> {
        vec![
            ClassSpec {
                name: "high".to_string(),
                weight: 1.0,
                priority: Priority::High,
                tenant: "gold".to_string(),
                deadline_us: None,
            },
            ClassSpec {
                name: "normal".to_string(),
                weight: 3.0,
                priority: Priority::Normal,
                tenant: String::new(),
                deadline_us: Some(5_000),
            },
        ]
    }

    fn cfg(mode: ArrivalMode) -> PlanConfig {
        PlanConfig {
            seed: 0xBEEF,
            connections: 4,
            requests_per_connection: 64,
            mode,
            classes: classes(),
        }
    }

    #[test]
    fn plan_is_deterministic_and_prefix_stable() {
        let a = plan(&cfg(ArrivalMode::Poisson { mean_gap_us: 500 }));
        let b = plan(&cfg(ArrivalMode::Poisson { mean_gap_us: 500 }));
        assert_eq!(a, b);
        // Adding a connection never reshuffles the existing ones.
        let mut wider = cfg(ArrivalMode::Poisson { mean_gap_us: 500 });
        wider.connections = 5;
        let c = plan(&wider).unwrap();
        assert_eq!(&c[..4], &a.unwrap()[..]);
    }

    #[test]
    fn plan_rejects_degenerate_mixes() {
        let mut empty = cfg(ArrivalMode::Closed { think_us: 0 });
        empty.classes.clear();
        assert_eq!(plan(&empty), Err(PlanError::NoClasses));
        let mut zero = cfg(ArrivalMode::Closed { think_us: 0 });
        for class in &mut zero.classes {
            class.weight = 0.0;
        }
        assert_eq!(plan(&zero), Err(PlanError::ZeroWeight));
    }

    #[test]
    fn slot_seeds_are_unique_across_the_run() {
        let schedules = plan(&cfg(ArrivalMode::Fixed { period_us: 100 })).unwrap();
        let mut seeds: Vec<u64> = schedules
            .iter()
            .flat_map(|conn| conn.iter().map(|slot| slot.seed))
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "slot seeds collided");
    }

    #[test]
    fn class_mix_tracks_weights() {
        let mut wide = cfg(ArrivalMode::Closed { think_us: 0 });
        wide.connections = 8;
        wide.requests_per_connection = 512;
        let schedules = plan(&wide).unwrap();
        let total: usize = schedules.iter().map(Vec::len).sum();
        let high: usize = schedules
            .iter()
            .flat_map(|conn| conn.iter())
            .filter(|slot| slot.class == 0)
            .count();
        // Expected 25% ± a generous tolerance for 4096 draws.
        let frac = high as f64 / total as f64;
        assert!((0.18..=0.32).contains(&frac), "high fraction {frac}");
    }

    #[test]
    fn poisson_gaps_average_near_the_mean() {
        let mut poisson = cfg(ArrivalMode::Poisson { mean_gap_us: 1_000 });
        poisson.connections = 4;
        poisson.requests_per_connection = 1024;
        let schedules = plan(&poisson).unwrap();
        let gaps: Vec<u64> = schedules
            .iter()
            .flat_map(|conn| conn.iter().map(|slot| slot.gap_us))
            .collect();
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!((700.0..=1300.0).contains(&mean), "poisson mean {mean}");
        assert!(gaps.iter().any(|&g| g > 2_000), "no tail gaps at all");
    }

    #[test]
    fn reexported_histogram_still_answers_percentiles() {
        // The implementation (and its unit suite) moved to bnn-trace;
        // this pins the re-exported surface the binary relies on.
        let mut hist = LogHistogram::new();
        for _ in 0..64 {
            hist.record(777);
        }
        assert_eq!(hist.total(), 64);
        for pm in [1, 500, 990, 999, 1000] {
            assert_eq!(hist.percentile_per_mille(pm), Some(777));
        }
        assert_eq!(LOG2_BUCKETS, 41);
    }

    #[test]
    fn outcomes_tally_by_code() {
        let mut o = Outcomes::default();
        o.record_served();
        o.record_served();
        o.record_error(ErrorCode::Rejected);
        o.record_error(ErrorCode::RateLimited);
        o.record_error(ErrorCode::DeadlineExceeded);
        o.record_transport();
        assert_eq!(o.served, 2);
        assert_eq!(o.rejected, 1);
        assert_eq!(o.rate_limited, 1);
        assert_eq!(o.expired, 1);
        assert_eq!(o.transport, 1);
        assert_eq!(o.total(), 6);
        let mut merged = Outcomes::default();
        merged.merge(&o);
        merged.merge(&o);
        assert_eq!(merged.total(), 12);
    }
}
