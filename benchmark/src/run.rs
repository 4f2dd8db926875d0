//! One workload, start to finish: set the stack up (several times,
//! for `setup_s`), warm it, measure it in windows with tracing off,
//! check every answer, and — on a traced run — repeat the load with
//! tracing on and probe the layers.

use crate::drivers::{self, ConnLog, Outcome, PassCtx};
use crate::env;
use crate::json::Json;
use crate::plan::Digest;
use crate::probe;
use crate::spans::{self, SpanLog};
use crate::stack::{self, Front, Inputs, Stack};
use crate::stats::{self, over_windows, percentile_sorted, Windowed};
use crate::workload::{self, Kind, Workload, POISSON_RATE, STAGES};
use bnn_fpga::net::ErrorCode;
use bnn_fpga::{trace, ServeStats, Timeouts};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How one pass spends its time.
#[derive(Debug, Clone, Copy)]
pub struct PassShape {
    /// Load runs, nothing is counted.
    pub warmup: Duration,
    /// Measurement windows after the warm-up.
    pub windows: usize,
    /// Length of one window.
    pub window: Duration,
}

impl PassShape {
    fn total(&self) -> Duration {
        self.warmup + self.window * self.windows as u32
    }
}

/// The whole run's time budget, derived from `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stack builds timed for `setup_s` (untraced runs).
    pub setups: usize,
    /// The measured, untraced pass.
    pub measured: PassShape,
    /// The traced pass of a `--trace 1` run.
    pub traced: PassShape,
    /// Time one layer probe may take.
    pub probe: Duration,
}

/// Length of one measurement window. Half a second is short enough
/// that a run of any length has windows the host left alone, and long
/// enough that the slowest load still has 40 samples in each.
const WINDOW: Duration = Duration::from_millis(500);

/// Share of a pass's windows the reported values are read from: the
/// quietest quarter (see [`Quiet`]).
const QUIET_SHARE: f64 = 0.25;

/// Stack builds timed for `setup_s`. A build takes 3–15 ms and the
/// first ones of a process run cold, so many cost little and the
/// median of 21 repeats better than that of a handful.
const SETUPS: usize = 21;

impl Budget {
    /// `--trace 0`: 21 builds, a 2 s warm-up, then `seconds` of
    /// measurement in half-second windows. `--trace 1`: one build,
    /// then an untraced reference pass and a traced pass of
    /// `seconds / 4` each and about `seconds / 2` of layer probes.
    pub fn new(seconds: f64, trace: bool, smoke: bool) -> Budget {
        let secs = Duration::from_secs_f64;
        let shape = |warmup: f64, measured: f64| PassShape {
            warmup: secs(warmup),
            windows: ((measured / WINDOW.as_secs_f64()).floor() as usize).max(2),
            window: WINDOW,
        };
        let none = PassShape {
            warmup: secs(0.0),
            windows: 0,
            window: WINDOW,
        };
        if smoke {
            return Budget {
                setups: 2,
                measured: shape(1.0, 1.0),
                traced: shape(1.0, 1.0),
                probe: secs(0.01),
            };
        }
        if trace {
            return Budget {
                setups: 1,
                measured: shape(1.0, seconds / 4.0),
                traced: shape(0.5, seconds / 4.0),
                probe: secs(seconds / 80.0),
            };
        }
        Budget {
            setups: SETUPS,
            measured: shape((seconds / 8.0).clamp(1.0, 2.0), seconds),
            traced: none,
            probe: secs(0.0),
        }
    }
}

/// One pass's raw data.
pub struct Pass {
    shape: PassShape,
    logs: Vec<ConnLog>,
    /// Process CPU seconds read at every window edge: one more entry
    /// than there are windows.
    cpu_edges: Vec<Option<f64>>,
}

/// Run the workload's load for one pass against a running stack.
pub fn run_pass(
    stack: &Stack,
    w: &Workload,
    seed: u64,
    inputs: &Inputs,
    shape: PassShape,
    traced: bool,
) -> Pass {
    if traced {
        trace::reset();
        trace::set_enabled(true);
    }
    let epoch = Instant::now();
    let ctx = PassCtx {
        w,
        seed,
        inputs,
        epoch,
        deadline: epoch + shape.total(),
        traced,
    };
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    let (logs, cpu_edges) = std::thread::scope(|scope| {
        let generators: Vec<_> = (0..w.conns)
            .map(|conn| {
                let ctx = &ctx;
                scope.spawn(move || match (&stack.front, w.kind) {
                    (Front::Wire(net), Kind::WireLockstep) => {
                        drivers::lockstep(ctx, net.local_addr(), conn)
                    }
                    (Front::Wire(net), Kind::WirePipelined) => {
                        drivers::pipelined(ctx, net.local_addr(), conn)
                    }
                    (Front::Wire(net), _) => {
                        drivers::open_loop(ctx, net.local_addr(), conn, POISSON_RATE)
                    }
                    (Front::Inproc(server), _) => drivers::inproc(ctx, &server.handle(), conn),
                    (Front::Session, _) => drivers::session_batch(ctx, &stack.model),
                })
            })
            .collect();
        // The main thread only watches the clock: CPU time is read at
        // every window edge; the last edge is the deadline.
        let cpu_edges: Vec<Option<f64>> = (0..=shape.windows as u32)
            .map(|edge| {
                sleep_until(epoch + shape.warmup + shape.window * edge);
                env::cpu_seconds()
            })
            .collect();
        let logs: Vec<ConnLog> = generators
            .into_iter()
            .filter_map(|g| g.join().ok())
            .collect();
        (logs, cpu_edges)
    });
    if traced {
        trace::set_enabled(false);
    }
    Pass {
        shape,
        logs,
        cpu_edges,
    }
}

/// What a pass reads in its quiet windows: the reported values.
///
/// This guest shares its host, and for seconds to minutes at a time
/// the host runs memory-bound code up to 1.6× slower (a single-threaded
/// `Session::predictive` call reads 145 or 225 µs; the FMA peak does
/// not move). A run is a mixture of the two states in a proportion
/// that is chance, and the median over all of its windows lands in one
/// state or the other: over ten runs of one commit it spread 30 % on
/// p50 where the quietest windows of the same runs spread 4 %. The
/// disturbance only ever slows the program, so — like the minimum of
/// repeated timings — the windows it left alone say what the program
/// does. A pass ranks its windows by their mean latency (which a
/// stall raises as much as a slow stretch does), keeps the quietest
/// quarter, and reads every value from their pooled samples.
/// (A quarter, not fewer: the tail needs the samples, and on a host
/// that is slow throughout, a smaller share collects the few lucky
/// windows, which differ run to run. Not more: three runs in ten that
/// are slow for half their length already spread p50 by 23 %.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quiet {
    /// The windows kept, quietest first.
    pub windows: Vec<usize>,
    /// Latency samples in them.
    pub samples: usize,
    /// Correct predictions per second.
    pub predictions_per_s: f64,
    /// Exact median latency of the pooled samples, µs.
    pub p50_us: f64,
    /// Exact 90th percentile, µs.
    pub p90_us: f64,
    /// Exact 99th percentile, µs (per-layer `bench.latency_p99_us`;
    /// not an end-to-end metric, see README).
    pub p99_us: f64,
    /// Correct predictions within the latency limit, per second.
    pub goodput_per_s: f64,
    /// Process CPU ms per correct prediction.
    pub cpu_ms_per_pred: f64,
}

/// A pass reduced to numbers.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The reported values, read from the quiet windows.
    pub quiet: Quiet,
    /// Correct predictions per second in each quiet window, for the
    /// result document: `compare` reads the quartiles of the windows a
    /// value came from as that value's noise.
    pub predictions_per_s: Option<Windowed>,
    /// Exact median latency of each quiet window, µs.
    pub p50_us: Option<Windowed>,
    /// Exact 90th percentile of each quiet window, µs.
    pub p90_us: Option<Windowed>,
    /// Correct predictions within the latency limit, per second, in
    /// each quiet window.
    pub goodput_per_s: Option<Windowed>,
    /// Correct predictions per second in every window, in time order:
    /// the host's states show here.
    pub throughput_by_window: Vec<f64>,
    /// Smallest per-window latency sample count.
    pub min_window_samples: usize,
    /// Predictions attempted over the whole pass (warm-up included).
    pub attempted: u64,
    /// Predictions that did not come back correct.
    pub failed: u64,
    /// Operations per outcome, for the counter cross-check.
    pub outcomes: Tally,
    /// Mean of `Reply::coalesced` over served requests.
    pub coalesced_mean: f64,
    /// Largest `Reply::coalesced`.
    pub coalesced_max: f64,
    /// p99 of send time − due time on the open loop, µs.
    pub gen_lag_p99_us: f64,
    /// Mean requests in flight at each send, first measured window.
    pub inflight_first: f64,
    /// The same, last measured window.
    pub inflight_last: f64,
    /// Σ client-observed latency of served operations, µs.
    pub latency_sum_us: f64,
}

/// Client-side outcome counts, in operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answered with a reply (correct or not).
    pub served: u64,
    /// Refused: shed or rejected at the door.
    pub rejected: u64,
    /// Refused: deadline passed while queued.
    pub expired: u64,
    /// Refused: backend failed.
    pub failed: u64,
    /// Refused: rate-limited.
    pub rate_limited: u64,
    /// Refused with shutdown/malformed, or the transport broke.
    pub broken: u64,
}

impl Tally {
    fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok | Outcome::BadReply => self.served += 1,
            Outcome::Refused(ErrorCode::Rejected) => self.rejected += 1,
            Outcome::Refused(ErrorCode::DeadlineExceeded) => self.expired += 1,
            Outcome::Refused(ErrorCode::BackendFailed) => self.failed += 1,
            Outcome::Refused(ErrorCode::RateLimited) => self.rate_limited += 1,
            Outcome::Refused(_) | Outcome::Transport => self.broken += 1,
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.served += other.served;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.failed += other.failed;
        self.rate_limited += other.rate_limited;
        self.broken += other.broken;
    }
}

/// Reduce a pass: bin completions into windows, rank the windows by
/// their mean latency, and read the reported values from the
/// pooled samples of the quietest quarter ([`Quiet`] says why).
pub fn reduce(w: &Workload, pass: &Pass) -> Reduced {
    let per_op = w.images_per_op as f64;
    let window_ns = pass.shape.window.as_nanos() as u64;
    let warm_ns = pass.shape.warmup.as_nanos() as u64;
    let window_s = pass.shape.window.as_secs_f64();
    let window_of = |t_ns: u64| -> Option<usize> {
        let w = t_ns.checked_sub(warm_ns)? / window_ns.max(1);
        ((w as usize) < pass.shape.windows).then_some(w as usize)
    };

    let mut lats: Vec<Vec<f64>> = vec![Vec::new(); pass.shape.windows];
    let mut outcomes = Tally::default();
    let (mut ok_ops, mut issued, mut lat_sum, mut co_sum, mut co_n, mut co_max) =
        (0u64, 0u64, 0.0f64, 0u64, 0u64, 0u32);
    for log in &pass.logs {
        issued += log.issued;
        for d in &log.done {
            outcomes.add(d.outcome);
            if d.outcome != Outcome::Ok {
                continue;
            }
            ok_ops += 1;
            let lat_us = d.lat_ns as f64 / 1e3;
            lat_sum += lat_us;
            if d.coalesced > 0 {
                co_sum += u64::from(d.coalesced);
                co_n += 1;
                co_max = co_max.max(u32::from(d.coalesced));
            }
            if let Some(i) = window_of(u64::from(d.done_us) * 1000) {
                lats[i].push(lat_us);
            }
        }
    }
    for l in &mut lats {
        l.sort_by(|a, b| a.total_cmp(b));
    }
    let rate = |n: usize| n as f64 * per_op / window_s;
    let within_limit = |l: &[f64]| l.partition_point(|&x| x <= w.limit_us);

    let mut ranked: Vec<(f64, usize)> = lats
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_empty())
        .map(|(i, l)| (l.iter().sum::<f64>() / l.len() as f64, i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = (pass.shape.windows as f64 * QUIET_SHARE).ceil() as usize;
    let mut quiet = Quiet {
        windows: ranked.iter().take(keep.max(1)).map(|r| r.1).collect(),
        ..Quiet::default()
    };
    let mut pooled: Vec<f64> = quiet
        .windows
        .iter()
        .flat_map(|&i| lats[i].iter().copied())
        .collect();
    pooled.sort_by(|a, b| a.total_cmp(b));
    if !pooled.is_empty() {
        let per_s = per_op / (quiet.windows.len() as f64 * window_s);
        let at = |pct: f64| percentile_sorted(&pooled, pct).unwrap_or(0.0);
        let cpu_s: Option<f64> = quiet
            .windows
            .iter()
            .map(|&i| Some((*pass.cpu_edges.get(i + 1)?)? - (*pass.cpu_edges.get(i)?)?))
            .sum();
        quiet.samples = pooled.len();
        quiet.predictions_per_s = pooled.len() as f64 * per_s;
        quiet.p50_us = at(50.0);
        quiet.p90_us = at(90.0);
        quiet.p99_us = at(99.0);
        quiet.goodput_per_s = within_limit(&pooled) as f64 * per_s;
        quiet.cpu_ms_per_pred = cpu_s.map_or(0.0, |s| s * 1e3 / (pooled.len() as f64 * per_op));
    }

    let pace: Vec<_> = pass.logs.iter().flat_map(|l| &l.pace).collect();
    let lags = stats::sorted(
        &pace
            .iter()
            .map(|p| p.lag_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let inflight_in = |win: usize| {
        let xs: Vec<f64> = pace
            .iter()
            .filter(|p| window_of(p.t_ns) == Some(win))
            .map(|p| p.inflight as f64)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };

    let per_quiet_window = |f: &dyn Fn(&[f64]) -> Option<f64>| -> Option<Windowed> {
        over_windows(
            &quiet
                .windows
                .iter()
                .map(|&i| f(&lats[i]))
                .collect::<Vec<_>>(),
        )
    };
    Reduced {
        predictions_per_s: per_quiet_window(&|l| Some(rate(l.len()))),
        p50_us: per_quiet_window(&|l| percentile_sorted(l, 50.0)),
        p90_us: per_quiet_window(&|l| percentile_sorted(l, 90.0)),
        goodput_per_s: per_quiet_window(&|l| Some(rate(within_limit(l)))),
        throughput_by_window: lats.iter().map(|l| rate(l.len())).collect(),
        quiet,
        min_window_samples: lats.iter().map(Vec::len).min().unwrap_or(0),
        attempted: issued * w.images_per_op as u64,
        failed: (issued - ok_ops.min(issued)) * w.images_per_op as u64,
        outcomes,
        coalesced_mean: co_sum as f64 / co_n.max(1) as f64,
        coalesced_max: f64::from(co_max),
        gen_lag_p99_us: percentile_sorted(&lags, 99.0).unwrap_or(0.0),
        inflight_first: inflight_in(0),
        inflight_last: inflight_in(pass.shape.windows.saturating_sub(1)),
        latency_sum_us: lat_sum,
    }
}

/// What checking a pass's kept replies found.
#[derive(Debug, Clone, Default)]
pub struct Verified {
    /// Replies replayed offline.
    pub replayed: u64,
    /// Replays that differed in any bit.
    pub mismatch: u64,
    /// FNV-1a over the first K planned slots per connection; `None`
    /// when a pass ended before it answered all of them.
    pub digest: Option<String>,
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replay the sampled replies through an offline `Session` on the
/// same substrate — bit for bit — and fold the digest.
pub fn verify(stack: &Stack, w: &Workload, seed: u64, inputs: &Inputs, pass: &Pass) -> Verified {
    let mut v = Verified::default();
    let mut digest = Digest::default();
    let mut complete = true;
    let mut logs: Vec<&ConnLog> = pass.logs.iter().collect();
    logs.sort_by_key(|l| l.conn);
    for log in logs {
        let mut kept: Vec<_> = log.kept.iter().collect();
        kept.sort_by_key(|k| k.slot);
        for want in 0..w.digest_slots as u32 {
            match kept.iter().find(|k| k.slot == want) {
                Some(k) => digest.update(&k.probs),
                None => complete = false,
            }
        }
        if w.kind == Kind::SessionBatch {
            // One continuing mask stream: replay the first K calls in
            // order, through the single-image entry (`predictive`)
            // where the load used the batch entry.
            let mut session = stack.model.session(stack::session_seed(seed));
            for (want, k) in kept.iter().enumerate() {
                if k.slot as usize != want {
                    break;
                }
                for (row, &input) in k.inputs.iter().enumerate() {
                    let reference = session.predictive(&inputs.images[input]);
                    v.replayed += 1;
                    let got = &k.probs[row * reference.len()..(row + 1) * reference.len()];
                    v.mismatch += u64::from(!same_bits(got, reference.as_slice()));
                }
            }
        } else {
            for k in kept.iter().filter(|k| k.sampled) {
                let reference = stack.model.replay(&inputs.images[k.inputs[0]], k.seed);
                v.replayed += 1;
                v.mismatch += u64::from(!same_bits(&k.probs, &reference));
            }
        }
    }
    v.digest = complete.then(|| digest.hex());
    v
}

fn counter(doc: &Json, group: &str, key: &str) -> Option<u64> {
    doc.get(group)?.get(key)?.as_f64().map(|v| v as u64)
}

/// At quiesce the server's own counters must equal what the clients
/// saw: `GET /status` and the `/metrics` served-latency count on the
/// wire workloads, `Server::stats` in process.
pub fn counters_match(stack: &Stack, client: &Tally) -> Result<ServeStats, String> {
    let check = |stats: ServeStats| -> Result<ServeStats, String> {
        let same = stats.served == client.served
            && stats.expired == client.expired
            && stats.failed == client.failed
            && stats.rejected + stats.shed == client.rejected
            && stats.queued == 0
            && stats.in_flight == 0
            && client.broken == 0;
        same.then_some(stats)
            .ok_or_else(|| format!("server {stats:?} != client {client:?}"))
    };
    match &stack.front {
        Front::Session => Ok(ServeStats::default()),
        Front::Inproc(server) => check(server.stats()),
        Front::Wire(net) => {
            let addr = net.local_addr();
            let get = |path: &str| {
                bnn_fpga::net::http_get(addr, path, Timeouts::default())
                    .map_err(|e| format!("GET {path}: {e}"))
            };
            let status = Json::parse(&get("/status")?)?;
            let field = |group: &str, key: &str| {
                counter(&status, group, key).ok_or_else(|| format!("/status lacks {group}.{key}"))
            };
            let stats = ServeStats {
                served: field("admission", "served")?,
                shed: field("admission", "shed")?,
                expired: field("admission", "expired")?,
                failed: field("admission", "failed")?,
                rejected: field("admission", "rejected")?,
                queued: field("admission", "queued")?,
                in_flight: field("admission", "in_flight")?,
            };
            if field("net", "rate_limited")? != client.rate_limited
                || field("net", "malformed")? != 0
            {
                return Err("net counters differ from the client's".to_string());
            }
            let metrics = get("/metrics")?;
            let count = metrics
                .lines()
                .find(|l| l.starts_with("bnn_request_latency_us_count"))
                .and_then(|l| l.rsplit_once(' '))
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .ok_or("no bnn_request_latency_us_count in /metrics")?;
            if count != stats.served {
                return Err(format!(
                    "/metrics latency count {count} != served {}",
                    stats.served
                ));
            }
            check(stats)
        }
    }
}

/// Metric values in print order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Everything one invocation produced.
pub struct RunOutput {
    /// Every correctness check passed.
    pub correct: bool,
    /// Predictions attempted.
    pub attempted: u64,
    /// Predictions that failed or mismatched.
    pub failed: u64,
    /// The metrics of this mode (end-to-end or per-layer).
    pub metrics: Metrics,
    /// The result document written under `results/`.
    pub document: Json,
}

/// One invocation's parameters.
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// The run seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// `--smoke`: tiny budgets, same checks.
    pub smoke: bool,
    /// Where result documents and traces go.
    pub results: PathBuf,
}

fn windowed_json(w: &Option<Windowed>) -> Json {
    match w {
        None => Json::Null,
        Some(w) => {
            let mut o = Json::obj();
            o.push("median", w.median)
                .push("q1", w.q1)
                .push("q3", w.q3)
                .push(
                    "values",
                    w.values.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                );
            o
        }
    }
}

/// Run one workload in one mode and return what to print.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let w = args.workload;
    let budget = Budget::new(args.seconds, args.trace, args.smoke);
    let inputs = Inputs::generate(args.seed);
    let mut notes: Vec<String> = Vec::new();

    // Set-up, timed from nothing to the first verified answer. Every
    // build but the last is torn down again.
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..budget.setups {
        if let Some((stack, _)) = built.take() {
            Stack::shutdown(stack);
        }
        let t0 = Instant::now();
        built = Some(stack::build(w, args.seed, &inputs)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (stack, answered_in_setup) = built.ok_or("no set-up ran")?;
    let mut client = Tally {
        served: answered_in_setup,
        ..Tally::default()
    };

    // The measured pass: tracing off.
    let pass = run_pass(&stack, w, args.seed, &inputs, budget.measured, false);
    let peak_rss = env::peak_rss_mib();
    let reduced = reduce(w, &pass);
    client.merge(&reduced.outcomes);
    let verified = verify(&stack, w, args.seed, &inputs, &pass);
    let mut attempted = reduced.attempted;
    let mut failed = reduced.failed + verified.mismatch;
    let mut correct = true;
    if verified.digest.is_none() {
        correct = false;
        notes.push("the pass ended before the digest slots were answered".to_string());
    }

    // The traced pass: same plan, same seed, tracing on.
    let mut traced = None;
    if args.trace {
        let tpass = run_pass(&stack, w, args.seed, &inputs, budget.traced, true);
        let hists = trace::stage_histograms();
        let program = trace::drain();
        let treduced = reduce(w, &tpass);
        client.merge(&treduced.outcomes);
        let tverified = verify(&stack, w, args.seed, &inputs, &tpass);
        attempted += treduced.attempted;
        failed += treduced.failed + tverified.mismatch;
        if tverified.digest != verified.digest {
            correct = false;
            notes.push(format!(
                "output_digest differs with tracing on: {:?} vs {:?}",
                tverified.digest, verified.digest
            ));
        }
        let own: Vec<SpanLog> = tpass.logs.into_iter().flat_map(|l| l.spans).collect();
        let trace_path = args.results.join(format!("{}.trace.json", w.name));
        write_file(
            &trace_path,
            &spans::chrome_trace(&program, &own).to_string(),
        )?;
        traced = Some((hists, own, treduced, tverified, trace_path));
    }

    let server_stats = match counters_match(&stack, &client) {
        Ok(stats) => Some(stats),
        Err(why) => {
            correct = false;
            notes.push(format!("counter cross-check failed: {why}"));
            None
        }
    };
    correct &= failed == 0;

    let ok_share = 1.0 - failed as f64 / attempted.max(1) as f64;
    let mut document = Json::obj();
    document
        .push("workload", w.name)
        .push("why", w.why)
        .push("seed", args.seed)
        .push("seconds", args.seconds)
        .push("trace", args.trace)
        .push("env", env::record())
        .push("correct", correct)
        .push("attempted", attempted)
        .push("failed", failed)
        .push(
            "output_digest",
            verified.digest.clone().map_or(Json::Null, Json::Str),
        );

    let mut metrics: Metrics = Vec::new();
    if !args.trace {
        let setup = stats::median(&setup_times).unwrap_or(0.0);
        let quiet = &reduced.quiet;
        let values = [
            setup,
            quiet.predictions_per_s,
            quiet.p50_us,
            quiet.p90_us,
            quiet.goodput_per_s,
            quiet.cpu_ms_per_pred,
            peak_rss.unwrap_or(0.0),
            ok_share,
        ];
        for ((name, unit, _, _), value) in workload::END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
        // What `compare` needs to tell a change from window noise.
        let mut spreads = Json::obj();
        spreads
            .push(
                "predictions_per_s",
                windowed_json(&reduced.predictions_per_s),
            )
            .push("latency_p50_us", windowed_json(&reduced.p50_us))
            .push("latency_p90_us", windowed_json(&reduced.p90_us))
            .push("goodput_per_s", windowed_json(&reduced.goodput_per_s));
        document
            .push("windows", spreads)
            .push("window_s", budget.measured.window.as_secs_f64())
            .push(
                "throughput_by_window",
                reduced
                    .throughput_by_window
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect::<Vec<_>>(),
            )
            .push(
                "quiet_windows",
                quiet
                    .windows
                    .iter()
                    .map(|&i| Json::Num(i as f64))
                    .collect::<Vec<_>>(),
            )
            .push("quiet_samples", quiet.samples)
            .push("min_window_samples", reduced.min_window_samples)
            .push(
                "setup_builds_s",
                setup_times
                    .iter()
                    .map(|&t| Json::Num(t))
                    .collect::<Vec<_>>(),
            )
            .push("latency_limit_us", w.limit_us);
    } else if let Some((hists, own, treduced, tverified, trace_path)) = &traced {
        let probes = probe::run(args.seed, &inputs, budget.probe);
        let stats = server_stats.unwrap_or_default();
        let mut values: std::collections::BTreeMap<String, f64> = probes.into_iter().collect();
        let mut set = |name: &str, v: f64| {
            values.insert(name.to_string(), v);
        };
        let client_us = treduced.latency_sum_us.max(1.0);
        let mut top_level = 0.0;
        let mut events = 0u64;
        for (stage, hist) in hists {
            let name = stage.name();
            let sum = hist.sum_us() as f64;
            events += hist.total();
            set(
                &format!("stage.{name}.p50_us"),
                hist.percentile_per_mille(500).unwrap_or(0) as f64,
            );
            set(&format!("stage.{name}.share"), sum / client_us);
            if w.kind.outermost_stages().contains(&name) {
                top_level += sum;
            }
        }
        set("stage.residual_share", 1.0 - top_level / client_us);
        for step in ["encode", "write", "wait", "decode"] {
            set(&format!("client.{step}_us"), spans::p50_us(own, step));
        }
        let untraced = reduced.quiet.predictions_per_s;
        set(
            "trace.overhead_share",
            1.0 - treduced.quiet.predictions_per_s / untraced.max(f64::MIN_POSITIVE),
        );
        set("trace.events", events as f64);
        set("serve.coalesced_mean", reduced.coalesced_mean);
        set("serve.coalesced_max", reduced.coalesced_max);
        set("serve.shed", stats.shed as f64);
        set("serve.expired", stats.expired as f64);
        set("serve.rejected", stats.rejected as f64);
        set("serve.failed", stats.failed as f64);
        set("bench.attempted", attempted as f64);
        set("bench.ok", (attempted - failed.min(attempted)) as f64);
        set("bench.latency_p99_us", reduced.quiet.p99_us);
        set("bench.gen_lag_p99_us", reduced.gen_lag_p99_us);
        set("bench.inflight_first_window", reduced.inflight_first);
        set("bench.inflight_last_window", reduced.inflight_last);
        set(
            "bench.window_spread",
            stats::spread(&reduced.throughput_by_window).unwrap_or(0.0),
        );
        set(
            "bench.verify_replayed",
            (verified.replayed + tverified.replayed) as f64,
        );
        set(
            "bench.verify_mismatch",
            (verified.mismatch + tverified.mismatch) as f64,
        );
        set(
            "bench.counters_match",
            f64::from(u8::from(server_stats.is_some())),
        );
        for (name, unit, _) in workload::per_layer() {
            let value = values.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
        let stage_rows: Vec<&str> = STAGES
            .iter()
            .copied()
            .filter(|s| {
                values
                    .get(&format!("stage.{s}.share"))
                    .is_some_and(|&v| v > 0.0)
            })
            .collect();
        document
            .push("trace_file", trace_path.display().to_string())
            .push(
                "stages_present",
                stage_rows.into_iter().map(Json::from).collect::<Vec<_>>(),
            )
            .push(
                "untraced_predictions_per_s",
                windowed_json(&reduced.predictions_per_s),
            )
            .push(
                "traced_predictions_per_s",
                windowed_json(&treduced.predictions_per_s),
            );
    }
    stack.shutdown();

    let mut rendered = Json::obj();
    for (name, value, unit) in &metrics {
        let mut m = Json::obj();
        m.push("value", *value).push("unit", *unit);
        rendered.push(name, m);
    }
    document.push("metrics", rendered).push(
        "notes",
        notes.into_iter().map(Json::Str).collect::<Vec<_>>(),
    );
    Ok(RunOutput {
        correct,
        attempted,
        failed,
        metrics,
        document,
    })
}

/// Write `text` to `path`, creating the directory first.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::Done;
    use crate::workload::WORKLOADS;

    fn log(done: Vec<Done>) -> ConnLog {
        ConnLog {
            conn: 0,
            issued: done.len() as u64,
            done,
            kept: Vec::new(),
            pace: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn ok(t_ms: u32, lat_us: u32) -> Done {
        Done {
            lat_ns: u64::from(lat_us) * 1000,
            done_us: t_ms * 1000,
            coalesced: 2,
            outcome: Outcome::Ok,
        }
    }

    fn shape(windows: usize) -> PassShape {
        PassShape {
            warmup: Duration::from_secs(1),
            windows,
            window: Duration::from_secs(1),
        }
    }

    /// Two 1 s windows after a 1 s warm-up; hand-placed completions.
    #[test]
    fn windows_bin_by_completion_time_and_the_quiet_one_is_reported() {
        let mut done = vec![ok(500, 9_999)]; // warm-up: not counted
        done.extend((0..4).map(|i| ok(1100 + i * 100, 100 + i * 100))); // window 0
        done.extend((0..2).map(|i| ok(2100 + i * 100, 1000 + i * 6000))); // window 1
        done.push(ok(3500, 1)); // after the last window
        done.push(Done {
            outcome: Outcome::Refused(ErrorCode::Rejected),
            ..ok(1500, 1)
        });
        let pass = Pass {
            shape: shape(2),
            logs: vec![log(done)],
            cpu_edges: vec![Some(1.0), Some(1.5), Some(1.75)],
        };
        let r = reduce(&WORKLOADS[0], &pass);
        // Window 0: 4 ok (100..400 us), window 1: 2 ok (1000, 7000 us).
        assert_eq!(r.throughput_by_window, [4.0, 2.0]);
        // A quarter of two windows is one: window 0, the lower mean.
        // All 4 are within the 3000 us limit; 0.5 s of CPU over them.
        assert_eq!(r.predictions_per_s.unwrap().values, [4.0]);
        assert_eq!(r.p50_us.unwrap().values, [200.0]);
        assert_eq!(r.p90_us.unwrap().values, [400.0]);
        assert_eq!(r.goodput_per_s.unwrap().values, [4.0]);
        assert_eq!(
            r.quiet,
            Quiet {
                windows: vec![0],
                samples: 4,
                predictions_per_s: 4.0,
                p50_us: 200.0,
                p90_us: 400.0,
                p99_us: 400.0,
                goodput_per_s: 4.0,
                cpu_ms_per_pred: 125.0,
            }
        );
        assert_eq!(r.min_window_samples, 2);
        assert_eq!(r.attempted, 9);
        assert_eq!(r.failed, 1);
        assert_eq!(r.outcomes.served, 8);
        assert_eq!(r.outcomes.rejected, 1);
        assert_eq!(r.coalesced_mean, 2.0);
    }

    /// Eight windows, five of them slowed by half and one empty: the
    /// reported values are the pooled samples of the two the host left
    /// alone.
    #[test]
    fn the_quietest_quarter_of_the_windows_is_pooled() {
        let mut done = Vec::new();
        let mut cpu_edges = vec![Some(0.0)];
        for win in 0..8u32 {
            let (n, lat_us) = match win {
                2 | 5 => (10, 1000),
                7 => (0, 0),
                _ => (6, 1500),
            };
            done.extend((0..n).map(|i| ok(1000 * (win + 1) + 10 * i, lat_us + i)));
            cpu_edges.push(Some(f64::from(win + 1)));
        }
        let pass = Pass {
            shape: shape(8),
            logs: vec![log(done)],
            cpu_edges,
        };
        let r = reduce(&WORKLOADS[0], &pass);
        assert_eq!(r.p50_us.unwrap().values, [1004.0, 1004.0]);
        assert_eq!(r.throughput_by_window[..3], [6.0, 6.0, 10.0]);
        let q = r.quiet;
        assert_eq!((q.windows.clone(), q.samples), (vec![2, 5], 20));
        // 20 predictions in 2 s; samples 1000..=1009 twice over.
        assert_eq!(q.predictions_per_s, 10.0);
        assert_eq!((q.p50_us, q.p90_us, q.p99_us), (1004.0, 1008.0, 1009.0));
        // 2 s of CPU over 20 predictions.
        assert!((q.cpu_ms_per_pred - 100.0).abs() < 1e-9);
    }

    #[test]
    fn budget_fills_the_seconds_with_half_second_windows() {
        for seconds in [8.0, 16.0, 22.0, 30.0] {
            let b = Budget::new(seconds, false, false);
            assert_eq!(b.measured.window, WINDOW);
            assert_eq!(b.measured.windows, (seconds * 2.0) as usize);
            assert_eq!(b.setups, SETUPS);
        }
        let t = Budget::new(22.0, true, false);
        assert_eq!(
            (t.setups, t.measured.windows, t.traced.windows),
            (1, 11, 11)
        );
        assert_eq!(Budget::new(22.0, false, true).measured.windows, 2);
    }
}
