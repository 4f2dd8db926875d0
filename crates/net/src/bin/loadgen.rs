//! `loadgen` — closed- and open-loop load generator for the
//! `bnn-net` front door.
//!
//! Drives many concurrent pipelined wire connections against a
//! [`bnn_net::NetServer`] (self-hosted over a fused LeNet-5 by default, or an
//! external `--addr`), following a fully seeded schedule from
//! [`bnn_net::loadgen::plan`]: per-slot request classes
//! (priority/tenant/deadline mixes), per-slot pinned seeds, and
//! deterministic inter-arrival gaps (closed-loop think time, fixed
//! rate, or Poisson). Latencies fold into one log2 histogram; the run
//! ends with a `GET /status` poll and an exact cross-check of
//! client-side response counts against the server's own counters at
//! quiesce, summarized on stdout. (Measurement lives in `benchmark/`;
//! this binary is a reconciliation gate.)
//!
//! ```text
//! loadgen [--smoke] [--mode closed|fixed|poisson] [--connections N]
//!         [--requests N] [--depth N] [--think-us N] [--rate R]
//!         [--seed N] [--addr HOST:PORT]
//!         [--metrics-check] [--trace-check]
//! ```
//!
//! Exit status is nonzero when the counter cross-check fails, any
//! transport-level error occurred, or a requested `--metrics-check` /
//! `--trace-check` reconciliation fails — CI runs `--smoke` with both
//! checks as a release gate.
//!
//! Determinism note: the *schedule* (which requests, which seeds,
//! which gaps) is a pure function of `--seed`; the *measurements*
//! (latencies, achieved rate) are wall-clock by nature. The waived
//! helpers below are the only clock and environment reads.

#![forbid(unsafe_code)]

use bnn_mcd::BayesConfig;
use bnn_net::loadgen::{plan, ArrivalMode, ClassSpec, LogHistogram, Outcomes, PlanConfig, Slot};
use bnn_net::{
    http_get, http_get_status_with, NetConfig, PipelinedClient, Request, Response, TenantPolicy,
    TenantTable, Timeouts,
};
use bnn_nn::models;
use bnn_serve::{Backend, BatchPolicy, Priority, Server};
use bnn_tensor::{Shape4, Tensor};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const USAGE: &str = "\
loadgen — seeded closed/open-loop load generator for the bnn-net front door

USAGE:
    loadgen [OPTIONS]

OPTIONS:
    --smoke            CI preset: 4 connections x 24 requests, depth 4,
                       closed loop with 200 us think time
    --mode MODE        closed | fixed | poisson      [default: closed]
    --connections N    concurrent connections        [default: 8]
    --requests N       requests per connection       [default: 64]
    --depth N          pipelined requests in flight  [default: 8]
    --think-us N       closed-loop think time (us)   [default: 1000]
    --rate R           open-loop sends/sec per conn  [default: 200]
    --seed N           schedule seed                 [default: 45223]
    --addr HOST:PORT   drive an external server (skips the /status
                       counter cross-check; default self-hosts a fused
                       LeNet-5 NetServer on an ephemeral port)
    --metrics-check    at quiesce, fetch GET /metrics and require the
                       served-latency histogram count to equal the
                       client-side served count (self-hosted runs only)
    --trace-check      enable span tracing for the run, then fetch
                       GET /trace and require a valid Chrome trace with
                       every pipeline stage present (self-hosted only)
    --help             print this text
";

/// The binary's only wall-clock read site.
fn now() -> Instant {
    // audit:allow(determinism) the load generator measures real latencies; this is the binary's one clock intake, and it never feeds the seeded schedule.
    Instant::now()
}

/// The binary's only environment read site.
fn cli_args() -> Vec<String> {
    // audit:allow(determinism) CLI flags are the binary's boundary; they select the workload shape and never feed computed values.
    std::env::args().skip(1).collect()
}

/// Which pacing family `--mode` selected; combined with `--think-us`
/// or `--rate` into an [`ArrivalMode`] after parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModeKind {
    Closed,
    Fixed,
    Poisson,
}

#[derive(Debug, Clone)]
struct Options {
    mode: ModeKind,
    connections: usize,
    requests: usize,
    depth: usize,
    think_us: u64,
    rate: f64,
    seed: u64,
    addr: Option<String>,
    metrics_check: bool,
    trace_check: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            mode: ModeKind::Closed,
            connections: 8,
            requests: 64,
            depth: 8,
            think_us: 1000,
            rate: 200.0,
            seed: 45223,
            addr: None,
            metrics_check: false,
            trace_check: false,
        }
    }
}

impl Options {
    /// Parse CLI flags; `Ok(None)` means `--help` was asked for.
    fn parse(args: &[String]) -> Result<Option<Options>, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--help" | "-h" => return Ok(None),
                "--smoke" => {
                    opts.mode = ModeKind::Closed;
                    opts.connections = 4;
                    opts.requests = 24;
                    opts.depth = 4;
                    opts.think_us = 200;
                }
                "--mode" => {
                    opts.mode = match value("--mode")?.as_str() {
                        "closed" => ModeKind::Closed,
                        "fixed" => ModeKind::Fixed,
                        "poisson" => ModeKind::Poisson,
                        other => return Err(format!("unknown mode `{other}`")),
                    };
                }
                "--connections" => opts.connections = parse_num(value("--connections")?)?,
                "--requests" => opts.requests = parse_num(value("--requests")?)?,
                "--depth" => opts.depth = parse_num(value("--depth")?)?,
                "--think-us" => opts.think_us = parse_num(value("--think-us")?)?,
                "--rate" => {
                    opts.rate = value("--rate")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --rate: {e}"))?;
                    if !opts.rate.is_finite() || opts.rate <= 0.0 {
                        return Err("--rate must be positive".to_string());
                    }
                }
                "--seed" => opts.seed = parse_num(value("--seed")?)?,
                "--addr" => opts.addr = Some(value("--addr")?.clone()),
                "--metrics-check" => opts.metrics_check = true,
                "--trace-check" => opts.trace_check = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.connections == 0 || opts.requests == 0 {
            return Err("--connections and --requests must be nonzero".to_string());
        }
        if opts.addr.is_some() && (opts.metrics_check || opts.trace_check) {
            return Err(
                "--metrics-check/--trace-check reconcile against a self-hosted server; \
                 drop --addr"
                    .to_string(),
            );
        }
        Ok(Some(opts))
    }

    fn arrival_mode(&self) -> ArrivalMode {
        match self.mode {
            ModeKind::Closed => ArrivalMode::Closed {
                think_us: self.think_us,
            },
            ModeKind::Fixed => ArrivalMode::Fixed {
                period_us: (1e6 / self.rate) as u64,
            },
            ModeKind::Poisson => ArrivalMode::Poisson {
                mean_gap_us: (1e6 / self.rate) as u64,
            },
        }
    }

    fn mode_name(&self) -> &'static str {
        match self.mode {
            ModeKind::Closed => "closed",
            ModeKind::Fixed => "fixed",
            ModeKind::Poisson => "poisson",
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
}

/// The default request-class mix: a priority spread, a deadline
/// class, and a rate-limited tenant so every admission path (serve,
/// expire, rate-limit) carries traffic.
fn default_classes() -> Vec<ClassSpec> {
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
            weight: 4.0,
            priority: Priority::Normal,
            tenant: String::new(),
            deadline_us: None,
        },
        ClassSpec {
            name: "deadline".to_string(),
            weight: 2.0,
            priority: Priority::Normal,
            tenant: String::new(),
            deadline_us: Some(50_000),
        },
        ClassSpec {
            name: "metered".to_string(),
            weight: 1.0,
            priority: Priority::Low,
            tenant: "metered".to_string(),
            deadline_us: None,
        },
    ]
}

/// Everything one connection driver reports back.
struct ConnReport {
    outcomes: Outcomes,
    overall: LogHistogram,
    sent: u64,
}

impl ConnReport {
    fn new() -> ConnReport {
        ConnReport {
            outcomes: Outcomes::default(),
            overall: LogHistogram::new(),
            sent: 0,
        }
    }

    fn record(&mut self, sent_at: &[Instant], corr: u64, response: &Response) {
        match response {
            Response::Reply(_) => {
                self.outcomes.record_served();
                if let Some(t0) = sent_at.get(corr as usize) {
                    let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                    self.overall.record(us);
                }
            }
            Response::Error(err) => self.outcomes.record_error(err.code),
        }
    }
}

/// Drive one connection through its slot schedule. Transport errors
/// (timeout, reset, EOF) abort the connection; every planned slot
/// that got no response is tallied as `transport` so the report
/// always accounts for the whole schedule.
fn drive_connection(
    addr: SocketAddr,
    slots: &[Slot],
    classes: &[ClassSpec],
    input: &Tensor,
    mode: ArrivalMode,
    depth: usize,
) -> ConnReport {
    let mut report = ConnReport::new();
    let mut client = match PipelinedClient::connect_with(addr, depth, Timeouts::default()) {
        Ok(client) => client,
        Err(_) => {
            report.outcomes.transport += slots.len() as u64;
            return report;
        }
    };
    // sent_at[corr] = send instant: submit() hands out corr ids
    // counting up from 0, so the n-th submission is sent_at[n].
    let mut sent_at: Vec<Instant> = Vec::with_capacity(slots.len());
    let mut target = now();
    for slot in slots {
        let spec = match classes.get(slot.class) {
            Some(spec) => spec,
            None => continue, // unreachable: plan() indexes its own mix
        };
        match mode {
            ArrivalMode::Closed { .. } => {
                // Closed loop: previous reply first, then think, then
                // send — offered load adapts to the service rate.
                if client.in_flight() >= depth.max(1) {
                    match client.recv() {
                        Ok((corr, response)) => report.record(&sent_at, corr, &response),
                        Err(_) => {
                            return abort_transport(report, slots, &sent_at, client);
                        }
                    }
                }
                if slot.gap_us > 0 {
                    thread::sleep(Duration::from_micros(slot.gap_us));
                }
            }
            ArrivalMode::Fixed { .. } | ArrivalMode::Poisson { .. } => {
                // Open loop: send at the scheduled instant no matter
                // what came back, up to the pipeline depth bound.
                target += Duration::from_micros(slot.gap_us);
                let wait = target.saturating_duration_since(now());
                if !wait.is_zero() {
                    thread::sleep(wait);
                }
            }
        }
        let mut request = Request::new(input.clone())
            .tenant(&spec.tenant)
            .priority(spec.priority)
            .seed(slot.seed);
        if let Some(us) = spec.deadline_us {
            request = request.deadline_us(us);
        }
        let t_send = now();
        match client.submit(&request) {
            Ok(submitted) => {
                sent_at.push(t_send);
                report.sent += 1;
                if let Some((corr, response)) = submitted.drained {
                    report.record(&sent_at, corr, &response);
                }
            }
            Err(_) => {
                return abort_transport(report, slots, &sent_at, client);
            }
        }
    }
    // Clean teardown: every in-flight id resolves before we hang up.
    match client.drain() {
        Ok(responses) => {
            for (corr, response) in responses {
                report.record(&sent_at, corr, &response);
            }
            report
        }
        Err(_) => abort_transport(report, slots, &sent_at, client),
    }
}

/// Tally every slot that will never get a response as `transport`.
fn abort_transport(
    mut report: ConnReport,
    slots: &[Slot],
    sent_at: &[Instant],
    client: PipelinedClient,
) -> ConnReport {
    let unsent = slots.len() as u64 - report.sent;
    let unanswered = sent_at.len() as u64 - (report.outcomes.total() - report.outcomes.transport);
    report.outcomes.transport += unsent + unanswered;
    drop(client);
    report
}

/// Server-side counters scraped from the `/status` JSON document.
/// Every key below appears exactly once in the document, so plain
/// substring scanning is unambiguous (no JSON parser in the tree).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct StatusCounters {
    served: u64,
    shed: u64,
    expired: u64,
    failed: u64,
    rejected: u64,
    rate_limited: u64,
    malformed: u64,
    queued: u64,
    in_flight: u64,
}

fn status_u64(json: &str, key: &str) -> Result<u64, String> {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .ok_or_else(|| format!("/status has no `{key}` field"))?
        + pat.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|e| format!("bad `{key}` in /status: {e}"))
}

fn parse_status(json: &str) -> Result<StatusCounters, String> {
    Ok(StatusCounters {
        served: status_u64(json, "served")?,
        shed: status_u64(json, "shed")?,
        expired: status_u64(json, "expired")?,
        failed: status_u64(json, "failed")?,
        rejected: status_u64(json, "rejected")?,
        rate_limited: status_u64(json, "rate_limited")?,
        malformed: status_u64(json, "malformed")?,
        queued: status_u64(json, "queued")?,
        in_flight: status_u64(json, "in_flight")?,
    })
}

/// The quiesce contract: every response the clients counted must be
/// accounted for by the server under the same name. The door folds
/// admission sheds into wire `Rejected` frames, so client `rejected`
/// covers server `rejected + shed`; nothing may remain queued or in
/// flight once every connection has drained.
fn counters_match(client: &Outcomes, server: &StatusCounters) -> bool {
    client.served == server.served
        && client.expired == server.expired
        && client.failed == server.failed
        && client.rejected == server.rejected + server.shed
        && client.rate_limited == server.rate_limited
        && client.shutdown == 0
        && client.malformed == 0
        && client.transport == 0
        && server.malformed == 0
        && server.queued == 0
        && server.in_flight == 0
}

/// Scrape one sample value from a Prometheus-style text exposition:
/// the first line whose metric name (before labels) is exactly
/// `name`, parsed as the integer after the last space.
fn metrics_u64(text: &str, name: &str) -> Result<u64, String> {
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        if !(rest.starts_with('{') || rest.starts_with(' ')) {
            continue; // longer metric name sharing the prefix
        }
        let value = rest
            .rsplit_once(' ')
            .map(|(_, v)| v)
            .ok_or_else(|| format!("no value on `{name}` line"))?;
        return value
            .parse()
            .map_err(|e| format!("bad `{name}` sample `{value}`: {e}"));
    }
    Err(format!("/metrics has no `{name}` sample"))
}

/// Stages every traced request must leave behind: the full pipeline
/// from frame decode to reply write. `chunk`/`prepare`/`forward` are
/// engine-internal and backend-dependent, so they are not required.
const REQUIRED_STAGES: [&str; 9] = [
    "request",
    "decode",
    "admission",
    "submit",
    "queue_wait",
    "batch_form",
    "compute",
    "write",
    "writer_wait",
];

/// Check that `/trace` returned a Chrome trace-event document with
/// every required pipeline stage represented.
fn validate_trace(json: &str) -> Result<(), String> {
    if !json.starts_with("{\"traceEvents\":[") || !json.ends_with('}') {
        return Err("not a chrome trace-event document".to_string());
    }
    for stage in REQUIRED_STAGES {
        if !json.contains(&format!("\"name\":\"{stage}\"")) {
            return Err(format!("trace has no `{stage}` spans"));
        }
    }
    Ok(())
}

struct RunOutcome {
    checked: bool,
    matched: bool,
    transport: u64,
    /// `Some(Err(why))` when a requested `--metrics-check` or
    /// `--trace-check` failed; `None` when not requested.
    metrics_check: Option<Result<(), String>>,
    trace_check: Option<Result<(), String>>,
}

fn run(opts: &Options) -> Result<RunOutcome, String> {
    let classes = default_classes();
    let cfg = PlanConfig {
        seed: opts.seed,
        connections: opts.connections,
        requests_per_connection: opts.requests,
        mode: opts.arrival_mode(),
        classes: classes.clone(),
    };
    let schedules = plan(&cfg).map_err(|e| format!("bad plan: {e}"))?;
    let input = Tensor::full(Shape4::new(1, 1, 28, 28), 0.25);

    // Self-host unless --addr points at an external front door.
    let hosted = match &opts.addr {
        Some(_) => None,
        None => {
            let graph = Arc::new(models::lenet5(10, 1, 28, 3).fold_batch_norm());
            let server = Server::for_graph(graph)
                .backend(Backend::Fused)
                .bayes(BayesConfig::new(3, 10))
                .policy(BatchPolicy {
                    max_batch: 8,
                    queue_cap: 256,
                    ..BatchPolicy::default()
                })
                .seed(opts.seed)
                .start();
            let tenants = TenantTable::default().tenant(
                "metered",
                TenantPolicy::limited(Priority::Normal, 400.0, 4.0),
            );
            let net = bnn_net::NetServer::bind(
                "127.0.0.1:0",
                server,
                NetConfig {
                    tenants,
                    max_connections: opts.connections + 8,
                    max_pipeline: opts.depth.max(1),
                    ..NetConfig::default()
                },
            )
            .map_err(|e| format!("bind failed: {e}"))?;
            Some(net)
        }
    };
    let addr: SocketAddr = match (&hosted, &opts.addr) {
        (Some(net), _) => net.local_addr(),
        (None, Some(addr)) => addr
            .parse()
            .map_err(|e| format!("bad --addr `{addr}`: {e}"))?,
        (None, None) => return Err("no server".to_string()),
    };

    // Tracing must be on before the first request so every stage span
    // lands in the rings the /trace poll will drain.
    if opts.trace_check {
        bnn_trace::set_enabled(true);
    }

    let t_start = now();
    // audit:allow(concurrency) one scoped driver thread per load-generator connection, joined before the run summarizes — the generator is a client of the stack, its concurrency IS the workload; server-side compute still routes through WorkerPool.
    let reports: Vec<ConnReport> = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(schedules.len());
        for slots in &schedules {
            let classes = &classes;
            let input = &input;
            handles.push(scope.spawn(move || {
                drive_connection(addr, slots, classes, input, cfg.mode, opts.depth)
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(report) => report,
                Err(_) => {
                    // A panicked driver answered nothing: account its
                    // whole schedule as transport loss.
                    let mut report = ConnReport::new();
                    report.outcomes.transport += opts.requests as u64;
                    report
                }
            })
            .collect()
    });
    let elapsed = t_start.elapsed();

    let mut outcomes = Outcomes::default();
    let mut overall = LogHistogram::new();
    for report in &reports {
        outcomes.merge(&report.outcomes);
        overall.merge(&report.overall);
    }

    // Quiesce cross-check: every driver has drained and disconnected,
    // so the server's counters are final before we poll them.
    let (checked, matched) = match &hosted {
        Some(_) => {
            let json = http_get_status_with(addr, Timeouts::default())
                .map_err(|e| format!("GET /status failed: {e}"))?;
            (true, counters_match(&outcomes, &parse_status(&json)?))
        }
        None => (false, false),
    };
    // Observability cross-checks, still at quiesce: the histogram
    // behind /metrics must account for exactly the replies the
    // clients counted, and /trace must render every pipeline stage.
    let metrics_check = opts.metrics_check.then(|| {
        let text = http_get(addr, "/metrics", Timeouts::default())
            .map_err(|e| format!("GET /metrics failed: {e}"))?;
        let count = metrics_u64(&text, "bnn_request_latency_us_count")?;
        if count == outcomes.served {
            Ok(())
        } else {
            Err(format!(
                "latency histogram count {count} != client served {}",
                outcomes.served
            ))
        }
    });
    let trace_check = opts.trace_check.then(|| {
        let json = http_get(addr, "/trace", Timeouts::default())
            .map_err(|e| format!("GET /trace failed: {e}"))?;
        validate_trace(&json)
    });
    if opts.trace_check {
        bnn_trace::set_enabled(false);
    }
    if let Some(net) = hosted {
        net.shutdown();
    }

    let elapsed_s = elapsed.as_secs_f64();
    println!(
        "loadgen: {} mode, {} conns x {} reqs (depth {}), {:.2}s: \
         {} served / {} rejected / {} expired / {} rate-limited / {} transport",
        opts.mode_name(),
        opts.connections,
        opts.requests,
        opts.depth,
        elapsed_s,
        outcomes.served,
        outcomes.rejected,
        outcomes.expired,
        outcomes.rate_limited,
        outcomes.transport,
    );
    if let (Some(p50), Some(p99)) = (
        overall.percentile_per_mille(500),
        overall.percentile_per_mille(990),
    ) {
        println!(
            "loadgen: latency p50 {p50} us, p99 {p99} us over {} samples",
            overall.total()
        );
    }
    println!(
        "loadgen: counters {}",
        if !checked {
            "unchecked (external server)"
        } else if matched {
            "match /status exactly"
        } else {
            "MISMATCH against /status"
        }
    );
    for (label, check) in [("metrics", &metrics_check), ("trace", &trace_check)] {
        match check {
            None => {}
            Some(Ok(())) => println!("loadgen: {label} check passed"),
            Some(Err(why)) => println!("loadgen: {label} check FAILED: {why}"),
        }
    }
    Ok(RunOutcome {
        checked,
        matched,
        transport: outcomes.transport,
        metrics_check,
        trace_check,
    })
}

fn main() -> ExitCode {
    let args = cli_args();
    let opts = match Options::parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            let check_failed = [&outcome.metrics_check, &outcome.trace_check]
                .iter()
                .any(|check| matches!(check, Some(Err(_))));
            if outcome.transport > 0 || (outcome.checked && !outcome.matched) || check_failed {
                eprintln!(
                    "loadgen: FAILED ({} transport errors, counters_match={}, \
                     observability checks ok={})",
                    outcome.transport, outcome.matched, !check_failed
                );
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
