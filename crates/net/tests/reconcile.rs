//! The front door's quiesce contract as one gate: a seeded mixed load
//! over pipelined connections against a self-hosted fused LeNet-5,
//! then — once every connection has drained and closed — the clients'
//! tallies by [`ErrorCode`] must equal `GET /status`, the `/metrics`
//! latency count must equal the replies served, and `/trace` must be
//! a Chrome document carrying every pipeline stage.
//!
//! Its own test binary because it flips the process-global trace
//! flag. Which requests go out is a pure function of [`SEED`], and so
//! is the refusal count: the `metered` tenant's zero-rate bucket never
//! refills. Served vs. expired is timing, compared client to server.

use bnn_mcd::BayesConfig;
use bnn_net::{
    http_get, ErrorCode, NetConfig, NetServer, PipelinedClient, Request, Response, TenantPolicy,
    TenantTable, Timeouts,
};
use bnn_nn::models;
use bnn_rng::SoftRng;
use bnn_serve::{request_seed, Backend, Priority, Server};
use bnn_tensor::{Shape4, Tensor};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

const SEED: u64 = 45223;
const CONNECTIONS: usize = 4;
const REQUESTS: usize = 24;
const DEPTH: usize = 4;
/// The `metered` bucket's capacity: all that tenant is ever served.
const METERED_BURST: u64 = 2;

/// The request mix, `(weight, priority, tenant, deadline_us)`: a
/// priority spread, a deadline class and a rate-limited tenant, so
/// every admission path (serve, expire, rate-limit) carries traffic.
const CLASSES: [(usize, Priority, &str, Option<u64>); 4] = [
    (1, Priority::High, "gold", None),
    (4, Priority::Normal, "", None),
    (2, Priority::Normal, "", Some(50_000)),
    (1, Priority::Low, "metered", None),
];
const METERED: usize = 3;

/// One planned request: its class and its pinned mask-stream seed.
type Slot = (usize, u64);

/// Connection `conn`'s schedule: classes drawn by weight from a
/// stream seeded by `(SEED, conn)`, request seeds derived from
/// `(that seed, slot)` — no two slots of a run share one.
fn plan(conn: usize) -> Vec<Slot> {
    let conn_seed = request_seed(SEED, conn as u64);
    let mut rng = SoftRng::new(conn_seed);
    let total: usize = CLASSES.iter().map(|c| c.0).sum();
    (0..REQUESTS)
        .map(|slot| {
            let (mut ticket, mut class) = (rng.next_below(total), 0);
            while ticket >= CLASSES[class].0 {
                ticket -= CLASSES[class].0;
                class += 1;
            }
            (class, request_seed(conn_seed, slot as u64))
        })
        .collect()
}

/// What the clients saw: replies per class, error frames per wire code.
#[derive(Debug, Default)]
struct Tally {
    served: [u64; CLASSES.len()],
    errors: [u64; 7],
}

impl Tally {
    fn record(&mut self, slots: &[Slot], corr: u64, response: &Response) {
        match response {
            // `submit` hands out corr ids counting up from 0, so the
            // n-th submission is `slots[n]`.
            Response::Reply(reply) => {
                let (class, seed) = slots[corr as usize];
                assert_eq!(reply.seed, seed, "pinned seed must echo");
                self.served[class] += 1;
            }
            Response::Error(err) => self.errors[err.code.as_u8() as usize] += 1,
        }
    }
}

/// Drive one connection through its schedule and drain it; any
/// transport error (timeout, reset, EOF) fails the test.
fn drive(addr: SocketAddr, slots: &[Slot], input: &Tensor, tally: &Mutex<Tally>) {
    let mut client = PipelinedClient::connect(addr, DEPTH).expect("connect");
    for &(class, seed) in slots {
        let (_, priority, tenant, deadline_us) = CLASSES[class];
        let mut request = Request::new(input.clone())
            .tenant(tenant)
            .priority(priority)
            .seed(seed);
        if let Some(us) = deadline_us {
            request = request.deadline_us(us);
        }
        let submitted = client.submit(&request).expect("submit");
        if let Some((corr, response)) = submitted.drained {
            tally.lock().unwrap().record(slots, corr, &response);
        }
    }
    for (corr, response) in client.drain().expect("drain") {
        tally.lock().unwrap().record(slots, corr, &response);
    }
}

/// The integer after `"key":` in the `/status` document. Every key
/// read here appears exactly once in it.
fn status_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat).unwrap_or_else(|| panic!("no `{key}`")) + pat.len();
    let digits = json[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.and_then(|d| d.parse().ok()).expect("an integer")
}

#[test]
fn client_tallies_reconcile_with_status_metrics_and_trace_at_quiesce() {
    let plans: Vec<Vec<Slot>> = (0..CONNECTIONS).map(plan).collect();
    let mut seeds: Vec<u64> = plans.iter().flatten().map(|slot| slot.1).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), CONNECTIONS * REQUESTS, "seeds collided");
    let metered_slots = plans.iter().flatten().filter(|s| s.0 == METERED).count() as u64;

    let graph = Arc::new(models::lenet5(10, 1, 28, 3).fold_batch_norm());
    let server = Server::for_graph(graph)
        .backend(Backend::Fused)
        .bayes(BayesConfig::new(3, 10))
        .seed(SEED)
        .start();
    let metered = TenantPolicy::limited(Priority::Normal, 0.0, METERED_BURST as f64);
    let cfg = NetConfig {
        tenants: TenantTable::default().tenant("metered", metered),
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", server, cfg).expect("bind");
    let addr = net.local_addr();

    // Tracing on before the first request, so every stage span lands
    // in the rings the /trace poll drains.
    bnn_trace::set_enabled(true);
    let input = Tensor::full(Shape4::new(1, 1, 28, 28), 0.25);
    let tally = Mutex::new(Tally::default());
    // A scope joins every driver and re-raises a panic in any of them.
    std::thread::scope(|scope| {
        for slots in &plans {
            scope.spawn(|| drive(addr, slots, &input, &tally));
        }
    });
    let client = tally.into_inner().unwrap();
    let served: u64 = client.served.iter().sum();

    // Every driver has drained and disconnected, so the server's
    // counters are final. The door folds admission sheds into wire
    // `Rejected` frames, so client `rejected` is `rejected + shed`.
    let status = http_get(addr, "/status", Timeouts::default()).expect("GET /status");
    let s = |key| status_u64(&status, key);
    let c = |code: ErrorCode| client.errors[code.as_u8() as usize];
    assert_eq!(served, s("served"), "{client:?}\n{status}");
    assert_eq!(c(ErrorCode::DeadlineExceeded), s("expired"));
    assert_eq!(c(ErrorCode::BackendFailed), s("failed"));
    assert_eq!(c(ErrorCode::Rejected), s("rejected") + s("shed"));
    assert_eq!(c(ErrorCode::RateLimited), s("rate_limited"));
    assert_eq!((c(ErrorCode::Shutdown), c(ErrorCode::Malformed)), (0, 0));
    assert_eq!((s("malformed"), s("queued"), s("in_flight")), (0, 0, 0));
    let answered = served + client.errors.iter().sum::<u64>();
    assert_eq!(answered, (CONNECTIONS * REQUESTS) as u64);

    // The zero-rate bucket makes the refusals a function of the plan.
    assert!(metered_slots > METERED_BURST, "plan never hits the limit");
    assert_eq!(s("rate_limited"), metered_slots - METERED_BURST);
    assert_eq!(client.served[METERED], METERED_BURST);
    assert!(client.served.iter().all(|&n| n > 0), "{client:?}");

    let metrics = http_get(addr, "/metrics", Timeouts::default()).expect("GET /metrics");
    let count = metrics
        .lines()
        .find_map(|line| line.strip_prefix("bnn_request_latency_us_count{"))
        .and_then(|rest| rest.rsplit_once(' ')?.1.parse::<u64>().ok());
    assert_eq!(count, Some(served), "latency histogram count");

    let trace = http_get(addr, "/trace", Timeouts::default()).expect("GET /trace");
    bnn_trace::set_enabled(false);
    assert!(trace.starts_with("{\"traceEvents\":[") && trace.ends_with('}'));
    // Frame decode through reply write; `chunk`/`prepare`/`forward`
    // are engine-internal and backend-dependent, so not required.
    let stages = "request decode admission submit queue_wait batch_form compute write writer_wait";
    for stage in stages.split(' ') {
        let span = format!("\"name\":\"{stage}\"");
        assert!(trace.contains(&span), "no `{stage}` spans");
    }
    net.shutdown();
}
