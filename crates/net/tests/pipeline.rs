//! Pipelined-client conformance against synthetic wire peers: reply
//! correlation must be out-of-order safe, typed error frames must
//! resolve only their own id, uncorrelatable frames must surface as
//! typed `InvalidData`, and a server that accepts but never replies
//! must surface as typed `TimedOut` instead of hanging the caller —
//! the load generator's closed loop depends on every one of these.
//!
//! End-to-end pipelining against the real `NetServer` (bit-identity
//! with lock-step on all four substrates) lives in the facade's
//! `tests/net_pipeline.rs`; these tests pin the client's wire-level
//! behavior with hand-scripted peers instead.

use bnn_mcd::{CostReport, Uncertainty};
use bnn_net::wire::{
    decode_request, encode_error, encode_reply, read_frame, write_frame, ErrorCode, Request,
    Response,
};
use bnn_net::{http_get, NetClient, PipelinedClient, Timeouts};
use bnn_serve::Reply;
use bnn_tensor::{Shape4, Tensor};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

fn short_timeouts() -> Timeouts {
    Timeouts {
        connect: Duration::from_secs(2),
        read: Duration::from_millis(300),
        write: Duration::from_secs(2),
    }
}

fn input() -> Tensor {
    Tensor::full(Shape4::new(1, 1, 2, 2), 0.5)
}

/// A minimal reply whose identity is checkable from the outside: the
/// probs carry `id` so the client can prove which answer it got.
fn reply_for(id: u64) -> Reply {
    Reply {
        id,
        probs: Tensor::from_vec(Shape4::new(1, 2, 1, 1), vec![id as f32, 1.0 - id as f32]),
        uncertainty: Uncertainty {
            predicted: 0,
            confidence: 0.75,
            entropy: 0.5,
            mutual_information: 0.25,
        },
        cost: CostReport {
            samples: 4,
            batch: 1,
            wall_ms: 0.1,
            model: None,
        },
        coalesced: 1,
    }
}

/// Run a hand-scripted peer on an ephemeral port: accept exactly one
/// connection and hand it to `script`.
fn spawn_peer<F>(script: F) -> (SocketAddr, thread::JoinHandle<()>)
where
    F: FnOnce(TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            script(stream);
        }
    });
    (addr, handle)
}

/// Read `n` request frames and return them decoded.
fn read_requests(stream: &mut TcpStream, n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let payload = read_frame(stream)
                .expect("read frame")
                .unwrap_or_else(|| panic!("peer closed before frame {i}"));
            decode_request(&payload).expect("decode request")
        })
        .collect()
}

#[test]
fn replies_correlate_out_of_order() {
    const N: usize = 5;
    let (addr, peer) = spawn_peer(|mut stream| {
        let requests = read_requests(&mut stream, N);
        // Answer in reverse submission order, echoing each corr; the
        // reply id is the request's pinned seed so the client can
        // prove request↔reply pairing, not just corr echo.
        let mut out = Vec::new();
        for request in requests.iter().rev() {
            let seed = request.seed.expect("test requests pin seeds");
            encode_reply(&reply_for(seed), seed, request.corr, &mut out);
            write_frame(&mut stream, &out).expect("write reply");
        }
    });
    let mut client = PipelinedClient::connect_with(addr, N, short_timeouts()).expect("connect");
    let mut corr_to_seed = Vec::new();
    for i in 0..N {
        let seed = 1000 + i as u64;
        let submitted = client
            .submit(&Request::new(input()).seed(seed))
            .expect("submit");
        assert_eq!(submitted.corr, i as u64, "corr ids count up from 0");
        assert!(
            submitted.drained.is_none(),
            "depth {N} never forces a drain"
        );
        corr_to_seed.push((submitted.corr, seed));
    }
    let responses = client.drain().expect("drain");
    assert_eq!(responses.len(), N);
    assert_eq!(client.in_flight(), 0);
    for (corr, response) in responses {
        let (_, seed) = corr_to_seed[corr as usize];
        match response {
            Response::Reply(reply) => {
                assert_eq!(reply.seed, seed, "corr {corr} got another request's reply");
                assert_eq!(reply.id, seed);
            }
            Response::Error(err) => panic!("unexpected error frame: {:?}", err.code),
        }
    }
    peer.join().expect("peer");
}

#[test]
fn error_frame_resolves_only_its_own_id() {
    let (addr, peer) = spawn_peer(|mut stream| {
        let requests = read_requests(&mut stream, 3);
        let mut out = Vec::new();
        // Middle request fails with a typed error; its neighbors are
        // served — and the error is sent FIRST, so it cannot take the
        // earlier request down with it by arrival order either.
        encode_error(
            ErrorCode::RateLimited,
            None,
            requests[1].seed,
            requests[1].corr,
            &mut out,
        );
        write_frame(&mut stream, &out).expect("write error");
        for request in [&requests[0], &requests[2]] {
            let seed = request.seed.expect("seeded");
            encode_reply(&reply_for(seed), seed, request.corr, &mut out);
            write_frame(&mut stream, &out).expect("write reply");
        }
    });
    let mut client = PipelinedClient::connect_with(addr, 3, short_timeouts()).expect("connect");
    for i in 0..3u64 {
        client
            .submit(&Request::new(input()).seed(2000 + i))
            .expect("submit");
    }
    let responses = client.drain().expect("drain");
    assert_eq!(responses.len(), 3);
    for (corr, response) in responses {
        match (corr, response) {
            (1, Response::Error(err)) => {
                assert_eq!(err.code, ErrorCode::RateLimited);
                assert_eq!(err.corr, Some(1));
                assert_eq!(err.seed, Some(2001));
            }
            (1, Response::Reply(_)) => panic!("corr 1 should have failed"),
            (corr, Response::Reply(reply)) => assert_eq!(reply.seed, 2000 + corr),
            (corr, Response::Error(err)) => {
                panic!(
                    "corr {corr} failed with {:?} but only corr 1 should fail",
                    err.code
                )
            }
        }
    }
    peer.join().expect("peer");
}

#[test]
fn unknown_corr_is_typed_invalid_data() {
    let (addr, peer) = spawn_peer(|mut stream| {
        let requests = read_requests(&mut stream, 1);
        let seed = requests[0].seed.expect("seeded");
        let mut out = Vec::new();
        encode_reply(&reply_for(seed), seed, Some(999), &mut out);
        write_frame(&mut stream, &out).expect("write reply");
    });
    let mut client = PipelinedClient::connect_with(addr, 2, short_timeouts()).expect("connect");
    client
        .submit(&Request::new(input()).seed(1))
        .expect("submit");
    let err = client.recv().expect_err("corr 999 was never submitted");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    peer.join().expect("peer");
}

#[test]
fn uncorrelated_v1_frame_is_typed_invalid_data() {
    let (addr, peer) = spawn_peer(|mut stream| {
        let requests = read_requests(&mut stream, 1);
        let seed = requests[0].seed.expect("seeded");
        // A v1 (corr-less) reply on a pipelined connection cannot be
        // matched to any submission.
        let mut out = Vec::new();
        encode_reply(&reply_for(seed), seed, None, &mut out);
        write_frame(&mut stream, &out).expect("write reply");
    });
    let mut client = PipelinedClient::connect_with(addr, 2, short_timeouts()).expect("connect");
    client
        .submit(&Request::new(input()).seed(1))
        .expect("submit");
    let err = client.recv().expect_err("corr-less frames are unmatchable");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    peer.join().expect("peer");
}

#[test]
fn recv_with_nothing_in_flight_is_invalid_input() {
    let (addr, _peer) = spawn_peer(|stream| {
        thread::sleep(Duration::from_millis(50));
        drop(stream);
    });
    let mut client = PipelinedClient::connect_with(addr, 2, short_timeouts()).expect("connect");
    let err = client.recv().expect_err("nothing in flight");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
}

#[test]
fn server_close_with_requests_in_flight_is_unexpected_eof() {
    let (addr, peer) = spawn_peer(|mut stream| {
        let _ = read_requests(&mut stream, 1);
        drop(stream); // hang up without answering
    });
    let mut client = PipelinedClient::connect_with(addr, 2, short_timeouts()).expect("connect");
    client
        .submit(&Request::new(input()).seed(1))
        .expect("submit");
    peer.join().expect("peer");
    let err = client.recv().expect_err("peer hung up mid-pipeline");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
}

/// The satellite-bug regression: a server that accepts and never
/// replies must surface as a typed `TimedOut` on every client path —
/// lock-step send, pipelined recv, and the `/status` helper — rather
/// than hanging the caller forever.
#[test]
fn silent_server_times_out_typed_everywhere() {
    // The listener accepts nothing; connects still succeed via the
    // OS backlog and all reads then starve.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");

    let mut lock_step = NetClient::connect_with(addr, short_timeouts()).expect("connect");
    let err = lock_step
        .send(&Request::new(input()).seed(1))
        .expect_err("no reply is coming");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);

    let mut pipelined = PipelinedClient::connect_with(addr, 4, short_timeouts()).expect("connect");
    pipelined
        .submit(&Request::new(input()).seed(1))
        .expect("submit");
    let err = pipelined.recv().expect_err("no reply is coming");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);

    let err = http_get(addr, "/status", short_timeouts()).expect_err("no reply is coming");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    drop(listener);
}

#[test]
fn submit_at_depth_drains_exactly_one() {
    const DEPTH: usize = 2;
    let (addr, peer) = spawn_peer(|mut stream| {
        // Lock-step echo: answer each request as it arrives.
        for _ in 0..3 {
            let payload = match read_frame(&mut stream).expect("read") {
                Some(payload) => payload,
                None => return,
            };
            let request = decode_request(&payload).expect("decode");
            let seed = request.seed.expect("seeded");
            let mut out = Vec::new();
            encode_reply(&reply_for(seed), seed, request.corr, &mut out);
            write_frame(&mut stream, &out).expect("write");
        }
    });
    let mut client = PipelinedClient::connect_with(addr, DEPTH, short_timeouts()).expect("connect");
    assert_eq!(client.depth(), DEPTH);
    let a = client
        .submit(&Request::new(input()).seed(10))
        .expect("submit a");
    let b = client
        .submit(&Request::new(input()).seed(11))
        .expect("submit b");
    assert!(a.drained.is_none() && b.drained.is_none());
    assert_eq!(client.in_flight(), DEPTH);
    // Third submit is over depth: exactly one earlier response is
    // drained to make room.
    let c = client
        .submit(&Request::new(input()).seed(12))
        .expect("submit c");
    let (corr, response) = c.drained.expect("over-depth submit drains one");
    assert_eq!(corr, 0, "oldest in-flight drains first on an in-order peer");
    assert!(matches!(response, Response::Reply(_)));
    assert_eq!(client.in_flight(), DEPTH);
    let rest = client.drain().expect("drain");
    assert_eq!(rest.len(), DEPTH);
    peer.join().expect("peer");
}
