//! A peer that never speaks, or starts a length prefix or an HTTP head
//! and then goes silent, must not pin a connection slot: the front
//! door holds all three to the bound it puts on a stalled frame (100
//! read timeouts of silence) and then closes the connection.

use bnn_net::{NetClient, NetConfig, NetServer, Request, Response};
use bnn_nn::models;
use bnn_serve::Server;
use bnn_tensor::{Shape4, Tensor};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Take the front door's only connection slot, send `partial` and go
/// silent; a second client must be served within 2 s. Returns the
/// stalled peer's socket, still open on its side.
fn stall_with(partial: &[u8]) -> TcpStream {
    let graph = Arc::new(models::lenet5(10, 1, 16, 1).fold_batch_norm());
    let cfg = NetConfig {
        read_timeout: Duration::from_millis(5),
        max_connections: 1,
        ..NetConfig::default()
    };
    let net = NetServer::bind("127.0.0.1:0", Server::for_graph(graph).start(), cfg).expect("bind");
    let addr = net.local_addr();

    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(partial).expect("write");

    // At the cap the acceptor closes a new connection at once, so the
    // second client retries until the stalled peer's slot comes back.
    let x = Tensor::full(Shape4::new(1, 1, 16, 16), 0.1);
    let t0 = Instant::now();
    loop {
        let answer = NetClient::connect(addr).and_then(|mut c| c.send(&Request::new(x.clone())));
        if matches!(answer, Ok(Response::Reply(_))) {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "the stalled peer still holds the slot: {answer:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    net.shutdown();
    stalled
}

#[test]
fn a_silent_peer_frees_its_connection_slot() {
    stall_with(&[]);
}

#[test]
fn a_stalled_length_prefix_frees_its_connection_slot() {
    stall_with(&[0x10, 0x00]);
}

#[test]
fn a_stalled_http_head_is_answered_408_and_frees_its_slot() {
    let mut farewell = String::new();
    stall_with(b"GET /status\r\n")
        .read_to_string(&mut farewell)
        .expect("closed by the server");
    assert!(farewell.starts_with("HTTP/1.1 408 "), "{farewell:?}");
}
