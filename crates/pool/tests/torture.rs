//! Adversarial-client torture tests for the epoll front end: slow
//! writers, mid-body disconnects, and large idle connection herds must
//! neither wedge the single event-loop thread nor leak epoll
//! registrations.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use snn_core::{LifConfig, NetworkSnapshot, SpikingNetwork};
use snn_pool::{PoolServer, PoolServerConfig};
use snn_serve::{BatcherConfig, ModelRegistry};
use snn_tensor::Shape;

fn snapshot(seed: u64) -> NetworkSnapshot {
    let lif = LifConfig { theta: 0.5, ..LifConfig::paper_default() };
    let net = SpikingNetwork::builder(Shape::d3(1, 8, 8), seed)
        .conv(4, 3, 1, 1, lif)
        .unwrap()
        .maxpool(2)
        .unwrap()
        .flatten()
        .unwrap()
        .dense(4, lif)
        .unwrap()
        .build()
        .unwrap();
    NetworkSnapshot::from_network(&net)
}

fn start_pool(replicas: usize) -> PoolServer {
    let registry = Arc::new(ModelRegistry::new(snapshot(11), "demo").unwrap());
    let cfg = PoolServerConfig {
        replicas,
        batcher: BatcherConfig { timesteps: 2, ..BatcherConfig::default() },
        ..PoolServerConfig::default()
    };
    PoolServer::start(registry, cfg).unwrap()
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, text)
}

fn infer_body() -> String {
    let input: Vec<String> = (0..64).map(|i| format!("{}", (i % 7) as f32 / 7.0)).collect();
    format!("{{\"input\":[{}]}}", input.join(","))
}

/// Waits for the server's open-connection gauge to drain to
/// `at_most`, failing after ~5s.
fn await_drain(server: &PoolServer, at_most: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let open = server.open_connections();
        if open <= at_most {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "open_connections stuck at {open} (wanted <= {at_most}) — leaked registrations"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// Graceful drain under load: every request already written before
/// the drain begins still gets its 200, idle keep-alives are dropped,
/// the listener refuses new connections, and the event loop exits on
/// its own — well before the drain deadline.
#[test]
fn graceful_drain_completes_inflight_and_refuses_new_connections() {
    let registry = Arc::new(ModelRegistry::new(snapshot(11), "demo").unwrap());
    let cfg = PoolServerConfig {
        replicas: 2,
        batcher: BatcherConfig {
            timesteps: 2,
            // A long linger keeps requests visibly in flight while the
            // drain starts underneath them.
            max_wait: Duration::from_millis(30),
            max_batch: 16,
            ..BatcherConfig::default()
        },
        drain_timeout: Duration::from_secs(5),
        ..PoolServerConfig::default()
    };
    let mut server = PoolServer::start(registry, cfg).unwrap();
    let addr = server.addr();
    let body = infer_body();

    // One parked keep-alive connection: the drain must shed it.
    let idle = TcpStream::connect(addr).unwrap();

    // Write eight full requests, then drain while they are in flight.
    let mut streams = Vec::new();
    for _ in 0..8 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let req = format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        streams.push(s);
    }
    server.begin_drain();
    assert!(server.draining());

    for mut s in streams {
        let mut response = Vec::new();
        s.read_to_end(&mut response).unwrap();
        let text = String::from_utf8(response).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 200 OK"),
            "in-flight request dropped during drain: {text}"
        );
    }

    // Every connection (including the idle one) goes away and the
    // listener closes, so new connects are refused.
    await_drain(&server, 0);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpStream::connect(addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(Instant::now() < deadline, "listener still accepting during drain");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
    drop(idle);

    // The loop exits by itself once drained — join must return fast.
    let joiner = thread::spawn(move || {
        server.join();
        server
    });
    let mut waited = Duration::ZERO;
    while !joiner.is_finished() && waited < Duration::from_secs(5) {
        thread::sleep(Duration::from_millis(20));
        waited += Duration::from_millis(20);
    }
    assert!(joiner.is_finished(), "event loop did not exit after drain");
    drop(joiner.join().unwrap());
}

/// Drains a pool of one with a connection mid-request — an `/infer`
/// in flight (`in_flight`) or a half-sent head — then times
/// `shutdown()`. The listener is closed by then, so only the doorbell
/// can wake the loop early.
fn shutdown_mid_drain(in_flight: bool) -> Duration {
    let registry = Arc::new(ModelRegistry::new(snapshot(11), "demo").unwrap());
    let cfg = PoolServerConfig {
        replicas: 1,
        // The lone request lingers, so it is still in flight below.
        batcher: BatcherConfig {
            timesteps: 2,
            max_wait: Duration::from_secs(3),
            ..BatcherConfig::default()
        },
        drain_timeout: Duration::from_secs(5),
        ..PoolServerConfig::default()
    };
    let mut server = PoolServer::start(registry, cfg).unwrap();
    let addr = server.addr();
    let mut client = TcpStream::connect(addr).unwrap();
    if in_flight {
        let body = infer_body();
        let req = format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        client.write_all(req.as_bytes()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().received.get() == 0 {
            assert!(Instant::now() < deadline, "request never reached the replica");
            thread::sleep(Duration::from_millis(5));
        }
    } else {
        client.write_all(b"GET /healthz HTTP/1.1\r\nHost").unwrap();
    }
    server.begin_drain();
    // Once connects are refused the drain has closed the listener.
    let deadline = Instant::now() + Duration::from_secs(5);
    while TcpStream::connect(addr).is_ok() {
        assert!(Instant::now() < deadline, "listener still accepting during drain");
        thread::sleep(Duration::from_millis(5));
    }
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    drop(client);
    took
}

/// `shutdown()` during a drain returns at once, well inside the loop's
/// 250 ms idle tick, whether a request is in flight or half-received.
#[test]
fn shutdown_mid_drain_returns_promptly() {
    for in_flight in [true, false] {
        let took = shutdown_mid_drain(in_flight);
        assert!(
            took < Duration::from_millis(100),
            "shutdown took {took:?} mid-drain (request in flight: {in_flight})"
        );
    }
}

/// A client trickling its request one byte at a time must not stall
/// anyone else: a level-triggered loop only sees the slow socket when
/// bytes actually arrive, so fast clients keep completing, and the
/// slow request itself still succeeds once its head is whole.
#[test]
fn slowloris_header_trickle_does_not_wedge_the_loop() {
    let server = start_pool(2);
    let addr = server.addr();

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    slow.set_nodelay(true).unwrap();
    let head = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";

    // Trickle all but the final byte while a fast client hammers
    // /infer on the same loop thread.
    let body = infer_body();
    for &byte in &head[..head.len() - 1] {
        slow.write_all(&[byte]).unwrap();
        let (status, text) = request(addr, "POST", "/infer", &body);
        assert_eq!(status, 200, "fast client starved by slowloris: {text}");
    }

    // Completing the head completes the slow request too.
    slow.write_all(&head[head.len() - 1..]).unwrap();
    let mut response = Vec::new();
    slow.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"), "slow request failed: {text}");
    assert!(text.contains("\"status\":\"ok\""), "slow request body: {text}");

    drop(slow);
    await_drain(&server, 0);
}

/// A client that declares a body, sends half of it, and vanishes must
/// be reaped — not held forever as a half-read state machine — and the
/// server keeps answering.
#[test]
fn mid_body_disconnect_is_reaped_and_service_continues() {
    let server = start_pool(2);
    let addr = server.addr();
    let body = infer_body();

    for _ in 0..8 {
        let mut rude = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        rude.write_all(head.as_bytes()).unwrap();
        rude.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
        // Abort without finishing the body — both the polite FIN and
        // the abortive variant must unwind cleanly.
        rude.shutdown(Shutdown::Both).ok();
        drop(rude);
    }

    for _ in 0..4 {
        let (status, text) = request(addr, "POST", "/infer", &body);
        assert_eq!(status, 200, "service wedged after disconnects: {text}");
    }
    await_drain(&server, 0);
}

/// A herd of idle keep-alive connections costs one epoll registration
/// each — not a thread each. The loop must stay responsive with 1000
/// parked sockets and release every registration when they leave.
#[test]
fn thousand_idle_keepalive_connections_do_not_leak() {
    let server = start_pool(2);
    let addr = server.addr();

    let mut herd = Vec::with_capacity(1000);
    for i in 0..1000 {
        match TcpStream::connect(addr) {
            Ok(s) => herd.push(s),
            Err(e) => panic!("connect {i} failed: {e}"),
        }
    }
    // Let the accept loop register the stragglers.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.open_connections() < 1000 {
        assert!(Instant::now() < deadline, "only {} registered", server.open_connections());
        thread::sleep(Duration::from_millis(20));
    }

    // Still responsive with the herd parked.
    let body = infer_body();
    let (status, text) = request(addr, "POST", "/infer", &body);
    assert_eq!(status, 200, "loop unresponsive under idle herd: {text}");

    // A member of the herd can still transact.
    let member = herd.last_mut().unwrap();
    member.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    member
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    member.read_to_end(&mut response).unwrap();
    assert!(String::from_utf8(response).unwrap().contains("\"status\":\"ok\""));

    drop(herd);
    await_drain(&server, 0);
}
