//! End-to-end loopback serving and fd-lifecycle soak.
//!
//! These tests run the full real-socket path — `TcpLoadgen` → kernel
//! loopback → `TcpGateway` poller → `SimNet` → the SWS stage graph on
//! the threaded runtime — and check the two contracts the subsystem
//! promises:
//!
//! 1. **accounting**: every request the server counts as completed is a
//!    response a real client received, framed and verified;
//! 2. **fd hygiene**: after any number of connect/serve/close rounds the
//!    process holds exactly as many file descriptors as before — no
//!    leaked sockets, no leaked epoll instances;
//! 3. **promptness**: a response leaves as soon as the server has
//!    nothing left in flight, not when the gateway's poll timeout
//!    expires.
//!
//! The soak defaults to CI-safe counts; raise `MELY_SOAK_CONNS` (total
//! connections across both churn waves) to stress harder.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mely_repro::core::prelude::*;
use mely_repro::loadgen::tcp::{TcpLoadReport, TcpLoadgen, TcpLoadgenConfig};
use mely_repro::loadgen::ClientProtocol;
use mely_repro::net::tcp::{raise_nofile_limit, TcpGateway, TcpGatewayConfig, TcpStats};
use mely_repro::net::{NetConfig, SimNet};
use mely_repro::sws::{HttpProtocol, SwsConfig, SwsService, SwsStats};

/// Tests that count `/proc/self/fd` must not overlap with anything else
/// that opens sockets, so they serialize on this lock. `cargo test`
/// runs the rest of this binary's tests concurrently otherwise.
static SERIAL: StdMutex<()> = StdMutex::new(());

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Open file descriptors of this process right now.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable on linux")
        .count()
}

struct Round {
    client: TcpLoadReport,
    gateway: TcpStats,
    server: SwsStats,
    completed: u64,
    live_conns: usize,
}

/// One full serve round: bring up runtime + gateway, run `conns`
/// keep-alive connections of `reqs` requests each, tear everything
/// down, and return the three ledgers. Everything constructed here is
/// dropped before returning, so fd counts taken around a call see only
/// leaks.
fn serve_round(conns: usize, reqs: u64) -> Round {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut rt = RuntimeBuilder::new()
        .cores(cores)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
    // Same cadence rationale as examples/serve.rs: slow polls, with the
    // gateway waker providing promptness.
    let sws_cfg = SwsConfig {
        max_clients: conns + 64,
        poll_interval: 2_330_000, // ~1 ms
        min_poll: 233_000,        // ~100 µs
        ..SwsConfig::default()
    };
    let gateway = TcpGateway::bind(
        "127.0.0.1:0",
        Arc::clone(&net),
        TcpGatewayConfig {
            sim_port: sws_cfg.port,
            max_conns: conns + 64,
            poll_timeout_ms: 1,
        },
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let files = sws_cfg.files;
    let driver = Arc::new(Mutex::new(gateway.driver()));
    let server = rt.install(SwsService::new(Arc::clone(&net), driver, sws_cfg));
    let waker = server.waker(rt.injector());
    gateway.set_waker(move || waker.wake());

    let keepalive = rt.injector().keepalive();
    let stopper = rt.injector();
    let load = TcpLoadgen::start(
        addr,
        TcpLoadgenConfig {
            workers: 2,
            conns,
            requests_per_conn: reqs,
            window: 4,
            files,
            deadline: std::time::Duration::from_secs(60),
        },
    );
    let orchestrator = std::thread::spawn(move || {
        let client = load.join().expect("no load worker panicked");
        let gw = gateway.shutdown();
        stopper.stop_when_idle();
        drop(keepalive);
        (client, gw)
    });
    let report = rt.run();
    let (client, gw) = orchestrator.join().expect("orchestrator");
    let live_conns = net.lock().live_conns();
    Round {
        client,
        gateway: gw,
        server: server.stats(),
        completed: report.completed_requests(),
        live_conns,
    }
}

/// The accounting contract at smoke scale: server-completed equals
/// client-verified, every connection accepted and closed, nothing left
/// live in the SimNet.
#[test]
fn loopback_smoke_serves_every_request() {
    let _serial = SERIAL.lock().unwrap();
    raise_nofile_limit(4_096);
    let (conns, reqs) = (64, 8u64);
    let r = serve_round(conns, reqs);
    assert_eq!(r.client.responses, (conns as u64) * reqs);
    assert_eq!(r.client.errors, 0, "all responses must be 200s");
    assert_eq!(r.client.failed_conns, 0);
    assert_eq!(
        r.completed, r.client.responses,
        "server-completed vs client-verified mismatch"
    );
    assert_eq!(r.server.responses, r.client.responses);
    assert_eq!(r.gateway.accepted, conns as u64);
    assert_eq!(r.gateway.closed, conns as u64);
    assert_eq!(r.live_conns, 0, "SimNet must end with no live connections");
}

/// The fd-lifecycle contract under churn: two waves of connections
/// (each wave builds and tears down its own runtime, gateway, epoll
/// instances, and sockets) leave the process fd table exactly where it
/// started.
#[test]
fn loopback_soak_leaks_no_fds() {
    let _serial = SERIAL.lock().unwrap();
    let total = env_usize("MELY_SOAK_CONNS", 1_000);
    let limit = raise_nofile_limit(total as u64 * 2 + 512);
    let total = total.min((limit.saturating_sub(512) / 2) as usize).max(2);
    let wave = total / 2;

    // Warm-up round so lazily-created process-wide fds (std's stdio
    // locks, the runtime's first epoll, DNS-less resolver state) exist
    // before the baseline count.
    let warm = serve_round(8, 2);
    assert_eq!(warm.completed, 16);

    let before = open_fds();
    let mut served = 0u64;
    for _ in 0..2 {
        let r = serve_round(wave, 4);
        assert_eq!(r.client.errors, 0);
        assert_eq!(r.client.failed_conns, 0);
        assert_eq!(r.completed, r.client.responses);
        assert_eq!(r.live_conns, 0);
        assert_eq!(r.gateway.accepted, wave as u64);
        assert_eq!(r.gateway.closed, wave as u64);
        served += r.client.responses;
    }
    let after = open_fds();

    assert_eq!(served, (wave as u64) * 2 * 4);
    assert_eq!(
        before, after,
        "fd leak: {before} open fds before the churn waves, {after} after"
    );
}

/// One blocking GET on `c`: sends request `seq` and reads until one
/// whole response is framed. Returns the round-trip time.
fn round_trip(c: &mut TcpStream, proto: &mut HttpProtocol, seq: u64) -> Duration {
    let t0 = Instant::now();
    c.write_all(&proto.request(0, seq)).expect("send request");
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while proto.response_len(&buf).is_none_or(|n| buf.len() < n) {
        let n = c.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
    assert!(buf.starts_with(b"HTTP/1.1 200"), "not a 200");
    t0.elapsed()
}

/// The response path is event-driven end to end: SWS fires the
/// network's output signal when it has nothing left in flight, and the
/// gateway's poller wakes for it. With a 1 s `epoll_wait` timeout, a
/// keep-alive round trip must not wait that timeout out.
#[test]
fn keepalive_round_trip_does_not_wait_for_the_poll_timeout() {
    let _serial = SERIAL.lock().unwrap();
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
    let sws_cfg = SwsConfig {
        max_clients: 8,
        poll_interval: 2_330_000,
        min_poll: 233_000,
        ..SwsConfig::default()
    };
    let gateway = TcpGateway::bind(
        "127.0.0.1:0",
        Arc::clone(&net),
        TcpGatewayConfig {
            sim_port: sws_cfg.port,
            max_conns: 8,
            poll_timeout_ms: 1_000,
        },
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let files = sws_cfg.files;
    let driver = Arc::new(Mutex::new(gateway.driver()));
    let server = rt.install(SwsService::new(net, driver, sws_cfg));
    let waker = server.waker(rt.injector());
    gateway.set_waker(move || waker.wake());

    let keepalive = rt.injector().keepalive();
    let stopper = rt.injector();
    let client = std::thread::spawn(move || {
        let mut proto = HttpProtocol::new(files);
        let mut c = TcpStream::connect(addr).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The first trip also covers the accept; the second is the
        // steady keep-alive case.
        let first = round_trip(&mut c, &mut proto, 0);
        let second = round_trip(&mut c, &mut proto, 1);
        drop(c);
        gateway.shutdown();
        stopper.stop_when_idle();
        drop(keepalive);
        (first, second)
    });
    let report = rt.run();
    let (first, second) = client.join().expect("client thread");
    assert_eq!(report.completed_requests(), 2);
    assert!(
        second < Duration::from_millis(100),
        "keep-alive round trip took {second:?} (first {first:?}) with a 1 s poll timeout"
    );
}
