//! Real-socket serving throughput: the SWS stage graph behind the
//! loopback TCP gateway, swept over connection counts.
//!
//! Unlike the figure benches (virtual time, simulated clients) this one
//! measures the whole kernel path: a multi-threaded open-loop
//! [`TcpLoadgen`] drives keep-alive HTTP/1.1 connections over loopback
//! into the [`TcpGateway`] poller, which bridges them into the `SimNet`
//! the stage graph polls. One *operation* is one client-verified
//! response; the reported time is wall ns per response (so the JSON
//! gate's lower-is-better comparison applies), and each sweep point
//! also prints RPS and the server-side p50/p99.
//!
//! Sweep points are budget-scaled: `tcp_serve/1k` always runs (CI-safe
//! on a small host); `tcp_serve/10k` joins when `MELY_BENCH_BUDGET_MS`
//! allows at least two seconds of measurement. Larger sweeps (the 50k
//! figure in the README) are a manual run:
//! `MELY_BENCH_BUDGET_MS=60000 MELY_TCP_SERVE_CONNS=50000 cargo bench
//! --bench tcp_serve`.
//!
//! Every point asserts the end-to-end contract before reporting:
//! server-completed == client-verified, zero client errors.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Instant;

use criterion::{emit_json, measure_budget};
use mely_core::cycles;
use mely_core::prelude::*;
use mely_loadgen::tcp::{TcpLoadgen, TcpLoadgenConfig};
use mely_net::tcp::{raise_nofile_limit, TcpGateway, TcpGatewayConfig};
use mely_net::{NetConfig, SimNet};
use parking_lot::Mutex;
use sws::{SwsConfig, SwsService};

/// Keep-alive requests per connection at every sweep point.
const REQS_PER_CONN: u64 = 8;

/// Threaded-runtime cycles to µs at the measured counter rate.
fn cycles_to_us(c: u64) -> f64 {
    c as f64 * 1e6 / cycles::hz() as f64
}

struct Point {
    rps: f64,
    ns_per_resp: f64,
    p50_us: f64,
    p99_us: f64,
}

/// One serve round at `conns` connections; asserts the accounting
/// contract and returns the throughput/latency numbers.
fn serve_point(conns: usize) -> Point {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut rt = RuntimeBuilder::new()
        .cores(cores)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
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
    let start = Instant::now();
    let load = TcpLoadgen::start(
        addr,
        TcpLoadgenConfig {
            workers: cores.max(2),
            conns,
            requests_per_conn: REQS_PER_CONN,
            window: 4,
            files,
            deadline: std::time::Duration::from_secs(300),
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
    let (client, _gw) = orchestrator.join().expect("orchestrator");
    let wall = start.elapsed();

    assert_eq!(
        report.completed_requests(),
        client.responses,
        "server-completed vs client-verified mismatch at {conns} conns"
    );
    assert_eq!(client.errors, 0, "all responses must be 200s");
    let responses = client.responses.max(1) as f64;
    Point {
        rps: responses / wall.as_secs_f64().max(1e-9),
        ns_per_resp: wall.as_secs_f64() * 1e9 / responses,
        p50_us: cycles_to_us(report.latency_p50()),
        p99_us: cycles_to_us(report.latency_p99()),
    }
}

fn main() {
    let mut sweep: Vec<(usize, &str)> = vec![(1_000, "tcp_serve/1k")];
    // The 10k point moves ~160k responses through the kernel; only run
    // it when the caller budgeted real measuring time for it.
    if measure_budget() >= std::time::Duration::from_secs(2) {
        sweep.push((10_000, "tcp_serve/10k"));
    }
    // Manual override for the big sweeps documented in the README.
    if let Some(n) = std::env::var("MELY_TCP_SERVE_CONNS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        sweep.push((n, "tcp_serve/custom"));
    }

    println!(
        "{:<20} {:>8} {:>12} {:>14} {:>12} {:>12}",
        "id", "conns", "RPS", "ns/resp", "p50 µs", "p99 µs"
    );
    for (conns, id) in sweep {
        let limit = raise_nofile_limit(conns as u64 * 2 + 512);
        let capped = conns.min((limit.saturating_sub(512) / 2) as usize).max(1);
        if capped < conns {
            println!("(fd limit {limit}: {id} capped to {capped} conns)");
        }
        let p = serve_point(capped);
        println!(
            "{id:<20} {capped:>8} {:>12.0} {:>14.1} {:>12.1} {:>12.1}",
            p.rps, p.ns_per_resp, p.p50_us, p.p99_us
        );
        emit_json(id, p.ns_per_resp);
    }
}
