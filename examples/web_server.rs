//! The SWS web server under closed-loop HTTP load, comparing the
//! paper's headline configurations side by side.
//!
//! Run with `cargo run --release --example web_server`. The results
//! block is printed through [`mely_repro::summary::RunSummary`] — the
//! same aligned format `examples/serve.rs` uses for real sockets, so
//! virtual-time and socket runs can be compared line by line.

use mely_repro::bench::scenarios::{sws_ncopy_run, sws_run, SwsRun};
use mely_repro::bench::PaperConfig;
use mely_repro::summary::{cycles_to_us, RunSummary};

fn summarize(r: &SwsRun, clients: usize, duration: u64) -> RunSummary {
    // Simulated runs count virtual cycles of the machine model.
    let hz = r.report.freq_hz();
    let secs = duration as f64 / hz as f64;
    RunSummary {
        label: r.label.clone(),
        conns: clients as u64,
        responses: r.server.responses,
        rps: if secs > 0.0 {
            r.server.responses as f64 / secs
        } else {
            0.0
        },
        p50_us: cycles_to_us(r.report.latency_p50(), hz),
        p99_us: cycles_to_us(r.report.latency_p99(), hz),
        sheds: r.report.shed_requests(),
        faults: r.report.failed_requests(),
        steals_by_tier: r.report.steals_by_tier(),
    }
}

fn main() {
    let clients = 800;
    let duration = 40_000_000; // ~17 ms of virtual time

    println!("SWS: {clients} closed-loop clients requesting 1 KB files\n");
    println!("{}", RunSummary::header());
    for cfg in [
        PaperConfig::MelyImprovedWs,
        PaperConfig::Libasync,
        PaperConfig::LibasyncWs,
    ] {
        let r = sws_run(cfg, clients, duration);
        // The stage-based SWS closes one latency-pipeline request per
        // response it writes.
        assert_eq!(r.report.completed_requests(), r.server.responses);
        println!("{}", summarize(&r, clients, duration));
    }
    let n = sws_ncopy_run(clients, duration);
    println!("{}", summarize(&n, clients, duration));
    println!("\n(The paper's Figure 7: Mely-WS on top, N-copy competitive,");
    println!(" Libasync hurt by enabling its legacy workstealing.)");
}
