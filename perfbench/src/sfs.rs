//! `sfs_threaded`: the file-server pipeline (`FileServerService`) on the
//! 2-worker threaded runtime, reading with real encrypt + MAC. Sixteen
//! sessions give sixteen `Encrypt` colors plus the serial protocol
//! color: coarse work, more colors than cores, no sockets. Each batch
//! is a fresh runtime serving a fixed number of reads; the first batch
//! warms the process up and is not counted, and each end-to-end figure
//! is the median over the batches that fit in the run. The schedule is
//! structural, so the seed is recorded but draws nothing.

use std::time::Instant;

use mely_repro::core::prelude::*;
use mely_repro::sfs::{FileServerConfig, FileServerService};

use crate::procfs::{self, Class, CpuDelta, CpuSample, HostTicks};
use crate::stats::{hist_quantile, least_contended, median};
use crate::{threaded_layers, Args, Host, Outcome, SetupTimes};

const SESSIONS: u64 = 16;
const READS_PER_SESSION: u64 = 1_000;
/// Batches run however short `--seconds` is.
const MIN_BATCHES: usize = 3;

struct Batch {
    wall_s: f64,
    /// Share of the machine's CPU time the hypervisor took.
    steal_frac: f64,
    report: RunReport,
    cpu: CpuDelta,
}

/// From nothing to a runtime with the file server installed.
fn setup() -> (Runtime, FileServerService) {
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let svc = rt.install(FileServerService::new(FileServerConfig {
        sessions: SESSIONS,
        requests_per_session: READS_PER_SESSION,
        ..FileServerConfig::default()
    }));
    (rt, svc)
}

fn batch(out: &mut Outcome) -> Batch {
    let (mut rt, svc) = setup();
    let (before, host_before, started) = (CpuSample::take(), HostTicks::take(), Instant::now());
    let report = rt.run();
    let wall_s = started.elapsed().as_secs_f64();
    // The workers live only inside `run`: their time is the part of the
    // process total no live thread explains.
    let cpu = CpuSample::take().since(&before, Class::Workers);
    let steal_frac = HostTicks::take().steal_frac_since(&host_before);

    let st = svc.stats();
    let want = svc.expected_requests();
    out.attempted += want;
    out.failed += want.saturating_sub(st.verified);
    if st.verified != want || st.reads != want || st.corrupt != 0 {
        out.check(
            format!(
                "verified {} == reads {} == expected {want}, corrupt {} == 0",
                st.verified, st.reads, st.corrupt
            ),
            false,
        );
    }
    if report.completed_requests() != want || report.events_processed() != svc.expected_events() {
        out.check(
            format!(
                "completed {} == {want}, events {} == {}",
                report.completed_requests(),
                report.events_processed(),
                svc.expected_events()
            ),
            false,
        );
    }
    Batch {
        wall_s,
        steal_frac,
        report,
        cpu,
    }
}

/// The half of `batches` (rounded up) the host's neighbours disturbed
/// least.
fn quieter_half(batches: Vec<(usize, &Batch)>) -> Vec<(usize, &Batch)> {
    let keep = batches.len().div_ceil(2);
    least_contended(batches, keep, |(_, b)| b.steal_frac)
}

pub fn run(host: &Host, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut warm = Outcome::default();
    batch(&mut warm);
    out.checks.append(&mut warm.checks);

    let t0 = Instant::now();
    let mut batches = Vec::new();
    let mut setups = SetupTimes::default();
    while batches.len() < MIN_BATCHES || t0.elapsed().as_secs_f64() < args.seconds as f64 {
        let rss = procfs::status_mb("VmRSS");
        batches.push(batch(&mut out));
        out.unit_memory(rss);
        setups.burst(setup);
    }
    out.retained_memory();
    let reads = (SESSIONS * READS_PER_SESSION) as f64;
    let per_batch: Vec<String> = batches
        .iter()
        .map(|b| {
            format!(
                "{:.0}/{:.0}/{:.3}",
                reads / b.wall_s,
                host.us(hist_quantile(&b.report.latency_histogram(), 0.5)),
                b.steal_frac
            )
        })
        .collect();
    println!(
        "batch reads/s / p50_us / host steal: {}",
        per_batch.join(" ")
    );
    out.check(
        format!(
            "{} batches of {reads} reads: every read verified, none corrupt",
            batches.len()
        ),
        out.failed == 0,
    );

    // In a traced run odd batches count as traced; SFS has no outside
    // hook to wrap, so the overhead figures show the noise floor. Each
    // set is cut to its least contended half.
    let (untraced, traced): (Vec<_>, Vec<_>) = batches
        .iter()
        .enumerate()
        .partition(|(i, _)| !args.trace || i % 2 == 0);
    let (untraced, traced) = (quieter_half(untraced), quieter_half(traced));
    // Throughput and CPU are medians over batches; latency quantiles come
    // from the batches' histograms merged, which uses every sample.
    let e2e = |bs: &[(usize, &Batch)]| -> [f64; 4] {
        let m =
            |f: &dyn Fn(&Batch) -> f64| median(&bs.iter().map(|(_, b)| f(b)).collect::<Vec<_>>());
        let mut h = LatencyHistogram::new();
        for (_, b) in bs {
            h.merge(&b.report.latency_histogram());
        }
        [
            m(&|b| reads / b.wall_s),
            host.us(hist_quantile(&h, 0.50)),
            host.us(hist_quantile(&h, 0.99)),
            m(&|b| b.cpu.server().total() * 1e6 / reads),
        ]
    };
    let [rps, p50, p99, cpu] = e2e(&untraced);
    out.set("setup_s", setups.finish(args.seconds, setup));
    out.set("rps", rps);
    out.set("p50_us", p50);
    out.set("p99_us", p99);
    out.set("cpu_us_per_resp", cpu);
    out.note("sfs.batches", batches.len() as f64, "count");

    if args.trace {
        let [t_rps, t_p50, t_p99, t_cpu] = e2e(&traced);
        out.set("trace.overhead.rps", t_rps - rps);
        out.set("trace.overhead.p50_us", t_p50 - p50);
        out.set("trace.overhead.p99_us", t_p99 - p99);
        out.set("trace.overhead.cpu_us_per_resp", t_cpu - cpu);
        // Per-layer figures from the median batch by throughput.
        let mut order: Vec<&Batch> = batches.iter().collect();
        order.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        let b = order[order.len() / 2];
        let t = b.report.total();
        out.set(
            "sfs.busy_us_per_read",
            host.us(t.busy_cycles as f64) / reads,
        );
        threaded_layers(
            &mut out,
            &b.report,
            b.cpu.of(Class::Workers),
            b.wall_s,
            reads as u64,
        );
    }
    out
}
