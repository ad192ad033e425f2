//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload against the Mely runtime through its public
//! APIs, checks every output it can, prints the host facts, each metric
//! on a line of its own with its unit, and as the last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set; with `--trace 1` the
//! run is traced and the metrics are the per-layer set (including the
//! tracing overhead). A failed correctness check makes the exit code 1.
//! See `README.md` beside this package for the workloads and metrics.

mod procfs;
mod sfs;
mod sim;
mod stats;
mod tcp;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mely_repro::core::cycles;
use mely_repro::core::metrics::RunReport;

use procfs::Cpu;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_us_per_resp", "us"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.tsc_hz", "Hz"),
    ("mem.retained_mb_per_rerun", "MB"),
    ("loadgen.send_late_p99_us", "us"),
    ("loadgen.cpu_us_per_resp", "us"),
    ("loadgen.sim_driver_frac", "frac"),
    ("sim.host_cpu_us_per_resp", "us"),
    ("client.send_p50_us", "us"),
    ("client.wait_p50_us", "us"),
    ("client.read_p50_us", "us"),
    ("net.tcp.cpu_us_per_resp", "us"),
    ("net.tcp.wakes_per_resp", "count"),
    ("net.outside_p50_us", "us"),
    ("sws.wake_ns_p50", "ns"),
    ("sws.server_p50_us", "us"),
    ("sws.server_p99_us", "us"),
    ("sws.polls_per_resp", "count"),
    ("sws.poll_gap_p50_us", "us"),
    ("sws.events_per_resp", "count"),
    ("sfs.busy_us_per_read", "us"),
    ("core.threaded.busy_frac", "frac"),
    ("core.threaded.worker_cpu_us_per_resp", "us"),
    ("core.threaded.worker_sys_frac", "frac"),
    ("core.threaded.spin_frac", "frac"),
    ("core.threaded.lock_wait_frac", "frac"),
    ("core.threaded.inbox_batch_avg", "count"),
    ("core.steal.success_frac", "frac"),
    ("core.steal.attempts_per_resp", "count"),
    ("core.sim.idle_frac", "frac"),
    ("core.sim.lock_time_frac", "frac"),
    ("core.sim.steal_cycles_avg", "cycles"),
    ("trace.overhead.rps", "1/s"),
    ("trace.overhead.p50_us", "us"),
    ("trace.overhead.p99_us", "us"),
    ("trace.overhead.cpu_us_per_resp", "us"),
];

/// Set-ups timed in one burst.
const SETUP_BURST: usize = 21;
/// Bursts a run times at least, topping up at its end.
const MIN_BURSTS: usize = 8;
/// The quantile of the set-up times `setup_s` reports.
const SETUP_QUANTILE: f64 = 0.02;

/// Set-up wall times gathered in bursts spread over a run.
///
/// A set-up is a few hundred microseconds of allocation and
/// single-threaded work, and its speed swings with the host: on a
/// shared 2-vCPU machine an `sfs_threaded` set-up takes ~0.19 ms or
/// ~0.28 ms, switching within a burst and from second to second, and
/// the share of slow ones changes from run to run and over minutes. A
/// median follows that share (two ten-run sets on the same code
/// differed by 27%), so `setup_s` is the low quantile
/// [`SETUP_QUANTILE`] of every set-up in the run. Bursts follow every
/// unit of work (batch, simulation, server), and a run with few units
/// tops up at its end with bursts spaced as if they had followed units
/// spread over the run, so that every run samples the host for seconds.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times [`SETUP_BURST`] calls of `setup`; each result is dropped,
    /// untimed, before the next call.
    pub fn burst<T>(&mut self, mut setup: impl FnMut() -> T) {
        for _ in 0..SETUP_BURST {
            let t0 = Instant::now();
            let ready = setup();
            self.0.push(t0.elapsed().as_secs_f64());
            drop(ready);
        }
    }

    /// Tops up to [`MIN_BURSTS`] bursts, spaced as if they followed
    /// units spread over the `seconds` the run measured, and returns
    /// `setup_s`, in seconds.
    pub fn finish<T>(mut self, seconds: u64, mut setup: impl FnMut() -> T) -> f64 {
        let gap = Duration::from_secs(seconds) / MIN_BURSTS as u32;
        while self.0.len() < MIN_BURSTS * SETUP_BURST {
            std::thread::sleep(gap);
            self.burst(&mut setup);
        }
        stats::percentile(&mut self.0, SETUP_QUANTILE)
    }
}

/// Facts about the host every workload converts with.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Measured TSC frequency: the rate of `cycles::now()`.
    pub tsc_hz: f64,
}

impl Host {
    /// Threaded-executor cycles to microseconds.
    pub fn us(&self, cycles: f64) -> f64 {
        cycles * 1e6 / self.tsc_hz
    }
}

/// Times the cycle counter against `Instant` (median of five 20 ms
/// windows).
fn calibrate_tsc() -> f64 {
    let mut est: Vec<f64> = (0..5)
        .map(|_| {
            let (t0, c0) = (Instant::now(), cycles::now());
            std::thread::sleep(Duration::from_millis(20));
            let (c1, dt) = (cycles::now(), t0.elapsed());
            c1.wrapping_sub(c0) as f64 / dt.as_secs_f64()
        })
        .collect();
    stats::percentile(&mut est, 0.5)
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let args = Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks: description and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Metrics by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Figures printed for the reader only: `(name, value, unit)`.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Repeated units finished, and the resident memory the units after
    /// the first left behind.
    units: usize,
    retained_mb: f64,
}

impl Outcome {
    /// Records memory after one of the repeated set-up-and-run units
    /// (batches, simulations), given the resident memory before it.
    /// `rss_mb` is the peak after the first unit, so it does not grow
    /// with how many units fit in the run; each later unit adds what it
    /// left resident. Set-up bursts between units are not counted.
    pub fn unit_memory(&mut self, rss_before_mb: f64) {
        if self.units == 0 {
            self.set("rss_mb", procfs::status_mb("VmHWM"));
        } else {
            self.retained_mb += procfs::status_mb("VmRSS") - rss_before_mb;
        }
        self.units += 1;
    }

    /// Records the resident memory each unit after the first left
    /// behind (not for the TCP workloads, whose traced runs keep spans
    /// in memory).
    pub fn retained_memory(&mut self) {
        if self.units > 1 {
            let per_unit = self.retained_mb / (self.units - 1) as f64;
            self.set("mem.retained_mb_per_rerun", per_unit);
        }
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }
}

/// `core.threaded.*` and `core.steal.*` from a threaded run's report,
/// with the workers' CPU (`workers`, over `secs` of wall time) from
/// `/proc`, per `done` responses.
pub fn threaded_layers(out: &mut Outcome, report: &RunReport, workers: Cpu, secs: f64, done: u64) {
    let t = report.total();
    let core_cycles = report.wall_cycles() as f64 * report.cores() as f64;
    let busy_frac = t.busy_cycles as f64 / core_cycles;
    let cpu_frac = workers.total() / (secs * report.cores() as f64);
    out.set("core.threaded.busy_frac", busy_frac);
    out.set(
        "core.threaded.worker_cpu_us_per_resp",
        workers.total() * 1e6 / done.max(1) as f64,
    );
    out.set(
        "core.threaded.worker_sys_frac",
        workers.sys / workers.total(),
    );
    out.set("core.threaded.spin_frac", (cpu_frac - busy_frac) / cpu_frac);
    out.set(
        "core.threaded.lock_wait_frac",
        t.lock_wait_cycles as f64 / core_cycles,
    );
    out.set(
        "core.threaded.inbox_batch_avg",
        report.avg_inbox_drain_batch().unwrap_or(0.0),
    );
    out.set(
        "core.steal.success_frac",
        t.steals as f64 / t.steal_attempts.max(1) as f64,
    );
    out.set(
        "core.steal.attempts_per_resp",
        t.steal_attempts as f64 / done.max(1) as f64,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = Host {
        tsc_hz: calibrate_tsc(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} host.tsc_hz={:.0} kernel={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        host.tsc_hz,
        procfs::kernel_release()
    );
    let host_before = procfs::HostTicks::take();
    let mut out = match args.workload.as_str() {
        "tcp_light" => tcp::run(&host, &args, tcp::Load::Light),
        "tcp_peak" => tcp::run(&host, &args, tcp::Load::Peak),
        "sfs_threaded" => sfs::run(&host, &args),
        "sim_fig7" => sim::run(&host, &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (tcp_light, tcp_peak, sfs_threaded, sim_fig7)");
            std::process::exit(2);
        }
    };
    // Time the hypervisor gave this machine's CPUs to someone else: a
    // run with a high figure measured a contended host.
    let steal_frac = procfs::HostTicks::take().steal_frac_since(&host_before);
    out.note("host.steal_frac", steal_frac, "frac");
    if !out.metrics.contains_key("rss_mb") {
        out.set("rss_mb", procfs::status_mb("VmHWM"));
    }
    out.set("host.tsc_hz", host.tsc_hz);

    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} frac ({} of {})",
        out.failed, out.attempted
    );
    for (name, value, unit) in &out.notes {
        println!("{name} = {value} {unit}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    // Figures measured anyway that belong to the other set.
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(v) = out
            .metrics
            .get(name)
            .filter(|_| !wanted.contains(&(name, unit)))
        {
            println!("{name} = {v} {unit}");
        }
    }
    let mut correct = out.attempted > 0 && out.checks.iter().all(|c| c.1);
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        // A layer this workload bypasses did no work: 0. Every workload
        // measures every end-to-end metric.
        let value = match out.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            None if args.trace => 0.0,
            _ => {
                println!("check FAIL: {name} was not measured as a finite number");
                correct = false;
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        // `{:?}` prints the shortest representation that round-trips.
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
