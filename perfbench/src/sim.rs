//! `sim_fig7`: SWS on the simulated 8-core Xeon (`ExecKind::Sim`) with
//! 400 closed-loop virtual clients, a point on Figure 7's plateau.
//!
//! The seed draws the virtual-client mix — 40 groups of 10 clients, each
//! group with its own requests-per-connection (100..=200, the paper's 150
//! on average) and start spread — and every client's file choices. One
//! run repeats the same seeded simulation for as long as the run lasts;
//! the virtual results must agree bit for bit between repetitions, and
//! the wall-clock figures are medians over them. The end-to-end figures
//! are in virtual time: `rps`, `p50_us` and `p99_us` as the simulated
//! clients observe them (Figure 7's axis), `cpu_us_per_resp` as the
//! simulated machine spends it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use mely_repro::core::prelude::*;
use mely_repro::loadgen::{ClientProtocol, ClosedLoopLoad, LoadConfig};
use mely_repro::net::driver::Driver;
use mely_repro::net::{NetConfig, SimNet};
use mely_repro::sws::{SwsConfig, SwsService};

use crate::procfs::{self, thread_cpu_s};
use crate::stats::{hist_quantile, median, percentile, Rng};
use crate::trace::{ServerTrace, TracedDriver};
use crate::{wire, Args, Host, Outcome, SetupTimes};

const GROUPS: usize = 40;
const CLIENTS_PER_GROUP: usize = 10;
/// Injection window in virtual cycles (~258 ms at 2.33 GHz): long
/// enough for every client to close and reopen its connection.
const DURATION: u64 = 600_000_000;
/// Repetitions run however short `--seconds` is.
const MIN_REPS: usize = 3;

/// HTTP clients whose file choices come from the seed, and which check
/// every response against the requested file and time it in virtual
/// cycles.
struct SeededHttp {
    rng: Rng,
    clock: Arc<AtomicU64>,
    /// Per client: the file requested and the virtual send time.
    pending: Vec<Option<(usize, u64)>>,
    sent: u64,
    verified: u64,
    latencies: Vec<u64>,
    errors: Vec<String>,
}

impl ClientProtocol for SeededHttp {
    fn request(&mut self, client: usize, _seq: u64) -> Vec<u8> {
        let file = self.rng.range(0, wire::FILES as u64 - 1) as usize;
        self.pending[client] = Some((file, self.clock.load(Ordering::Relaxed)));
        self.sent += 1;
        wire::request(file)
    }

    fn response_len(&self, buf: &[u8]) -> Option<usize> {
        // A malformed head is handed over whole, to fail verification.
        wire::frame(buf).unwrap_or(Some(buf.len()))
    }

    fn on_response(&mut self, client: usize, response: &[u8]) {
        let Some((file, sent_at)) = self.pending[client].take() else {
            self.errors
                .push(format!("client {client}: response without a request"));
            return;
        };
        let framed = wire::frame(response).and_then(|n| match n {
            Some(n) if n == response.len() => Ok(()),
            _ => Err("response is not exactly one framed message".to_string()),
        });
        match framed.and_then(|()| wire::verify(response, file)) {
            Ok(()) => {
                self.verified += 1;
                self.latencies
                    .push(self.clock.load(Ordering::Relaxed).saturating_sub(sent_at));
            }
            Err(e) => self.errors.push(e),
        }
    }
}

/// The virtual-client mix: several closed-loop groups on one network.
struct Mix {
    groups: Vec<ClosedLoopLoad<SeededHttp>>,
    clock: Arc<AtomicU64>,
}

impl Mix {
    fn new(seed: u64, port: u16) -> Mix {
        let clock = Arc::new(AtomicU64::new(0));
        let mut rng = Rng::new(seed);
        let groups = (0..GROUPS)
            .map(|_| {
                let proto = SeededHttp {
                    rng: Rng::new(rng.next_u64()),
                    clock: Arc::clone(&clock),
                    pending: vec![None; CLIENTS_PER_GROUP],
                    sent: 0,
                    verified: 0,
                    latencies: Vec::new(),
                    errors: Vec::new(),
                };
                ClosedLoopLoad::new(
                    proto,
                    LoadConfig {
                        clients: CLIENTS_PER_GROUP,
                        ports: vec![port],
                        requests_per_conn: rng.range(100, 200),
                        duration: DURATION,
                        start_spread: rng.range(50_000, 150_000),
                        ..LoadConfig::default()
                    },
                )
            })
            .collect();
        Mix { groups, clock }
    }

    fn protocols(&self) -> impl Iterator<Item = &SeededHttp> {
        self.groups.iter().map(|g| g.protocol())
    }
}

impl Driver for Mix {
    fn advance(&mut self, net: &mut SimNet, now: u64) -> bool {
        self.clock.store(now, Ordering::Relaxed);
        let mut done = true;
        for g in &mut self.groups {
            done &= g.advance(net, now);
        }
        done
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        self.groups.iter().filter_map(|g| g.next_due(now)).min()
    }
}

/// One simulation.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    sent: u64,
    verified: u64,
    cut_off: u64,
    latencies: Vec<u64>,
    report: RunReport,
    /// Virtual cycles per virtual second.
    freq_hz: f64,
}

type Server = SwsService<TracedDriver<Mix>>;

/// From nothing to a simulated machine with SWS installed and the
/// seeded clients attached.
fn setup(seed: u64, trace: &Arc<ServerTrace>) -> (Runtime, Arc<Mutex<TracedDriver<Mix>>>, Server) {
    let mut rt = RuntimeBuilder::new()
        .cores(8)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Sim);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
    let cfg = SwsConfig::default();
    let mix = Mix::new(seed, cfg.port);
    let driver = Arc::new(Mutex::new(TracedDriver::new(mix, Arc::clone(trace))));
    let server = rt.install(SwsService::new(net, Arc::clone(&driver), cfg));
    (rt, driver, server)
}

fn rep(out: &mut Outcome, seed: u64, trace: &Arc<ServerTrace>) -> Rep {
    let (mut rt, driver, server) = setup(seed, trace);
    // The simulation runs on this thread.
    let (cpu0, t1) = (thread_cpu_s(), Instant::now());
    let report = rt.run();
    let wall_s = t1.elapsed().as_secs_f64();
    let cpu_s = thread_cpu_s() - cpu0;

    let d = driver.lock();
    let (mut sent, mut verified, mut latencies) = (0, 0, Vec::new());
    for p in d.inner.protocols() {
        sent += p.sent;
        verified += p.verified;
        latencies.extend_from_slice(&p.latencies);
        for e in p.errors.iter().take(3) {
            out.check(format!("client: {e}"), false);
        }
    }
    let cut_off = d
        .inner
        .protocols()
        .map(|p| p.pending.iter().filter(|x| x.is_some()).count() as u64)
        .sum();
    let sws = server.stats();
    // Server accounting: it completed every verified request, took no
    // more than was sent, and answered every request with a 200.
    let completed = report.completed_requests();
    let ok = verified <= completed
        && completed + report.failed_requests() + report.shed_requests() <= sent
        && sws.ok == sws.responses;
    if !ok && out.checks.is_empty() {
        out.check(
            format!(
                "verified {verified} <= completed {completed} (+ failed {} + shed {}) <= sent {sent}; server 200s {} == responses {}",
                report.failed_requests(),
                report.shed_requests(),
                sws.ok,
                sws.responses
            ),
            false,
        );
    }
    let freq_hz = report.wall_cycles() as f64 / report.wall_secs();
    Rep {
        wall_s,
        cpu_s,
        sent,
        verified,
        cut_off,
        latencies,
        report,
        freq_hz,
    }
}

pub fn run(host: &Host, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let trace = Arc::new(ServerTrace::default());
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut setups = SetupTimes::default();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds as f64 {
        // In a traced run, odd repetitions record at the driver hook.
        let traced = args.trace && reps.len() % 2 == 1;
        trace.on.store(traced, Ordering::Relaxed);
        let rss = procfs::status_mb("VmRSS");
        reps.push((traced, rep(&mut out, args.seed, &trace)));
        out.unit_memory(rss);
        setups.burst(|| setup(args.seed, &trace));
    }
    out.retained_memory();
    trace.on.store(false, Ordering::Relaxed);

    let first = &reps[0].1;
    let same = reps.iter().all(|(_, r)| {
        r.sent == first.sent
            && r.verified == first.verified
            && r.cut_off == first.cut_off
            && r.latencies == first.latencies
            && r.report.fingerprint() == first.report.fingerprint()
    });
    out.check(
        format!("{} repetitions replay the same virtual run", reps.len()),
        same,
    );
    // A request outstanding when its client stopped at the end of the
    // window was never due an answer: it is not counted as attempted.
    out.attempted = first.verified;
    out.failed = first.sent.saturating_sub(first.cut_off + first.verified);
    out.check(
        format!(
            "{} sent: {} verified, {} cut off by the window's end",
            first.sent, first.verified, first.cut_off
        ),
        first.verified + first.cut_off == first.sent,
    );

    let virt_s = DURATION as f64 / first.freq_hz;
    let to_us = |cycles: f64| cycles * 1e6 / first.freq_hz;
    let mut lat: Vec<f64> = first.latencies.iter().map(|&c| to_us(c as f64)).collect();
    let rps = first.verified as f64 / virt_s;
    let (p50, p99) = (percentile(&mut lat, 0.50), percentile(&mut lat, 0.99));
    let per_resp = |r: &Rep| r.cpu_s * 1e6 / r.verified as f64;
    let med = |traced: bool, f: &dyn Fn(&Rep) -> f64| {
        median(
            &reps
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, r)| f(r))
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "setup_s",
        setups.finish(args.seconds, || setup(args.seed, &trace)),
    );
    out.set("rps", rps);
    out.set("p50_us", p50);
    out.set("p99_us", p99);
    // The simulated machine's CPU per response, in virtual time like the
    // other figures. The simulator's own host CPU per response swings
    // ~1.7x within minutes with host cache contention, too much for a
    // bound, so it is reported unbounded (sim.host_cpu_us_per_resp).
    let busy = first.report.total().busy_cycles as f64;
    out.set("cpu_us_per_resp", to_us(busy) / first.verified as f64);
    out.set("sim.host_cpu_us_per_resp", med(false, &per_resp));
    out.note("virt_krps", rps / 1e3, "kreq/s");
    out.note(
        "sim_events_per_s",
        med(false, &|r| r.report.events_processed() as f64 / r.wall_s),
        "1/s",
    );
    out.note("sim.repetitions", reps.len() as f64, "count");

    if args.trace {
        let (_, r) = reps.iter().find(|(t, _)| *t).expect("a traced repetition");
        let report = &r.report;
        let t = report.total();
        let polls =
            trace.polls.load(Ordering::Relaxed) as f64 / reps.iter().filter(|x| x.0).count() as f64;
        out.set("sws.polls_per_resp", polls / r.verified as f64);
        let mut gaps: Vec<f64> = trace
            .poll_gaps
            .lock()
            .iter()
            .map(|&c| to_us(c as f64))
            .collect();
        out.set("sws.poll_gap_p50_us", percentile(&mut gaps, 0.5));
        let driver_s = trace.driver_cycles.load(Ordering::Relaxed) as f64 / host.tsc_hz;
        let traced_wall: f64 = reps.iter().filter(|x| x.0).map(|x| x.1.wall_s).sum();
        out.set("loadgen.sim_driver_frac", driver_s / traced_wall);
        let server_p50 = to_us(hist_quantile(&report.latency_histogram(), 0.50));
        out.set("sws.server_p50_us", server_p50);
        out.set(
            "sws.server_p99_us",
            to_us(hist_quantile(&report.latency_histogram(), 0.99)),
        );
        out.set("net.outside_p50_us", p50 - server_p50);
        out.set(
            "sws.events_per_resp",
            report.events_processed() as f64 / report.completed_requests().max(1) as f64,
        );
        let core_cycles = report.wall_cycles() as f64 * report.cores() as f64;
        out.set("core.sim.idle_frac", t.idle_cycles as f64 / core_cycles);
        out.set("core.sim.lock_time_frac", report.lock_time_fraction());
        out.set(
            "core.sim.steal_cycles_avg",
            report.avg_steal_cycles().unwrap_or(0.0),
        );
        out.set(
            "core.steal.success_frac",
            t.steals as f64 / t.steal_attempts.max(1) as f64,
        );
        out.set(
            "core.steal.attempts_per_resp",
            t.steal_attempts as f64 / r.verified as f64,
        );
    }
    out
}
