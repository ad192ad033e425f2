//! `tcp_light` and `tcp_peak`: SWS behind the loopback `TcpGateway`, on
//! a 2-worker threaded runtime, configured as `examples/serve.rs`
//! serves, and loaded by one generator thread over two keep-alive
//! connections.
//!
//! - `tcp_light` is an open loop: each connection sends pipelined GETs
//!   on a fixed schedule, and each request is timed from when it was
//!   due, so a stall counts against every request it delays.
//! - `tcp_peak` is a closed loop: each connection keeps a fixed number
//!   of requests in flight, deep enough that throughput stops rising.
//!
//! Timing starts after a one-second warm-up; the measured window is cut
//! into one-second sub-windows and each end-to-end figure is the median
//! over them. `tcp_peak` spreads its window over five fresh servers (see
//! `run`). In a traced run, odd sub-windows are traced and even ones
//! are not, so the tracing overhead is measured inside the same run.

use std::collections::VecDeque;
use std::ffi::c_void;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use mely_repro::core::prelude::*;
use mely_repro::net::tcp::{TcpDriver, TcpGateway, TcpGatewayConfig};
use mely_repro::net::{NetConfig, SimNet};
use mely_repro::sws::{SwsConfig, SwsService};

use crate::procfs::{self, Class, Cpu, CpuDelta, CpuSample, HostTicks, GENERATOR_COMM};
use crate::stats::{hist_quantile, least_contended, median, percentile, Rng};
use crate::trace::{ServerTrace, TracedDriver};
use crate::{wire, Args, Host, Outcome, SetupTimes};

/// Which loop the generator runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop at `LIGHT_RATE_PER_CONN` requests/s per connection.
    Light,
    /// Closed loop with `PEAK_DEPTH` requests in flight per connection.
    Peak,
}

const CONNS: usize = 2;
const LIGHT_RATE_PER_CONN: f64 = 1_000.0;
const PEAK_DEPTH: usize = 64;
const WARMUP_US: f64 = 1e6;
const SUB_US: f64 = 1e6;
/// How long, after sending stops, outstanding responses may take.
const DRAIN_US: f64 = 10e6;
/// A window is quiet when the hypervisor took at most this share of the
/// machine's CPU time during it (one clock tick per second on two CPUs).
/// Windows that are not quiet measure the host's neighbours as much as
/// the program: a server keeps adding windows, up to `EXTEND` times the
/// planned number, until it has as many quiet windows as it planned, and
/// the figures come from the least contended of them.
const QUIET_STEAL: f64 = 0.005;
const EXTEND: usize = 2;

pub fn run(host: &Host, args: &Args, load: Load) -> Outcome {
    let mut out = Outcome::default();
    // At peak, some servers get stuck at half throughput: one worker does
    // the work while every steal by the other fails (see README.md). A
    // run measures several servers, so one stuck server moves the median
    // little. At light load one worker suffices, and one long-lived
    // server is steadier.
    let servers = match load {
        Load::Light => 1,
        Load::Peak => 5,
    };
    let instances = (args.seconds as usize).clamp(1, servers);
    let mut rng = Rng::new(args.seed);
    let mut windows = Vec::new();
    let mut planned = [0usize; 2];
    let mut per_instance: Vec<Outcome> = Vec::new();
    let mut spans = Vec::new();
    // Set-ups are timed after every server, so the memory figures cover
    // serving only.
    let mut setups = SetupTimes::default();
    let setup = || start(&Arc::new(ServerTrace::default()));
    for i in 0..instances {
        let plan = Plan {
            load,
            seed: rng.next_u64(),
            subs: (args.seconds as usize / instances).max(1),
            traced: args.trace,
        };
        let Some(mut inst) = serve(&plan, &mut out) else {
            return out;
        };
        setups.burst(setup);
        let rates: Vec<String> = inst
            .client
            .windows
            .iter()
            .map(|w| {
                let p99 = percentile(&mut w.lat_us.clone(), 0.99);
                format!("{:.0}/{p99:.0}/{:.3}", w.done as f64 / w.secs, w.steal_frac)
            })
            .collect();
        println!(
            "server {i}: rps/p99_us/host steal per sub-window {}",
            rates.join(" ")
        );
        if i == 0 {
            out.set("rss_mb", inst.client.rss_mb);
        }
        if args.trace {
            let mut layer = Outcome::default();
            layers(&mut layer, host, &inst);
            per_instance.push(layer);
            spans.append(&mut inst.client.spans);
        }
        windows.append(&mut inst.client.windows);
        planned[0] += inst.client.planned[0];
        planned[1] += inst.client.planned[1];
    }
    out.check(
        format!("{instances} servers: every request answered, verified and accounted"),
        out.checks.is_empty(),
    );
    if !out.checks.iter().all(|c| c.1) {
        return out;
    }

    out.set("setup_s", setups.finish(args.seconds, setup));

    // End-to-end: medians over the planned number of untraced
    // sub-windows, the least contended of all servers' windows.
    let pick = |traced: bool| -> Vec<&Window> {
        let ws = windows.iter().filter(|w| w.traced == traced).collect();
        least_contended(ws, planned[usize::from(traced)], |w| w.steal_frac)
    };
    let untraced = summarize(&pick(false));
    out.set("rps", untraced.rps);
    out.set("p50_us", untraced.p50_us);
    out.set("p99_us", untraced.p99_us);
    out.set("cpu_us_per_resp", untraced.cpu_us_per_resp);
    out.note(
        "client.responses_in_window",
        untraced.responses as f64,
        "count",
    );

    if args.trace {
        // Per-layer figures: the median over servers.
        for &(name, _) in crate::PER_LAYER {
            let vals: Vec<f64> = per_instance
                .iter()
                .filter_map(|o| o.metrics.get(name).copied())
                .collect();
            if !vals.is_empty() {
                out.set(name, median(&vals));
            }
        }
        let traced = summarize(&pick(true));
        out.set("trace.overhead.rps", traced.rps - untraced.rps);
        out.set("trace.overhead.p50_us", traced.p50_us - untraced.p50_us);
        out.set("trace.overhead.p99_us", traced.p99_us - untraced.p99_us);
        out.set(
            "trace.overhead.cpu_us_per_resp",
            traced.cpu_us_per_resp - untraced.cpu_us_per_resp,
        );
        write_spans(args, &spans);
    }
    out
}

/// Builds the runtime, installs SWS, binds the gateway and attaches the
/// waker: from nothing to ready to serve. The driver and the waker are
/// wrapped by `trace`, which records only while switched on.
fn start(trace: &Arc<ServerTrace>) -> Server {
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
    // As `examples/serve.rs`: ~1 ms fallback polls, ~100 µs minimum gap,
    // the gateway's waker providing promptness in between.
    let cfg = SwsConfig {
        max_clients: CONNS + 64,
        poll_interval: 2_330_000,
        min_poll: 233_000,
        ..SwsConfig::default()
    };
    let gateway = TcpGateway::bind(
        "127.0.0.1:0",
        Arc::clone(&net),
        TcpGatewayConfig {
            sim_port: cfg.port,
            max_conns: CONNS + 64,
            poll_timeout_ms: 1,
        },
    )
    .expect("bind loopback gateway");
    let driver = TracedDriver::new(gateway.driver(), Arc::clone(trace));
    let sws = rt.install(SwsService::new(net, Arc::new(Mutex::new(driver)), cfg));
    let waker = sws.waker(rt.injector());
    gateway.set_waker(trace.wrap_wake(move || waker.wake()));
    Server { rt, gateway, sws }
}

struct Server {
    rt: Runtime,
    gateway: TcpGateway,
    sws: SwsService<TracedDriver<TcpDriver>>,
}

/// What one server run left behind.
struct Served {
    client: ClientResult,
    report: RunReport,
    trace: Arc<ServerTrace>,
}

/// Sets up one server, loads it as `plan` says, and checks that every
/// request sent was answered, framed, a 200 with the requested file's
/// bytes, and accounted by the server. Failed checks go to `out`.
fn serve(plan: &Plan, out: &mut Outcome) -> Option<Served> {
    let trace = Arc::new(ServerTrace::default());
    let Server {
        mut rt,
        gateway,
        sws,
    } = start(&trace);
    let addr = gateway.local_addr();
    let keepalive = rt.injector().keepalive();
    let stopper = rt.injector();
    let (gen_plan, gen_trace) = (plan.clone(), Arc::clone(&trace));
    let generator = std::thread::Builder::new()
        .name(GENERATOR_COMM.into())
        .spawn(move || {
            let client = generate(addr, &gen_plan, &gen_trace);
            let gw = gateway.shutdown();
            stopper.stop_when_idle();
            drop(keepalive);
            (client, gw)
        })
        .expect("spawn generator");
    let report = rt.run();
    let Ok((client, gw)) = generator.join() else {
        out.check("generator thread finished", false);
        return None;
    };
    let server = sws.stats();
    out.attempted += client.sent;
    out.failed += client.sent.saturating_sub(client.verified);
    let mut fail = |what: String| out.check(what, false);
    for e in &client.errors {
        fail(format!("client: {e}"));
    }
    if client.verified != client.sent {
        fail(format!(
            "client-verified {} != sent {}",
            client.verified, client.sent
        ));
    }
    if report.completed_requests() != client.verified {
        fail(format!(
            "server completed_requests {} != client-verified {}",
            report.completed_requests(),
            client.verified
        ));
    }
    if server.ok != server.responses || server.responses != client.verified {
        fail(format!(
            "server 200s {} / responses {} / client-verified {} differ",
            server.ok, server.responses, client.verified
        ));
    }
    let lost = report.failed_requests() + report.shed_requests() + gw.resets + gw.accept_sheds;
    if lost != 0 {
        fail(format!(
            "{} failed, {} shed, {} resets, {} accept sheds",
            report.failed_requests(),
            report.shed_requests(),
            gw.resets,
            gw.accept_sheds
        ));
    }
    if client.windows.iter().any(|w| w.done == 0) {
        fail("a sub-window framed no response".into());
    }
    Some(Served {
        client,
        report,
        trace,
    })
}

/// Medians of one set of sub-windows.
#[derive(Debug, Clone, Copy, Default)]
struct Summary {
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_resp: f64,
    responses: u64,
}

fn summarize(ws: &[&Window]) -> Summary {
    let per = |f: &dyn Fn(&Window) -> f64| median(&ws.iter().map(|w| f(w)).collect::<Vec<_>>());
    Summary {
        rps: per(&|w| w.done as f64 / w.secs),
        p50_us: per(&|w| percentile(&mut w.lat_us.clone(), 0.50)),
        p99_us: per(&|w| percentile(&mut w.lat_us.clone(), 0.99)),
        cpu_us_per_resp: per(&|w| w.cpu.server().total() * 1e6 / w.done as f64),
        responses: ws.iter().map(|w| w.done).sum(),
    }
}

/// Per-layer figures of one traced server run.
fn layers(out: &mut Outcome, host: &Host, served: &Served) {
    let Served {
        client,
        report,
        trace,
    } = served;
    let traced_done = client
        .windows
        .iter()
        .filter(|w| w.traced)
        .map(|w| w.done)
        .sum::<u64>()
        .max(1) as f64;
    // Client spans (traced sub-windows only).
    let col = |f: fn(&Span) -> f64| -> Vec<f64> { client.spans.iter().map(f).collect() };
    let mut send = col(|s| s.written - s.due);
    let mut wait = col(|s| s.first - s.written);
    let mut read = col(|s| s.done - s.first);
    let mut total = col(|s| s.done - s.due);
    out.set("loadgen.send_late_p99_us", percentile(&mut send, 0.99));
    out.set("client.send_p50_us", percentile(&mut send, 0.50));
    out.set("client.wait_p50_us", percentile(&mut wait, 0.50));
    out.set("client.read_p50_us", percentile(&mut read, 0.50));

    // CPU per thread class over every sub-window.
    let mut cpu = CpuDelta::default();
    for w in &client.windows {
        cpu.add(&w.cpu);
    }
    let done: u64 = client.windows.iter().map(|w| w.done).sum();
    let per_resp = |c: Cpu| c.total() * 1e6 / done.max(1) as f64;
    out.set(
        "loadgen.cpu_us_per_resp",
        per_resp(cpu.of(Class::Generator)),
    );
    out.set("net.tcp.cpu_us_per_resp", per_resp(cpu.of(Class::Poller)));
    out.set(
        "net.tcp.wakes_per_resp",
        trace.wakes.load(Ordering::Relaxed) as f64 / traced_done,
    );
    let mut wake_ns: Vec<f64> = trace
        .wake_cycles
        .lock()
        .iter()
        .map(|&c| host.us(c as f64) * 1e3)
        .collect();
    out.set("sws.wake_ns_p50", percentile(&mut wake_ns, 0.5));

    let server_p50 = host.us(hist_quantile(&report.latency_histogram(), 0.50));
    out.set("sws.server_p50_us", server_p50);
    out.set(
        "sws.server_p99_us",
        host.us(hist_quantile(&report.latency_histogram(), 0.99)),
    );
    out.set(
        "net.outside_p50_us",
        percentile(&mut total, 0.5) - server_p50,
    );
    out.set(
        "sws.polls_per_resp",
        trace.polls.load(Ordering::Relaxed) as f64 / traced_done,
    );
    let mut gaps: Vec<f64> = trace
        .poll_gaps
        .lock()
        .iter()
        .map(|&c| host.us(c as f64))
        .collect();
    out.set("sws.poll_gap_p50_us", percentile(&mut gaps, 0.5));
    out.set(
        "sws.events_per_resp",
        report.events_processed() as f64 / report.completed_requests().max(1) as f64,
    );

    let workers = cpu.of(Class::Workers);
    let secs = client.windows.iter().map(|w| w.secs).sum();
    crate::threaded_layers(out, report, workers, secs, done);
}

/// Writes the traced run's client spans (in memory until now) as CSV
/// under the build directory (`$CARGO_TARGET_DIR`, else `.bench_build`),
/// one file per workload.
fn write_spans(args: &Args, spans: &[Span]) {
    let build = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::path::Path::new(&build).join("perfbench-spans");
    let mut csv = String::from("conn,id,due_us,written_us,first_byte_us,framed_us\n");
    for s in spans {
        let _ = writeln!(
            csv,
            "{},{},{:.3},{:.3},{:.3},{:.3}",
            s.conn, s.id, s.due, s.written, s.first, s.done
        );
    }
    let path = dir.join(format!("{}.csv", args.workload));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

// ---------------------------------------------------------------------
// The load generator.

#[derive(Debug, Clone)]
struct Plan {
    load: Load,
    seed: u64,
    subs: usize,
    traced: bool,
}

/// One sub-window's client-side results: it runs from one CPU sample
/// to the next, and holds the responses framed in between.
#[derive(Debug, Default)]
struct Window {
    traced: bool,
    secs: f64,
    done: u64,
    lat_us: Vec<f64>,
    cpu: CpuDelta,
    /// Share of the machine's CPU time the hypervisor took.
    steal_frac: f64,
}

/// Client spans of one request, in µs since the generator started:
/// `client.send` is due → written, `client.wait` written → first
/// response byte, `client.read` first byte → framed.
#[derive(Debug, Clone, Copy)]
struct Span {
    conn: usize,
    id: u64,
    due: f64,
    written: f64,
    first: f64,
    done: f64,
}

#[derive(Debug, Default)]
struct ClientResult {
    /// Windows the plan asked for, untraced and traced; `windows` may
    /// hold more (see `QUIET_STEAL`).
    planned: [usize; 2],
    /// Peak resident memory when the first window opened: the server
    /// warmed up, before the generator stores any latency sample.
    rss_mb: f64,
    sent: u64,
    verified: u64,
    errors: Vec<String>,
    windows: Vec<Window>,
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Req {
    id: u64,
    file: usize,
    due: f64,
    /// Stream offset just past this request's last byte.
    end: u64,
    written: f64,
}

struct Conn {
    stream: TcpStream,
    rng: Rng,
    out: Vec<u8>,
    appended: u64,
    flushed: u64,
    inbuf: Vec<u8>,
    inflight: VecDeque<Req>,
    unwritten: usize,
    next_due: f64,
    /// Arrival time of the first byte of the response being framed.
    first: Option<f64>,
}

impl Conn {
    fn push(&mut self, id: u64, due: f64) {
        let file = self.rng.range(0, wire::FILES as u64 - 1) as usize;
        let req = wire::request(file);
        self.appended += req.len() as u64;
        self.out.extend_from_slice(&req);
        self.inflight.push_back(Req {
            id,
            file,
            due,
            end: self.appended,
            written: 0.0,
        });
        self.unwritten += 1;
    }

    /// Writes what the socket takes; stamps requests fully written.
    fn flush(&mut self, now: impl Fn() -> f64) -> Result<(), String> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err("connection closed on write".into()),
                Ok(n) => {
                    self.out.drain(..n);
                    self.flushed += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        let t = now();
        let len = self.inflight.len();
        while self.unwritten > 0 {
            let r = &mut self.inflight[len - self.unwritten];
            if r.end > self.flushed {
                break;
            }
            r.written = t;
            self.unwritten -= 1;
        }
        Ok(())
    }

    /// Reads what arrived and frames every complete response.
    fn read(
        &mut self,
        now: impl Fn() -> f64,
        done: &mut Vec<(Req, f64, f64)>,
    ) -> Result<(), String> {
        let mut chunk = [0u8; 64 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    let t = now();
                    if self.first.is_none() {
                        self.first = Some(t);
                    }
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    let mut at = 0;
                    while let Some(len) = wire::frame(&self.inbuf[at..])? {
                        let req = self
                            .inflight
                            .pop_front()
                            .ok_or("response without a request")?;
                        wire::verify(&self.inbuf[at..at + len], req.file)?;
                        at += len;
                        let first = self.first.take().unwrap_or(t);
                        if at < self.inbuf.len() {
                            self.first = Some(t);
                        }
                        done.push((req, first, t));
                    }
                    self.inbuf.drain(..at);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Waits until a socket is ready or `timeout_us` passes.
fn wait(conns: &[Conn], timeout_us: f64) -> Vec<PollFd> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let ns = (timeout_us.max(0.0) * 1e3) as i64;
    let ts = Timespec {
        tv_sec: ns / 1_000_000_000,
        tv_nsec: ns % 1_000_000_000,
    };
    // SAFETY: `fds` is a live array of `fds.len()` pollfd structs and
    // `ts` a valid timespec; a null sigmask leaves the mask unchanged.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    fds
}

fn generate(addr: SocketAddr, plan: &Plan, trace: &ServerTrace) -> ClientResult {
    let mut res = ClientResult::default();
    // Sleep to the scheduled send time, not 50 µs past it.
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    let start = Instant::now();
    let now = || start.elapsed().as_secs_f64() * 1e6;
    let period = 1e6 / LIGHT_RATE_PER_CONN;
    let mut rng = Rng::new(plan.seed);
    let mut conns = Vec::new();
    for c in 0..CONNS {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                res.errors.push(format!("connect: {e}"));
                return res;
            }
        };
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_nonblocking(true).expect("non-blocking socket");
        conns.push(Conn {
            stream,
            rng: Rng::new(rng.next_u64()),
            out: Vec::new(),
            appended: 0,
            flushed: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
            unwritten: 0,
            // Seeded phase, so the two schedules interleave differently.
            next_due: period * (c as f64 + rng.range(0, 999) as f64 / 1e3) / CONNS as f64,
            first: None,
        });
    }

    let is_traced = |k: usize| plan.traced && k % 2 == 1;
    let planned = |traced: bool| (0..plan.subs).filter(|&k| is_traced(k) == traced).count();
    res.planned = [planned(false), planned(true)];
    // Quiet windows so far, untraced and traced.
    let mut quiet = [0usize; 2];
    let mut samples: Vec<(f64, CpuSample, HostTicks)> = Vec::new();
    let mut next_sample = WARMUP_US;
    // Load flows while a window is open or the warm-up runs.
    let mut measuring = true;
    let mut stopped_at = f64::INFINITY;
    let mut next_id = 0u64;
    let mut done = Vec::new();
    loop {
        let t = now();
        while measuring && t >= next_sample {
            let sample = (t, CpuSample::take(), HostTicks::take());
            if let Some(prev) = samples.last() {
                let closed = samples.len() - 1;
                if sample.2.steal_frac_since(&prev.2) <= QUIET_STEAL {
                    quiet[usize::from(is_traced(closed))] += 1;
                }
            }
            samples.push(sample);
            if samples.len() == 1 {
                res.rss_mb = procfs::status_mb("VmHWM");
            }
            // Run the planned windows, then more (up to EXTEND times as
            // many) while too few of either kind were quiet.
            let k = samples.len() - 1;
            let enough = quiet[0] >= res.planned[0] && quiet[1] >= res.planned[1];
            measuring = k < plan.subs || (k < plan.subs * EXTEND && !enough);
            if measuring {
                res.windows.push(Window {
                    traced: is_traced(k),
                    ..Window::default()
                });
            } else {
                stopped_at = t;
            }
            trace.on.store(measuring && is_traced(k), Ordering::Relaxed);
            next_sample += SUB_US;
        }
        let sending = measuring && res.errors.is_empty();
        if sending {
            for c in &mut conns {
                match plan.load {
                    Load::Light => {
                        while c.next_due <= t {
                            let due = c.next_due;
                            c.push(next_id, due);
                            next_id += 1;
                            c.next_due += period;
                        }
                    }
                    Load::Peak => {
                        while c.inflight.len() < PEAK_DEPTH {
                            c.push(next_id, t);
                            next_id += 1;
                        }
                    }
                }
            }
        }
        for c in &mut conns {
            if let Err(e) = c.flush(now) {
                res.errors.push(e);
            }
        }
        let idle = conns.iter().all(|c| c.inflight.is_empty());
        if !res.errors.is_empty() || (!measuring && idle) {
            break;
        }
        if t > stopped_at + DRAIN_US {
            res.errors.push(format!(
                "{} responses still missing {} s after sending stopped",
                conns.iter().map(|c| c.inflight.len()).sum::<usize>(),
                DRAIN_US / 1e6
            ));
            break;
        }

        let mut until = if measuring { next_sample } else { t + 1e3 };
        if sending && plan.load == Load::Light {
            until = conns.iter().map(|c| c.next_due).fold(until, f64::min);
        }
        let fds = wait(&conns, until - t);
        for (i, (c, fd)) in conns.iter_mut().zip(&fds).enumerate() {
            if fd.revents == 0 {
                continue;
            }
            if let Err(e) = c.read(now, &mut done) {
                res.errors.push(e);
            }
            // Responses framed after sample k and before sample k + 1
            // (taken at the top of a later pass) belong to window k.
            let window = samples
                .len()
                .checked_sub(1)
                .filter(|&k| k < res.windows.len());
            for (req, first, framed) in done.drain(..) {
                res.verified += 1;
                let Some(k) = window else { continue };
                let w = &mut res.windows[k];
                w.done += 1;
                w.lat_us.push(framed - req.due);
                if w.traced {
                    res.spans.push(Span {
                        conn: i,
                        id: req.id,
                        due: req.due,
                        written: req.written,
                        first,
                        done: framed,
                    });
                }
            }
        }
    }
    trace.on.store(false, Ordering::Relaxed);
    res.sent = next_id;
    for (w, pair) in res.windows.iter_mut().zip(samples.windows(2)) {
        w.secs = (pair[1].0 - pair[0].0) / 1e6;
        w.cpu = pair[1].1.since(&pair[0].1, Class::Other);
        w.steal_frac = pair[1].2.steal_frac_since(&pair[0].2);
    }
    res
}
