//! SWS — the paper's event-driven static web server (Section V-C1).
//!
//! SWS "handles static content, supports a subset of HTTP/1.1, builds
//! responses during start-up, and handles error cases", structured in the
//! nine event handlers of Figure 6:
//!
//! ```text
//! Epoll ──► Accept ──► RegisterFdInEpoll (colored like Epoll)
//!   │          ▲
//!   └► ReadRequest ─► ParseRequest ─► GetFromCache ─► WriteResponse ─► Close
//!                                                          │            │
//!                                                          ▼            ▼
//!                                               (keep-alive loop)  DecAccepted
//! ```
//!
//! Coloring follows the paper exactly: `Epoll` and `RegisterFdInEpoll`
//! share one color, `Accept` and `DecClientAccepted` share another, and
//! the per-request handlers (`ReadRequest`, `ParseRequest`,
//! `GetFromCache`, `WriteResponse`, `Close`) are colored by the
//! connection's descriptor so distinct clients are served concurrently.
//!
//! Two implementations share this module:
//!
//! - [`SwsService`] — the canonical server, written as a typed stage
//!   pipeline (`mely_core::stage`): colors come from the pipeline's
//!   collision-checked allocator, every response closes a request of
//!   the per-request latency pipeline, and
//!   `rt.install(SwsService::new(..))` runs it on either executor;
//! - [`Sws`] — the same nine handlers on the raw [`Event`] API (the
//!   low-level layer), kept because the N-copy comparator needs its
//!   hand-built [`ColorPlane`]s, and as the reference for what the
//!   typed layer abstracts away.
//!
//! Both serve load produced by any [`mely_net::driver::Driver`]
//! (normally `mely_loadgen::ClosedLoopLoad` with [`HttpProtocol`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mely_core::color::{Color, ColorSpace};
use mely_core::event::Event;
use mely_core::exec::{Executor, Injector, Service};
use mely_core::handler::{HandlerId, HandlerSpec};
use mely_core::stage::{Pipeline, PipelineBuilder, Stage, StageCtx, StageSpec};
use mely_http::{Request, RequestParser, Response, ResponseCache};
use mely_loadgen::ClientProtocol;
use mely_net::driver::Driver;
use mely_net::{Fd, NetEvent, SimNet, TxSignal};

pub mod comparators;

/// Per-handler cycle annotations (the paper's profiled averages). The
/// defaults put one full request at roughly 80 Kcycles of handler work —
/// "short duration handlers", matching the ~20 Kcycle stolen sets of
/// Table I and the throughput range of Figure 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwsCosts {
    /// `Epoll`: one poll pass (plus `epoll_per_event` per readiness).
    pub epoll: u64,
    /// Extra cycles charged per readiness event found by a poll.
    pub epoll_per_event: u64,
    /// `Accept`: cost per accepted connection.
    pub accept: u64,
    /// `RegisterFdInEpoll`.
    pub register_fd: u64,
    /// `ReadRequest` (kernel receive path + copy).
    pub read_request: u64,
    /// `ParseRequest`.
    pub parse_request: u64,
    /// `GetFromCache`.
    pub get_from_cache: u64,
    /// `WriteResponse` fixed cost (plus `write_per_byte`).
    pub write_response: u64,
    /// Per-byte transmit cost.
    pub write_per_byte_milli: u64,
    /// `Close`.
    pub close: u64,
    /// `DecClientAccepted`.
    pub dec_accepted: u64,
}

impl Default for SwsCosts {
    fn default() -> Self {
        SwsCosts {
            epoll: 6_000,
            epoll_per_event: 400,
            accept: 28_000,
            register_fd: 4_000,
            read_request: 22_000,
            parse_request: 9_000,
            get_from_cache: 6_000,
            write_response: 26_000,
            write_per_byte_milli: 2_000, // 2 cycles/byte
            close: 14_000,
            dec_accepted: 1_500,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwsConfig {
    /// Listening port.
    pub port: u16,
    /// Number of distinct files prebuilt in the response cache.
    pub files: usize,
    /// Size of each file in bytes (1 KB in the paper's workload).
    pub file_size: usize,
    /// Maximum simultaneously accepted clients.
    pub max_clients: usize,
    /// Handler cost annotations.
    pub costs: SwsCosts,
    /// Fallback poll period when nothing predicts the next activity.
    pub poll_interval: u64,
    /// Minimum delay between two `Epoll` passes: the poll loop batches
    /// readiness like `epoll_wait` does under load, instead of waking
    /// for every individual client event.
    pub min_poll: u64,
    /// Workstealing penalty annotation for the per-connection handlers
    /// (they carry the connection's buffers; see Section III-C).
    pub conn_penalty: u32,
}

impl Default for SwsConfig {
    fn default() -> Self {
        SwsConfig {
            port: 80,
            files: 150,
            file_size: 1024,
            max_clients: 4_096,
            costs: SwsCosts::default(),
            poll_interval: 40_000,
            min_poll: 12_000,
            conn_penalty: 4,
        }
    }
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwsStats {
    /// Responses written (any status).
    pub responses: u64,
    /// 200 responses.
    pub ok: u64,
    /// 404 responses.
    pub not_found: u64,
    /// 400 responses.
    pub bad_request: u64,
    /// Connections accepted.
    pub accepted: u64,
    /// Connections closed by the server.
    pub closed: u64,
    /// Requests aborted by the peer mid-flight: the connection hit EOF
    /// (or was reset) while a partial request sat in its parse buffer.
    /// Each one also fails exactly one carried request in the runtime's
    /// `failed_requests` accounting.
    pub aborted: u64,
}

#[derive(Debug, Default)]
struct ConnState {
    parser: RequestParser,
    registered: bool,
    read_pending: bool,
    /// Parsed requests awaiting their cache lookup, in arrival order —
    /// or, for an unparseable request, the prebuilt `400` that takes
    /// its slot so responses stay in request order. Queues, not single
    /// slots: a pipelining client keeps several per-connection stage
    /// chains in flight at once, and an interleaved chain must never
    /// overwrite a request (or response) another chain has produced but
    /// not yet consumed.
    reqs: VecDeque<Result<Request, Response>>,
    /// Built responses awaiting their write, in request order.
    resps: VecDeque<Response>,
    close_after: bool,
}

struct SwsState {
    conns: HashMap<Fd, ConnState>,
    cache: ResponseCache,
    accepted: usize,
    accept_pending: bool,
    stats: SwsStats,
}

#[derive(Clone, Copy)]
struct Handlers {
    epoll: HandlerId,
    accept: HandlerId,
    register_fd: HandlerId,
    read_request: HandlerId,
    parse_request: HandlerId,
    get_from_cache: HandlerId,
    write_response: HandlerId,
    close: HandlerId,
    dec_accepted: HandlerId,
}

/// Connections accepted per `Accept` event before yielding (the accept
/// batch factor; Brecht et al., cited by the paper, study this knob).
const ACCEPT_BATCH: u32 = 8;

/// Color-plane assignment (paper Section V-C1): `Epoll` and
/// `RegisterFdInEpoll` share one color, `Accept` and
/// `DecClientAccepted` share another, per-request handlers are colored
/// by descriptor. The N-copy comparator instantiates one disjoint plane
/// per copy, chosen so that every color of copy `c` hashes to core `c`.
#[derive(Debug, Clone, Copy)]
pub struct ColorPlane {
    epoll: Color,
    accept: Color,
    fd_base: u16,
    fd_stride: u16,
    fd_mod: u64,
}

impl ColorPlane {
    /// The paper's single-instance plane: Epoll = color 0, Accept =
    /// color 1, connections spread over the remaining colors.
    pub fn single() -> Self {
        ColorPlane {
            epoll: Color::new(0),
            accept: Color::new(1),
            fd_base: 2,
            fd_stride: 1,
            fd_mod: 65_534,
        }
    }

    /// The plane of N-copy instance `copy` on a `cores`-core machine:
    /// every color ≡ `copy` (mod `cores`), so hash dispatch pins the
    /// whole copy to its core.
    ///
    /// # Panics
    ///
    /// Panics if `copy >= cores` or the machine is too large for the
    /// 16-bit color space.
    pub fn ncopy(copy: usize, cores: usize) -> Self {
        assert!(copy < cores, "copy index must be below core count");
        assert!(cores * 8_002 < 65_536, "color space exhausted");
        ColorPlane {
            epoll: Color::new(copy as u16),
            accept: Color::new((copy + cores) as u16),
            fd_base: (copy + 2 * cores) as u16,
            fd_stride: cores as u16,
            fd_mod: 8_000,
        }
    }

    fn fd_color(&self, fd: Fd) -> Color {
        Color::new(self.fd_base + self.fd_stride * (fd % self.fd_mod) as u16)
    }
}

struct AppInner<D> {
    state: Mutex<SwsState>,
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SwsConfig,
    h: Handlers,
    colors: ColorPlane,
}

struct App<D>(Arc<AppInner<D>>);

impl<D> Clone for App<D> {
    fn clone(&self) -> Self {
        App(Arc::clone(&self.0))
    }
}

/// A running SWS instance (handle to its state and counters).
pub struct Sws {
    stats: Arc<dyn Fn() -> SwsStats + Send + Sync>,
}

impl Sws {
    /// Installs SWS onto any executor (`&mut dyn Executor`): registers
    /// the nine handlers, prebuilds the response cache, opens the
    /// listener and schedules the first `Epoll` event. The `driver` is
    /// advanced by every poll pass, injecting client traffic in the
    /// executor's time base (virtual cycles under sim, the calibrated
    /// cycle counter under threads). Prefer installing through the
    /// [`Service`] impl: `rt.install(SwsService::new(net, driver, cfg))`.
    pub fn install<D: Driver + 'static>(
        rt: &mut dyn Executor,
        net: Arc<Mutex<SimNet>>,
        driver: Arc<Mutex<D>>,
        cfg: SwsConfig,
    ) -> Sws {
        Sws::install_with_colors(rt, net, driver, cfg, ColorPlane::single())
    }

    /// Like [`Sws::install`] but with an explicit color plane (used by
    /// the N-copy comparator to pin each copy to one core).
    pub fn install_with_colors<D: Driver + 'static>(
        rt: &mut dyn Executor,
        net: Arc<Mutex<SimNet>>,
        driver: Arc<Mutex<D>>,
        cfg: SwsConfig,
        colors: ColorPlane,
    ) -> Sws {
        let c = &cfg.costs;
        let pen = cfg.conn_penalty;
        // The paper's penalty annotations: the event-loop and accept
        // handlers manage global, long-lived state (the interest set,
        // the accepted-clients counter); stealing their colors migrates
        // that state for no benefit, so they carry a high workstealing
        // penalty (Section III-C). Per-request handlers keep a mild one.
        const LOOP_PENALTY: u32 = 100;
        let h = Handlers {
            epoll: rt.register_handler(
                HandlerSpec::new("Epoll")
                    .cost(c.epoll)
                    .penalty(LOOP_PENALTY),
            ),
            accept: rt.register_handler(
                HandlerSpec::new("Accept")
                    .cost(c.accept)
                    .penalty(LOOP_PENALTY),
            ),
            register_fd: rt.register_handler(
                HandlerSpec::new("RegisterFdInEpoll")
                    .cost(c.register_fd)
                    .penalty(LOOP_PENALTY),
            ),
            read_request: rt.register_handler(
                HandlerSpec::new("ReadRequest")
                    .cost(c.read_request)
                    .penalty(pen),
            ),
            parse_request: rt.register_handler(
                HandlerSpec::new("ParseRequest")
                    .cost(c.parse_request)
                    .penalty(pen),
            ),
            get_from_cache: rt
                .register_handler(HandlerSpec::new("GetFromCache").cost(c.get_from_cache)),
            write_response: rt.register_handler(
                HandlerSpec::new("WriteResponse")
                    .cost(c.write_response)
                    .penalty(pen),
            ),
            close: rt.register_handler(HandlerSpec::new("Close").cost(c.close)),
            dec_accepted: rt.register_handler(
                HandlerSpec::new("DecClientAccepted")
                    .cost(c.dec_accepted)
                    .penalty(LOOP_PENALTY),
            ),
        };
        let mut cache = ResponseCache::new();
        cache.populate_uniform(cfg.files, cfg.file_size);
        net.lock().listen(cfg.port);
        let app = App(Arc::new(AppInner {
            state: Mutex::new(SwsState {
                conns: HashMap::new(),
                cache,
                accepted: 0,
                accept_pending: false,
                stats: SwsStats::default(),
            }),
            net,
            driver,
            cfg,
            h,
            colors,
        }));
        rt.register(app.epoll_event());
        let inner = Arc::clone(&app.0);
        Sws {
            stats: Arc::new(move || inner.state.lock().stats),
        }
    }

    /// Current server-side counters.
    pub fn stats(&self) -> SwsStats {
        (self.stats)()
    }
}

/// State shared by the typed SWS stages ([`SwsService`]).
struct SwsShared<D> {
    state: Mutex<SwsState>,
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SwsConfig,
    /// A [`SwsWaker`] tick is in flight: collapses wake bursts from an
    /// external poller thread into at most one pending `PollTick`.
    wake_pending: AtomicBool,
    /// Per-connection stage chains in flight. A chain starts at each
    /// `ReadRequest` the poll loop spawns and ends at the stage that
    /// hands nothing on (or at `Close`). A pipelined request waiting in
    /// the parse buffer keeps its chain going, so zero means every
    /// request the server has read is answered. (A chain whose next
    /// event is shed, which only a quarantined color does, never ends;
    /// the gateway's poll timeout then backs up the flush.)
    chains: AtomicUsize,
    /// The network's server-output signal, fired when `chains` drops
    /// to zero and on every close: the server has nothing left in
    /// flight, so whatever it wrote should leave now.
    tx: Arc<TxSignal>,
}

impl<D> SwsShared<D> {
    /// The per-connection chain of the running stage; see [`ChainLink`].
    fn link(&self) -> ChainLink<'_, D> {
        ChainLink {
            shared: self,
            forwarded: false,
        }
    }
}

/// One per-connection stage's share of [`SwsShared::chains`]: ends the
/// chain when dropped unless the stage [`forward`](ChainLink::forward)ed
/// it to a next stage. Taken first in a stage, it drops last, after the
/// stage's locks; a panicking stage ends its chain too.
struct ChainLink<'a, D> {
    shared: &'a SwsShared<D>,
    forwarded: bool,
}

impl<D> ChainLink<'_, D> {
    fn forward(&mut self) {
        self.forwarded = true;
    }
}

impl<D> Drop for ChainLink<'_, D> {
    fn drop(&mut self) {
        if !self.forwarded && self.shared.chains.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.shared.tx.fire();
        }
    }
}

/// The poll loop's self-message. Re-arming ticks (the seed and every
/// tick the loop schedules for itself) keep the timer chain alive;
/// waker-submitted ticks ([`SwsWaker`]) are one-shot extra polls and
/// must not fork a second chain.
struct PollTick {
    rearm: bool,
}

/// One bounded accept batch.
struct AcceptTick;

/// The paper's penalty for the event-loop stages: their colors carry
/// global, long-lived state (interest set, accepted-clients counter);
/// stealing them migrates that state for no benefit (Section III-C).
const SWS_LOOP_PENALTY: u32 = 100;

struct EpollStage<D>(Arc<SwsShared<D>>);
struct AcceptStage<D>(Arc<SwsShared<D>>);
struct RegisterFdStage<D>(Arc<SwsShared<D>>);
struct ReadRequestStage<D>(Arc<SwsShared<D>>);
struct ParseRequestStage<D>(Arc<SwsShared<D>>);
struct GetFromCacheStage<D>(Arc<SwsShared<D>>);
struct WriteResponseStage<D>(Arc<SwsShared<D>>);
struct CloseStage<D>(Arc<SwsShared<D>>);
struct DecAcceptedStage<D>(Arc<SwsShared<D>>);

impl<D: Driver + 'static> Stage for EpollStage<D> {
    type In = PollTick;

    fn spec(&self) -> StageSpec<PollTick> {
        StageSpec::new("Epoll")
            .cost(self.0.cfg.costs.epoll)
            .penalty(SWS_LOOP_PENALTY)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, msg: PollTick) {
        let now = ctx.now();
        let s = &self.0;
        // This poll is happening: a new wake may be requested again.
        s.wake_pending.store(false, Ordering::Release);
        let mut net = s.net.lock();
        let done = s.driver.lock().advance(&mut net, now);
        let events = net.poll(now);
        ctx.charge(s.cfg.costs.epoll_per_event * events.len() as u64);
        {
            let mut st = s.state.lock();
            for e in events {
                match e {
                    NetEvent::Acceptable(_) => {
                        if !st.accept_pending && st.accepted < s.cfg.max_clients {
                            st.accept_pending = true;
                            ctx.spawn::<AcceptStage<D>>(AcceptTick);
                        }
                    }
                    NetEvent::Readable(fd) | NetEvent::PeerClosed(fd) => {
                        if let Some(conn) = st.conns.get_mut(&fd) {
                            if conn.registered && !conn.read_pending {
                                conn.read_pending = true;
                                // Each readiness notification opens a
                                // new request: its latency runs from the
                                // ReadRequest dispatch to the response.
                                s.chains.fetch_add(1, Ordering::Relaxed);
                                ctx.spawn::<ReadRequestStage<D>>(fd);
                            }
                        }
                    }
                }
            }
        }
        // Re-arm: wake exactly when the network or the clients next
        // have something for us. Waker-submitted one-shot ticks skip
        // this — the original chain is still armed.
        let next = [net.next_activity(now), s.driver.lock().next_due(now)]
            .into_iter()
            .flatten()
            .min();
        drop(net);
        if !msg.rearm {
            return;
        }
        match next {
            Some(t) => ctx.to_after::<EpollStage<D>>(
                t.saturating_sub(now).max(s.cfg.min_poll),
                PollTick { rearm: true },
            ),
            None if !done => {
                ctx.to_after::<EpollStage<D>>(s.cfg.poll_interval, PollTick { rearm: true })
            }
            None => {
                // Load finished and the network is silent: stop
                // re-arming so the simulation can drain and return.
            }
        }
    }
}

impl<D: Driver + 'static> Stage for AcceptStage<D> {
    type In = AcceptTick;

    fn spec(&self) -> StageSpec<AcceptTick> {
        StageSpec::new("Accept")
            .cost(self.0.cfg.costs.accept)
            .penalty(SWS_LOOP_PENALTY)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, _msg: AcceptTick) {
        let s = &self.0;
        let now = ctx.now();
        let mut net = s.net.lock();
        let mut st = s.state.lock();
        // Accept a bounded batch per event (the accept-batching factor
        // of Brecht et al., which the paper cites), then yield and
        // re-register so one connection storm cannot monopolize the
        // core.
        let mut first = true;
        let mut batch = 0;
        while st.accepted < s.cfg.max_clients && batch < ACCEPT_BATCH {
            let Some(fd) = net.accept(s.cfg.port, now) else {
                break;
            };
            if !first {
                ctx.charge(s.cfg.costs.accept);
            }
            first = false;
            batch += 1;
            st.accepted += 1;
            st.stats.accepted += 1;
            st.conns.insert(fd, ConnState::default());
            ctx.to::<RegisterFdStage<D>>(fd);
        }
        if batch == ACCEPT_BATCH && st.accepted < s.cfg.max_clients {
            // More connections may be pending: keep accepting.
            ctx.to::<AcceptStage<D>>(AcceptTick);
        } else {
            st.accept_pending = false;
        }
    }
}

impl<D: Driver + 'static> Stage for RegisterFdStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        // Colored like Epoll "in order to manage concurrency" (paper).
        StageSpec::new("RegisterFdInEpoll")
            .cost(self.0.cfg.costs.register_fd)
            .penalty(SWS_LOOP_PENALTY)
            .share_color_with::<EpollStage<D>>()
    }

    fn handle(&self, _ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let mut st = self.0.state.lock();
        if let Some(conn) = st.conns.get_mut(&fd) {
            conn.registered = true;
        }
    }
}

impl<D: Driver + 'static> Stage for ReadRequestStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("ReadRequest")
            .cost(self.0.cfg.costs.read_request)
            .penalty(self.0.cfg.conn_penalty)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let mut link = s.link();
        let now = ctx.now();
        let mut net = s.net.lock();
        let data = net.read(fd, now);
        // EOF only counts once all data has been consumed.
        let hup = data.is_empty() && net.peer_closed(fd, now);
        drop(net);
        let mut st = s.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        conn.read_pending = false;
        if hup {
            if conn.parser.has_partial() {
                // The peer abandoned a request mid-flight (reset, or
                // EOF with a partial request buffered): exactly one
                // carried request fails.
                ctx.fail();
                st.stats.aborted += 1;
            }
            link.forward();
            ctx.to::<CloseStage<D>>(fd);
            return;
        }
        if !data.is_empty() {
            conn.parser.feed(&data);
            link.forward();
            ctx.to::<ParseRequestStage<D>>(fd);
        }
    }
}

impl<D: Driver + 'static> Stage for ParseRequestStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("ParseRequest")
            .cost(self.0.cfg.costs.parse_request)
            .penalty(self.0.cfg.conn_penalty)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let mut link = self.0.link();
        let mut st = self.0.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        match conn.parser.next_request() {
            Some(Ok(req)) => {
                conn.close_after |= !req.keep_alive;
                conn.reqs.push_back(Ok(req));
                link.forward();
                ctx.to::<GetFromCacheStage<D>>(fd);
            }
            None => {
                // Wait for more bytes; Epoll will re-trigger a read.
            }
            Some(Err(_)) => {
                conn.reqs.push_back(Err(Response::bad_request()));
                conn.close_after = true;
                st.stats.bad_request += 1;
                link.forward();
                ctx.to::<GetFromCacheStage<D>>(fd);
            }
        }
    }
}

impl<D: Driver + 'static> Stage for GetFromCacheStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("GetFromCache")
            .cost(self.0.cfg.costs.get_from_cache)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let mut link = self.0.link();
        let mut st = self.0.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        let Some(slot) = conn.reqs.pop_front() else {
            return;
        };
        let resp = match slot {
            Ok(req) => match st.cache.lookup(&req.path) {
                Some(r) => r.clone(),
                None => Response::not_found(),
            },
            // Unparseable request: its `400` passes straight through.
            Err(prebuilt) => prebuilt,
        };
        let conn = st.conns.get_mut(&fd).expect("checked above");
        conn.resps.push_back(resp);
        link.forward();
        ctx.to::<WriteResponseStage<D>>(fd);
    }
}

impl<D: Driver + 'static> Stage for WriteResponseStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("WriteResponse")
            .cost(self.0.cfg.costs.write_response)
            .penalty(self.0.cfg.conn_penalty)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        let mut link = s.link();
        let now = ctx.now();
        let mut st = s.state.lock();
        let Some(conn) = st.conns.get_mut(&fd) else {
            return;
        };
        let Some(resp) = conn.resps.pop_front() else {
            return;
        };
        ctx.charge(resp.wire_len() as u64 * s.cfg.costs.write_per_byte_milli / 1_000);
        st.stats.responses += 1;
        match resp.status() {
            200 => st.stats.ok += 1,
            404 => st.stats.not_found += 1,
            _ => {} // 400s are counted at parse time
        }
        let conn = st.conns.get_mut(&fd).expect("checked above");
        let close_after = conn.close_after;
        let more = conn.parser.has_partial();
        drop(st);
        s.net.lock().write(fd, now, resp.to_vec());
        // The response left the server: the request is complete.
        ctx.complete(());
        if close_after {
            link.forward();
            ctx.to::<CloseStage<D>>(fd);
        } else if more {
            // Pipelined request already buffered: a new request begins
            // at its parse.
            link.forward();
            ctx.spawn::<ParseRequestStage<D>>(fd);
        }
    }
}

impl<D: Driver + 'static> Stage for CloseStage<D> {
    type In = Fd;

    fn spec(&self) -> StageSpec<Fd> {
        StageSpec::new("Close")
            .cost(self.0.cfg.costs.close)
            .keyed(|&fd| fd)
    }

    fn handle(&self, ctx: &mut StageCtx<'_, '_>, fd: Fd) {
        let s = &self.0;
        // Every chain that reaches `Close` ends here.
        let _link = s.link();
        let now = ctx.now();
        let mut net = s.net.lock();
        net.close(fd, now);
        net.reap(fd);
        drop(net);
        let mut st = s.state.lock();
        if st.conns.remove(&fd).is_some() {
            st.stats.closed += 1;
            ctx.to::<DecAcceptedStage<D>>(());
        }
        drop(st);
        s.tx.fire();
    }
}

impl<D: Driver + 'static> Stage for DecAcceptedStage<D> {
    type In = ();

    fn spec(&self) -> StageSpec<()> {
        // Colored like Accept "to manage concurrency" (paper).
        StageSpec::new("DecClientAccepted")
            .cost(self.0.cfg.costs.dec_accepted)
            .penalty(SWS_LOOP_PENALTY)
            .share_color_with::<AcceptStage<D>>()
    }

    fn handle(&self, _ctx: &mut StageCtx<'_, '_>, _msg: ()) {
        let mut st = self.0.state.lock();
        st.accepted = st.accepted.saturating_sub(1);
    }
}

/// SWS as a typed stage [`Pipeline`]:
/// bundle the network, the driver and the configuration, then
/// `rt.install(SwsService::new(..))` on either executor. After the run,
/// [`SwsService::stats`] reads the server counters, and the report's
/// `completed_requests` / `latency_p50` / `latency_p99` cover every
/// response served (one request per readiness-to-response chain).
///
/// The nine stages and their coloring follow the paper exactly —
/// `Epoll` + `RegisterFdInEpoll` share a serial color, `Accept` +
/// `DecClientAccepted` another, the per-request stages are keyed by
/// descriptor — but the colors themselves come from the pipeline's
/// collision-checked allocator, not hand-picked constants. The raw
/// event-API implementation survives as [`Sws`] (the low-level layer;
/// the N-copy comparator builds its color planes on it).
pub struct SwsService<D> {
    net: Arc<Mutex<SimNet>>,
    driver: Arc<Mutex<D>>,
    cfg: SwsConfig,
    colors: Option<ColorSpace>,
    installed: Option<Arc<SwsShared<D>>>,
    pipeline: Option<Pipeline>,
}

impl<D: Driver + 'static> SwsService<D> {
    /// Bundles a web server over `net` serving load from `driver`.
    pub fn new(net: Arc<Mutex<SimNet>>, driver: Arc<Mutex<D>>, cfg: SwsConfig) -> Self {
        SwsService {
            net,
            driver,
            cfg,
            colors: None,
            installed: None,
            pipeline: None,
        }
    }

    /// Replaces the pipeline's color allocator (default
    /// [`ColorSpace::for_stages`]). Co-installing several stage
    /// services on one executor? Give each an allocator whose
    /// [`ColorSpace::reserve_range`] blocks out the others' territory,
    /// so no two services' serial stages can silently share a color:
    ///
    /// ```ignore
    /// let mut sws_colors = ColorSpace::for_stages();
    /// sws_colors.reserve_range(ColorRange::new(0x100, 0x1FF)); // SFS's
    /// let mut sfs_colors = ColorSpace::for_stages();
    /// sfs_colors.reserve_range(ColorRange::new(0x001, 0x0FF)); // SWS's
    /// ```
    pub fn with_colors(mut self, colors: ColorSpace) -> Self {
        self.colors = Some(colors);
        self
    }

    /// Current server-side counters.
    ///
    /// # Panics
    ///
    /// Panics if the service has not been installed yet.
    pub fn stats(&self) -> SwsStats {
        self.installed
            .as_ref()
            .expect("service not installed")
            .state
            .lock()
            .stats
    }

    /// A wake handle for external pollers (the real-socket gateway's
    /// poller thread): each [`SwsWaker::wake`] submits one extra
    /// `Epoll` pass through the lock-free injection path, so readiness
    /// that arrived from the kernel is polled promptly instead of
    /// waiting out the poll interval. Wake bursts collapse — at most
    /// one waker tick is in flight at a time — and waker ticks never
    /// fork the poll loop's own re-arm chain.
    ///
    /// # Panics
    ///
    /// Panics if the service has not been installed yet.
    pub fn waker(&self, injector: impl Into<Injector>) -> SwsWaker {
        let shared = Arc::clone(self.installed.as_ref().expect("service not installed"));
        let sender = self
            .pipeline
            .as_ref()
            .expect("service not installed")
            .sender(injector.into());
        SwsWaker {
            wake: Arc::new(move || {
                if !shared.wake_pending.swap(true, Ordering::AcqRel) {
                    sender.submit::<EpollStage<D>>(PollTick { rearm: false });
                }
            }),
        }
    }
}

/// A cloneable handle nudging an installed [`SwsService`]'s poll loop
/// from outside the executor — see [`SwsService::waker`].
#[derive(Clone)]
pub struct SwsWaker {
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl SwsWaker {
    /// Requests one prompt `Epoll` pass (idempotent while one is
    /// already pending).
    pub fn wake(&self) {
        (self.wake)()
    }
}

impl std::fmt::Debug for SwsWaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwsWaker").finish()
    }
}

impl<D: Driver + 'static> Service for SwsService<D> {
    fn name(&self) -> &str {
        "sws"
    }

    fn install(&mut self, exec: &mut dyn Executor) {
        let mut cache = ResponseCache::new();
        cache.populate_uniform(self.cfg.files, self.cfg.file_size);
        self.net.lock().listen(self.cfg.port);
        let shared = Arc::new(SwsShared {
            state: Mutex::new(SwsState {
                conns: HashMap::new(),
                cache,
                accepted: 0,
                accept_pending: false,
                stats: SwsStats::default(),
            }),
            net: Arc::clone(&self.net),
            driver: Arc::clone(&self.driver),
            cfg: self.cfg.clone(),
            wake_pending: AtomicBool::new(false),
            chains: AtomicUsize::new(0),
            tx: self.net.lock().tx_signal(),
        });
        let mut builder = PipelineBuilder::new("sws");
        if let Some(colors) = self.colors.take() {
            builder = builder.with_colors(colors);
        }
        let mut pipeline = builder
            .stage(EpollStage(Arc::clone(&shared)))
            .stage(AcceptStage(Arc::clone(&shared)))
            .stage(RegisterFdStage(Arc::clone(&shared)))
            .stage(ReadRequestStage(Arc::clone(&shared)))
            .stage(ParseRequestStage(Arc::clone(&shared)))
            .stage(GetFromCacheStage(Arc::clone(&shared)))
            .stage(WriteResponseStage(Arc::clone(&shared)))
            .stage(CloseStage(Arc::clone(&shared)))
            .stage(DecAcceptedStage(Arc::clone(&shared)))
            .seed::<EpollStage<D>>(PollTick { rearm: true })
            .build();
        pipeline.install(exec);
        self.pipeline = Some(pipeline);
        self.installed = Some(shared);
    }
}

impl<D: Driver + 'static> App<D> {
    fn epoll_event(&self) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.epoll, self.0.h.epoll).with_action(move |ctx| {
            let now = ctx.now();
            let inner = &app.0;
            let mut net = inner.net.lock();
            let done = inner.driver.lock().advance(&mut net, now);
            let events = net.poll(now);
            ctx.charge(inner.cfg.costs.epoll_per_event * events.len() as u64);
            {
                let mut st = inner.state.lock();
                for e in events {
                    match e {
                        NetEvent::Acceptable(_) => {
                            if !st.accept_pending && st.accepted < inner.cfg.max_clients {
                                st.accept_pending = true;
                                ctx.register(app.accept_event());
                            }
                        }
                        NetEvent::Readable(fd) | NetEvent::PeerClosed(fd) => {
                            if let Some(conn) = st.conns.get_mut(&fd) {
                                if conn.registered && !conn.read_pending {
                                    conn.read_pending = true;
                                    ctx.register(app.read_request_event(fd));
                                }
                            }
                        }
                    }
                }
            }
            // Re-arm: wake exactly when the network or the clients next
            // have something for us.
            let next = [net.next_activity(now), inner.driver.lock().next_due(now)]
                .into_iter()
                .flatten()
                .min();
            drop(net);
            match next {
                Some(t) => ctx.register_after(
                    t.saturating_sub(now).max(inner.cfg.min_poll),
                    app.epoll_event(),
                ),
                None if !done => ctx.register_after(inner.cfg.poll_interval, app.epoll_event()),
                None => {
                    // Load finished and the network is silent: stop
                    // re-arming so the simulation can drain and return.
                }
            }
        })
    }

    fn accept_event(&self) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.accept, self.0.h.accept).with_action(move |ctx| {
            let inner = &app.0;
            let now = ctx.now();
            let mut net = inner.net.lock();
            let mut st = inner.state.lock();
            // Accept a bounded batch per event (the accept-batching
            // factor of Brecht et al., which the paper cites), then
            // yield and re-register so one connection storm cannot
            // monopolize the core.
            let mut first = true;
            let mut batch = 0;
            while st.accepted < inner.cfg.max_clients && batch < ACCEPT_BATCH {
                let Some(fd) = net.accept(inner.cfg.port, now) else {
                    break;
                };
                if !first {
                    ctx.charge(inner.cfg.costs.accept);
                }
                first = false;
                batch += 1;
                st.accepted += 1;
                st.stats.accepted += 1;
                st.conns.insert(fd, ConnState::default());
                ctx.register(app.register_fd_event(fd));
            }
            if batch == ACCEPT_BATCH && st.accepted < inner.cfg.max_clients {
                // More connections may be pending: keep accepting.
                ctx.register(app.accept_event());
            } else {
                st.accept_pending = false;
            }
        })
    }

    fn register_fd_event(&self, fd: Fd) -> Event {
        let app = self.clone();
        // Colored like Epoll "in order to manage concurrency" (paper).
        Event::for_handler(self.0.colors.epoll, self.0.h.register_fd).with_action(move |_ctx| {
            let mut st = app.0.state.lock();
            if let Some(conn) = st.conns.get_mut(&fd) {
                conn.registered = true;
            }
        })
    }

    fn read_request_event(&self, fd: Fd) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.fd_color(fd), self.0.h.read_request).with_action(
            move |ctx| {
                let inner = &app.0;
                let now = ctx.now();
                let mut net = inner.net.lock();
                let data = net.read(fd, now);
                // EOF only counts once all data has been consumed.
                let hup = data.is_empty() && net.peer_closed(fd, now);
                drop(net);
                let mut st = inner.state.lock();
                let Some(conn) = st.conns.get_mut(&fd) else {
                    return;
                };
                conn.read_pending = false;
                if hup {
                    if conn.parser.has_partial() {
                        // The peer abandoned a request mid-flight:
                        // exactly one carried request fails.
                        ctx.fail_request();
                        st.stats.aborted += 1;
                    }
                    ctx.register(app.close_event(fd));
                    return;
                }
                if !data.is_empty() {
                    conn.parser.feed(&data);
                    ctx.register(app.parse_request_event(fd));
                }
            },
        )
    }

    fn parse_request_event(&self, fd: Fd) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.fd_color(fd), self.0.h.parse_request).with_action(
            move |ctx| {
                let inner = &app.0;
                let mut st = inner.state.lock();
                let Some(conn) = st.conns.get_mut(&fd) else {
                    return;
                };
                match conn.parser.next_request() {
                    Some(Ok(req)) => {
                        conn.close_after |= !req.keep_alive;
                        conn.reqs.push_back(Ok(req));
                        ctx.register(app.get_from_cache_event(fd));
                    }
                    None => {
                        // Wait for more bytes; Epoll will re-trigger a read.
                    }
                    Some(Err(_)) => {
                        conn.reqs.push_back(Err(Response::bad_request()));
                        conn.close_after = true;
                        st.stats.bad_request += 1;
                        ctx.register(app.get_from_cache_event(fd));
                    }
                }
            },
        )
    }

    fn get_from_cache_event(&self, fd: Fd) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.fd_color(fd), self.0.h.get_from_cache).with_action(
            move |ctx| {
                let inner = &app.0;
                let mut st = inner.state.lock();
                let Some(conn) = st.conns.get_mut(&fd) else {
                    return;
                };
                let Some(slot) = conn.reqs.pop_front() else {
                    return;
                };
                let resp = match slot {
                    Ok(req) => match st.cache.lookup(&req.path) {
                        Some(r) => r.clone(),
                        None => Response::not_found(),
                    },
                    // Unparseable request: its `400` passes through.
                    Err(prebuilt) => prebuilt,
                };
                let conn = st.conns.get_mut(&fd).expect("checked above");
                conn.resps.push_back(resp);
                ctx.register(app.write_response_event(fd));
            },
        )
    }

    fn write_response_event(&self, fd: Fd) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.fd_color(fd), self.0.h.write_response).with_action(
            move |ctx| {
                let inner = &app.0;
                let now = ctx.now();
                let mut st = inner.state.lock();
                let Some(conn) = st.conns.get_mut(&fd) else {
                    return;
                };
                let Some(resp) = conn.resps.pop_front() else {
                    return;
                };
                ctx.charge(resp.wire_len() as u64 * inner.cfg.costs.write_per_byte_milli / 1_000);
                st.stats.responses += 1;
                match resp.status() {
                    200 => st.stats.ok += 1,
                    404 => st.stats.not_found += 1,
                    400 => st.stats.bad_request += 0, // counted at parse time
                    _ => {}
                }
                let close_after = {
                    let conn = st.conns.get_mut(&fd).expect("checked above");
                    conn.close_after
                };
                let more = {
                    let conn = st.conns.get_mut(&fd).expect("checked above");
                    conn.parser.has_partial()
                };
                drop(st);
                inner.net.lock().write(fd, now, resp.to_vec());
                if close_after {
                    ctx.register(app.close_event(fd));
                } else if more {
                    // Pipelined request already buffered.
                    ctx.register(app.parse_request_event(fd));
                }
            },
        )
    }

    fn close_event(&self, fd: Fd) -> Event {
        let app = self.clone();
        Event::for_handler(self.0.colors.fd_color(fd), self.0.h.close).with_action(move |ctx| {
            let inner = &app.0;
            let now = ctx.now();
            let mut net = inner.net.lock();
            net.close(fd, now);
            net.reap(fd);
            drop(net);
            let mut st = inner.state.lock();
            if st.conns.remove(&fd).is_some() {
                st.stats.closed += 1;
                ctx.register(app.dec_accepted_event());
            }
        })
    }

    fn dec_accepted_event(&self) -> Event {
        let app = self.clone();
        // Colored like Accept "to manage concurrency" (paper).
        Event::for_handler(self.0.colors.accept, self.0.h.dec_accepted).with_action(move |_ctx| {
            let mut st = app.0.state.lock();
            st.accepted = st.accepted.saturating_sub(1);
        })
    }
}

/// The HTTP client protocol for SWS load: each request fetches one of
/// the server's prebuilt files; responses are validated by status line
/// and `Content-Length` framing.
#[derive(Debug)]
pub struct HttpProtocol {
    files: usize,
    ok: u64,
    errors: u64,
}

impl HttpProtocol {
    /// Clients will request one of `files` prebuilt paths.
    pub fn new(files: usize) -> Self {
        HttpProtocol {
            files,
            ok: 0,
            errors: 0,
        }
    }

    /// `200` responses observed.
    pub fn ok_responses(&self) -> u64 {
        self.ok
    }

    /// Non-200 responses observed.
    pub fn error_responses(&self) -> u64 {
        self.errors
    }
}

impl ClientProtocol for HttpProtocol {
    fn request(&mut self, client: usize, seq: u64) -> Vec<u8> {
        let file = (client as u64 * 31 + seq) % self.files.max(1) as u64;
        format!("GET /f{file}.bin HTTP/1.1\r\nHost: sws\r\nConnection: keep-alive\r\n\r\n")
            .into_bytes()
    }

    fn response_len(&self, buf: &[u8]) -> Option<usize> {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&buf[..head_end]).ok()?;
        let mut content_length = 0usize;
        for line in head.split("\r\n") {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().ok()?;
                }
            }
        }
        let total = head_end + content_length;
        (buf.len() >= total).then_some(total)
    }

    fn on_response(&mut self, _client: usize, response: &[u8]) {
        if response.starts_with(b"HTTP/1.1 200") {
            self.ok += 1;
        } else {
            self.errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mely_core::prelude::*;
    use mely_loadgen::{ClosedLoopLoad, LoadConfig};
    use mely_net::NetConfig;

    fn run_sws(
        flavor: Flavor,
        ws: WsPolicy,
        clients: usize,
        duration: u64,
    ) -> (SwsStats, mely_loadgen::LoadStats, RunReport) {
        let mut rt = RuntimeBuilder::new()
            .cores(8)
            .flavor(flavor)
            .workstealing(ws)
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let cfg = SwsConfig::default();
        let load = ClosedLoopLoad::new(
            HttpProtocol::new(cfg.files),
            LoadConfig {
                clients,
                ports: vec![cfg.port],
                requests_per_conn: 10,
                duration,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let sws = Sws::install(&mut rt, Arc::clone(&net), Arc::clone(&driver), cfg);
        let report = rt.run();
        let stats = driver.lock().stats();
        (sws.stats(), stats, report)
    }

    #[test]
    fn serves_requests_end_to_end() {
        let (srv, cli, report) = run_sws(Flavor::Mely, WsPolicy::off(), 8, 30_000_000);
        assert!(cli.responses > 10, "got {}", cli.responses);
        assert_eq!(srv.responses, srv.ok, "all 200s");
        assert!(srv.responses >= cli.responses);
        assert!(report.events_processed() > cli.responses * 4);
    }

    #[test]
    fn clients_verify_status_lines() {
        let mut rt = RuntimeBuilder::new()
            .cores(4)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let cfg = SwsConfig::default();
        let load = ClosedLoopLoad::new(
            HttpProtocol::new(cfg.files),
            LoadConfig {
                clients: 4,
                ports: vec![cfg.port],
                requests_per_conn: 5,
                duration: 20_000_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let _sws = Sws::install(&mut rt, net, Arc::clone(&driver), cfg);
        rt.run();
        let d = driver.lock();
        assert!(d.protocol().ok_responses() > 0);
        assert_eq!(d.protocol().error_responses(), 0);
    }

    #[test]
    fn missing_files_get_404() {
        #[derive(Debug)]
        struct BadPath(HttpProtocol);
        impl ClientProtocol for BadPath {
            fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
                b"GET /missing HTTP/1.1\r\n\r\n".to_vec()
            }
            fn response_len(&self, buf: &[u8]) -> Option<usize> {
                self.0.response_len(buf)
            }
        }
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let load = ClosedLoopLoad::new(
            BadPath(HttpProtocol::new(1)),
            LoadConfig {
                clients: 1,
                ports: vec![80],
                requests_per_conn: 3,
                duration: 10_000_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let sws = Sws::install(&mut rt, net, driver, SwsConfig::default());
        rt.run();
        assert!(sws.stats().not_found > 0);
        assert_eq!(sws.stats().ok, 0);
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        #[derive(Debug)]
        struct Garbage;
        impl ClientProtocol for Garbage {
            fn request(&mut self, _c: usize, _s: u64) -> Vec<u8> {
                b"NONSENSE\r\n\r\n".to_vec()
            }
            fn response_len(&self, buf: &[u8]) -> Option<usize> {
                HttpProtocol::new(1).response_len(buf)
            }
        }
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig::default())));
        let load = ClosedLoopLoad::new(
            Garbage,
            LoadConfig {
                clients: 1,
                ports: vec![80],
                requests_per_conn: 2,
                duration: 10_000_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let sws = Sws::install(&mut rt, net, driver, SwsConfig::default());
        rt.run();
        assert!(sws.stats().bad_request > 0);
        assert!(sws.stats().closed > 0, "400 closes the connection");
    }

    #[test]
    fn http_protocol_framing() {
        let p = HttpProtocol::new(10);
        assert_eq!(p.response_len(b"HTTP/1.1 200 OK\r\n"), None);
        let full = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(p.response_len(full), Some(full.len()));
        // Trailing extra bytes belong to the next response.
        let mut two = full.to_vec();
        two.extend_from_slice(b"HTTP");
        assert_eq!(p.response_len(&two), Some(full.len()));
    }

    #[test]
    fn stage_service_serves_requests_and_reports_latency() {
        let mut rt = RuntimeBuilder::new()
            .cores(8)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved())
            .build(ExecKind::Sim);
        let net = Arc::new(Mutex::new(SimNet::new(mely_net::NetConfig::default())));
        let cfg = SwsConfig::default();
        let load = ClosedLoopLoad::new(
            HttpProtocol::new(cfg.files),
            LoadConfig {
                clients: 16,
                ports: vec![cfg.port],
                requests_per_conn: 10,
                duration: 30_000_000,
                ..LoadConfig::default()
            },
        );
        let driver = Arc::new(Mutex::new(load));
        let svc = rt.install(SwsService::new(net, Arc::clone(&driver), cfg));
        let report = rt.run();
        let srv = svc.stats();
        assert!(srv.responses > 20, "served {}", srv.responses);
        assert_eq!(srv.responses, srv.ok, "all 200s");
        // Every response closed one request of the latency pipeline.
        assert_eq!(report.completed_requests(), srv.responses);
        assert!(report.latency_p50() > 0, "multi-hop requests take time");
        assert!(report.latency_p50() <= report.latency_p99());
        let d = driver.lock();
        assert!(d.protocol().ok_responses() > 0);
        assert_eq!(d.protocol().error_responses(), 0);
    }

    #[test]
    fn stage_service_is_deterministic_on_the_simulator() {
        // The network-driven SWS is time-driven (poll loops, closed-loop
        // clients), so event counts are not structural across executors —
        // but on the deterministic simulator the STAGE port must serve
        // every request the clients issue, identically run to run,
        // including its request accounting.
        let run_stage = || {
            let mut rt = RuntimeBuilder::new()
                .cores(8)
                .flavor(Flavor::Mely)
                .workstealing(WsPolicy::improved())
                .build(ExecKind::Sim);
            let net = Arc::new(Mutex::new(SimNet::new(mely_net::NetConfig::default())));
            let cfg = SwsConfig::default();
            let load = ClosedLoopLoad::new(
                HttpProtocol::new(cfg.files),
                LoadConfig {
                    clients: 16,
                    ports: vec![cfg.port],
                    requests_per_conn: 10,
                    duration: 20_000_000,
                    ..LoadConfig::default()
                },
            );
            let driver = Arc::new(Mutex::new(load));
            let svc = rt.install(SwsService::new(net, driver, cfg));
            let report = rt.run();
            (
                report.fingerprint(),
                svc.stats().responses,
                report.events_processed(),
                report.completed_requests(),
                report.latency_p99(),
            )
        };
        let a = run_stage();
        let b = run_stage();
        assert!(a.1 > 0, "must actually serve requests");
        // Fingerprint equality pins the whole per-core completion
        // sequence, not just the aggregate counts.
        assert_eq!(a, b, "deterministic replay of the stage pipeline");

        // The raw low-level Sws, by contrast, never opens requests: the
        // latency pipeline is a stage-layer feature.
        let (_, _, report) = run_sws(Flavor::Mely, WsPolicy::improved(), 16, 20_000_000);
        assert_eq!(
            report.completed_requests(),
            0,
            "raw Sws records no requests"
        );
    }

    #[test]
    fn workstealing_spreads_work_across_cores() {
        let (_, cli, report) = run_sws(Flavor::Mely, WsPolicy::improved(), 64, 40_000_000);
        assert!(cli.responses > 50);
        let active = report
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert!(active >= 4, "work must spread, got {active} cores");
    }
}
