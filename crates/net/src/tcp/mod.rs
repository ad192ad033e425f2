//! Real-socket front-end: loopback TCP served by the existing stage
//! graphs.
//!
//! Everything below the stage layer in this repository speaks
//! [`SimNet`] — an in-memory network with visibility timestamps. This
//! module bolts a real kernel socket path onto that substrate without
//! the servers noticing:
//!
//! ```text
//!  clients ──TCP──► TcpListener            ┌─────────────────────────┐
//!                      │                   │   threaded runtime      │
//!                      ▼                   │                         │
//!               poller thread ──inboxes──► │ Epoll stage ─► Accept   │
//!               (epoll_wait)    (waker)    │   │                     │
//!                      │                   │   ▼                     │
//!      accept4 / read  │                   │ ReadRequest ─► Parse ─► │
//!         client_write ▼                   │ GetFromCache ─► Write   │
//!                  ┌────────┐              └───────────┬─────────────┘
//!                  │ SimNet │◄─────────────────────────┘ net.write
//!                  └────────┘
//!                      │ client_read
//!                      ▼
//!               per-conn WriteBuf ──write (EAGAIN-aware)──► clients
//! ```
//!
//! A [`TcpGateway`] owns one listener and a dedicated poller thread.
//! The poller multiplexes every real descriptor through one
//! [`epoll::Epoll`] instance (raw `minilibc` syscalls — no network
//! crates), and translates kernel readiness into [`SimNet`] *client*
//! operations: an accepted socket becomes `net.connect(port)`, request
//! bytes become `net.client_write`, EOF becomes `net.client_close`.
//! From there the normal machinery takes over — the server's `Epoll`
//! stage polls the [`SimNet`], sees `Acceptable`/`Readable`/`PeerClosed`
//! [`NetEvent`](crate::NetEvent)s, and runs the stage graph unmodified,
//! with connections colored into the canonical `CONNECTIONS` range and
//! listeners into `LISTENERS` exactly as for simulated load. Response
//! bytes flow back: the poller drains `net.client_read` into a
//! per-connection [`conn::WriteBuf`] and pushes it out with
//! `EAGAIN`-aware partial writes, arming `EPOLLOUT` only while a tail
//! is pending.
//!
//! Two small pieces close the loop with the runtime:
//!
//! - a **waker** ([`TcpGateway::set_waker`]): whenever the poller
//!   forwarded a connection, request bytes, an EOF or a dead peer, it
//!   nudges the server's poll loop through the lock-free
//!   injection path (`SwsService::waker` builds the right callback), so
//!   request latency is bounded by scheduling, not by the server's
//!   fallback poll interval;
//! - a **driver** ([`TcpDriver`]): the stage graph's poll loop asks its
//!   [`Driver`] when the load is finished; the gateway's driver says
//!   "not yet" until [`TcpGateway::shutdown`] ran, keeping the poll
//!   loop re-armed while real clients may still connect.
//!
//! # The response path
//!
//! Responses travel the other way through the network's [`TxSignal`]:
//!
//! 1. the server's `write` (and `close`) marks the signal under the
//!    network's lock;
//! 2. when the server has nothing left in flight (`SwsService` counts
//!    its per-connection stage chains, and also fires on every close)
//!    it fires the signal, which runs the notifier [`TcpGateway::bind`]
//!    installed: if the poller is blocked in `epoll_wait`, one byte on
//!    a `UnixStream` pair in its epoll set wakes it; if not, a flag
//!    keeps it from blocking on its next turn;
//! 3. the poller takes the signal and, only then, sweeps every bridged
//!    connection for server output under one network lock, queues it
//!    per connection and writes it out.
//!
//! Waking on "server idle" rather than on every write keeps the
//! poller's batching under load: at full load the server rarely idles
//! and the poller picks output up on its own readiness wake-ups, many
//! responses per sweep. [`TcpGatewayConfig::poll_timeout_ms`] is only
//! an idle backstop; no response waits for it.
//!
//! Accepted sockets get `TCP_NODELAY`. Responses are written whole as
//! soon as they exist, so Nagle's algorithm can only hurt: it would
//! hold response *i*+1 until the client acknowledged response *i*, and
//! a keep-alive client's acknowledgement rides on its next request.
//!
//! Failure handling follows the fault model: a peer reset or an EOF
//! with a partial request buffered fails exactly one carried request
//! (`failed_requests`); accept-path descriptor exhaustion
//! (`EMFILE`/`ENFILE`) sheds the connection with a counter
//! ([`TcpStats::accept_sheds`]) instead of panicking the poller.
//!
//! Linux-only at runtime (the `minilibc` stubs fail with `ENOSYS`
//! elsewhere); everything still compiles cross-platform.

pub mod conn;
pub mod epoll;

pub use minilibc::raise_nofile_limit;

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use minilibc as libc;
use parking_lot::Mutex;

use mely_core::cycles;

use crate::driver::Driver;
use crate::{Fd, SimNet, TxNotifier, TxSignal};
use conn::{drain_reads, ReadOutcome, WriteOutcome};
use epoll::{Epoll, Interest};

/// The epoll token reserved for the listener (real descriptors are
/// their own tokens and can never reach this value).
const LISTENER_TOKEN: u64 = u64::MAX;

/// The epoll token of the flush notifier's read end.
const FLUSH_TOKEN: u64 = u64::MAX - 1;

/// Gateway parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpGatewayConfig {
    /// The [`SimNet`] port accepted connections are bridged to (must be
    /// the port the server listens on).
    pub sim_port: u16,
    /// Accept no more than this many simultaneous bridged connections;
    /// beyond it, accepted sockets are closed immediately and counted
    /// as [`TcpStats::accept_sheds`].
    pub max_conns: usize,
    /// `epoll_wait` timeout per poller iteration, in milliseconds. Only
    /// an idle backstop: client bytes wake the poller through epoll and
    /// server responses through the [`TxSignal`] notifier, so nothing
    /// waits for it to expire.
    pub poll_timeout_ms: i32,
}

impl Default for TcpGatewayConfig {
    fn default() -> Self {
        TcpGatewayConfig {
            sim_port: 80,
            max_conns: 16_384,
            poll_timeout_ms: 1,
        }
    }
}

/// Gateway counters (monotonic; snapshot via [`TcpGateway::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Real connections accepted and bridged.
    pub accepted: u64,
    /// Bridged connections fully torn down (both sides closed).
    pub closed: u64,
    /// Connections shed at the accept path: `EMFILE`/`ENFILE`
    /// descriptor exhaustion, or the [`TcpGatewayConfig::max_conns`]
    /// cap. Overload-style accounting — the poller never panics on
    /// these.
    pub accept_sheds: u64,
    /// Connections that died without an orderly close (`ECONNRESET`
    /// on read, or a dead peer discovered on write).
    pub resets: u64,
    /// Request bytes read from real sockets.
    pub rx_bytes: u64,
    /// Response bytes queued toward real sockets.
    pub tx_bytes: u64,
}

#[derive(Debug, Default)]
struct StatsCells {
    accepted: AtomicU64,
    closed: AtomicU64,
    accept_sheds: AtomicU64,
    resets: AtomicU64,
    rx_bytes: AtomicU64,
    tx_bytes: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> TcpStats {
        TcpStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            accept_sheds: self.accept_sheds.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            rx_bytes: self.rx_bytes.load(Ordering::Relaxed),
            tx_bytes: self.tx_bytes.load(Ordering::Relaxed),
        }
    }
}

type Waker = Box<dyn Fn() + Send>;

/// The poller's side of the [`TxSignal`] notifier: a socket pair whose
/// read end sits in the poller's epoll set.
struct FlushWake {
    /// The poller is in (or entering) `epoll_wait`: a flush request must
    /// write to the socket pair to reach it.
    armed: AtomicBool,
    /// A flush was requested; the poller must not block before it
    /// pumped.
    requested: AtomicBool,
    tx: UnixStream,
}

impl FlushWake {
    /// The server went idle with output pending. Writing is needed only
    /// while the poller is blocked; otherwise `requested` keeps it from
    /// blocking. (Both sides store, then read the other's flag, all
    /// SeqCst: at least one of them sees the other.)
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        if self.armed.swap(false, Ordering::SeqCst) {
            self.poke();
        }
    }

    /// Wakes the poller unconditionally. A full pipe already holds a
    /// wake-up, so `WouldBlock` is success.
    fn poke(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// One bridged connection, owned by the poller thread.
struct Bridged {
    /// The real socket (closing it deregisters it from epoll).
    fd: OwnedFd,
    /// Its [`SimNet`] twin.
    sim_fd: Fd,
    /// Response bytes awaiting a writable socket.
    wb: conn::WriteBuf,
    /// `EPOLLOUT` is currently armed.
    wants_write: bool,
    /// The real peer sent EOF (already forwarded as `client_close`).
    read_closed: bool,
    /// The server closed its side: tear down once `wb` is flushed.
    closing: bool,
}

/// The loopback TCP front-end: a listener plus a poller thread bridging
/// real sockets into a shared [`SimNet`] (see the module docs).
pub struct TcpGateway {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    finished: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    waker: Arc<Mutex<Option<Waker>>>,
    flush: Arc<FlushWake>,
    /// The network's signal and the notifier this gateway installed on
    /// it (removed again at shutdown).
    tx: Arc<TxSignal>,
    notifier: TxNotifier,
    poller: Option<JoinHandle<()>>,
}

impl TcpGateway {
    /// Binds `addr` (use port 0 for an ephemeral port), opens the
    /// [`SimNet`] listener on `cfg.sim_port`, installs the network's
    /// [`TxSignal`] notifier, and starts the poller thread. The returned
    /// gateway accepts immediately; attach the server's waker with
    /// [`TcpGateway::set_waker`] once it is installed.
    ///
    /// # Errors
    ///
    /// Fails if the bind fails or epoll is unavailable (non-Linux).
    pub fn bind(
        addr: &str,
        net: Arc<Mutex<SimNet>>,
        cfg: TcpGatewayConfig,
    ) -> io::Result<TcpGateway> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let ep = Epoll::new()?;
        ep.add(listener.as_raw_fd(), Interest::READ, LISTENER_TOKEN)?;
        let (flush_rx, flush_tx) = UnixStream::pair()?;
        flush_rx.set_nonblocking(true)?;
        flush_tx.set_nonblocking(true)?;
        ep.add(flush_rx.as_raw_fd(), Interest::READ, FLUSH_TOKEN)?;
        let flush = Arc::new(FlushWake {
            armed: AtomicBool::new(false),
            requested: AtomicBool::new(false),
            tx: flush_tx,
        });
        let notifier: TxNotifier = {
            let flush = Arc::clone(&flush);
            Arc::new(move || flush.request())
        };
        let tx = {
            let mut n = net.lock();
            n.listen(cfg.sim_port);
            n.tx_signal()
        };
        tx.set_notifier(Arc::clone(&notifier));

        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsCells::default());
        let waker: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let poller = {
            let poller = Poller {
                listener,
                ep,
                flush_rx,
                flush: Arc::clone(&flush),
                tx: Arc::clone(&tx),
                net,
                cfg,
                stop: Arc::clone(&stop),
                stats: Arc::clone(&stats),
                waker: Arc::clone(&waker),
            };
            std::thread::Builder::new()
                .name("mely-tcp-poller".into())
                .spawn(move || poller.run())
                .expect("spawn poller thread")
        };
        Ok(TcpGateway {
            local_addr,
            stop,
            finished,
            stats,
            waker,
            flush,
            tx,
            notifier,
            poller: Some(poller),
        })
    }

    /// The bound address real clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Installs the callback the poller invokes after forwarding client
    /// input (a connection, bytes, an EOF or a dead peer) —
    /// normally `SwsService::waker(..)`'s `wake` wrapped in a
    /// closure — so the server polls promptly instead of waiting out
    /// its fallback interval.
    pub fn set_waker(&self, wake: impl Fn() + Send + 'static) {
        *self.waker.lock() = Some(Box::new(wake));
    }

    /// A [`Driver`] for the server's poll loop: reports "not finished"
    /// until [`TcpGateway::shutdown`] completes, so the loop keeps
    /// re-arming while real clients may still connect.
    pub fn driver(&self) -> TcpDriver {
        TcpDriver {
            finished: Arc::clone(&self.finished),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TcpStats {
        self.stats.snapshot()
    }

    /// Stops the poller, closes the listener and every bridged socket,
    /// marks the [`TcpDriver`] finished, and returns the final
    /// counters.
    pub fn shutdown(mut self) -> TcpStats {
        self.stop_and_join();
        self.stats.snapshot()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.poller.take() {
            self.flush.poke();
            let _ = t.join();
        }
        // The network may outlive the gateway (a server's stages hold
        // it); drop the notifier so it no longer pins our socket pair.
        self.tx.clear_notifier(&self.notifier);
        self.finished.store(true, Ordering::Release);
    }
}

impl Drop for TcpGateway {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for TcpGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpGateway")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

/// The gateway's [`Driver`]: keeps the server's poll loop armed until
/// the gateway shuts down (real clients, unlike simulated ones, give no
/// advance notice of their next action, so `next_due` is `None` and the
/// loop falls back to its poll interval — the waker covers promptness).
#[derive(Debug, Clone)]
pub struct TcpDriver {
    finished: Arc<AtomicBool>,
}

impl Driver for TcpDriver {
    fn advance(&mut self, _net: &mut SimNet, _now: u64) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    fn next_due(&self, _now: u64) -> Option<u64> {
        None
    }
}

/// Everything the poller thread owns.
struct Poller {
    listener: TcpListener,
    ep: Epoll,
    flush_rx: UnixStream,
    flush: Arc<FlushWake>,
    tx: Arc<TxSignal>,
    net: Arc<Mutex<SimNet>>,
    cfg: TcpGatewayConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    waker: Arc<Mutex<Option<Waker>>>,
}

impl Poller {
    fn run(self) {
        let Poller {
            listener,
            ep,
            flush_rx,
            flush,
            tx,
            net,
            cfg,
            stop,
            stats,
            waker,
        } = self;
        let mut conns: HashMap<RawFd, Bridged> = HashMap::new();
        let mut ready = Vec::new();
        while !stop.load(Ordering::Acquire) {
            ready.clear();
            // Arm the notifier before deciding to block: a flush
            // requested from here on writes to the socket pair, and one
            // requested earlier is seen now and skips the wait.
            flush.armed.store(true, Ordering::SeqCst);
            let timeout = if flush.requested.swap(false, Ordering::SeqCst) {
                0
            } else {
                cfg.poll_timeout_ms
            };
            let waited = ep.wait(&mut ready, timeout);
            flush.armed.store(false, Ordering::SeqCst);
            if waited.is_err() {
                // Only non-EINTR errors reach here: the epoll fd itself
                // is broken, so readiness can no longer be observed.
                break;
            }
            let mut news = false;
            for r in ready.iter().copied() {
                match r.token {
                    LISTENER_TOKEN => {
                        news |= accept_burst(&listener, &ep, &net, &cfg, &stats, &mut conns);
                    }
                    FLUSH_TOKEN => drain_flush(&flush_rx),
                    _ => news |= conn_readiness(r, &ep, &net, &stats, &mut conns),
                }
            }
            // The response pump is an O(conns) sweep under the net lock:
            // run it exactly when the server wrote or closed something
            // since the last sweep. The waker runs only for news the
            // server must poll for, not for moving its own output.
            if tx.take() {
                news |= pump_responses(&ep, &net, &tx, &stats, &mut conns);
            }
            if news {
                if let Some(wake) = waker.lock().as_ref() {
                    wake();
                }
            }
        }
        // Teardown: every bridged socket that is still open counts as a
        // close, and its SimNet twin is closed so the server can reap it.
        let now = cycles::now();
        let mut n = net.lock();
        for (_, b) in conns.drain() {
            if !b.read_closed {
                n.client_close(b.sim_fd, now);
            }
            stats.closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Empties the notifier's socket (the bytes carry no data).
fn drain_flush(mut rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
}

/// Accepts until `EAGAIN`, bridging each socket into the [`SimNet`].
/// Descriptor exhaustion and the `max_conns` cap shed (with a counter)
/// instead of panicking.
fn accept_burst(
    listener: &TcpListener,
    ep: &Epoll,
    net: &Mutex<SimNet>,
    cfg: &TcpGatewayConfig,
    stats: &StatsCells,
    conns: &mut HashMap<RawFd, Bridged>,
) -> bool {
    let mut any = false;
    loop {
        // SAFETY: plain accept4 with no address out-parameters.
        let raw = unsafe {
            libc::accept4(
                listener.as_raw_fd(),
                std::ptr::null_mut(),
                std::ptr::null_mut(),
                libc::SOCK_NONBLOCK | libc::SOCK_CLOEXEC,
            )
        };
        if raw < 0 {
            match libc::errno() {
                libc::EINTR => continue,
                libc::EAGAIN => break,
                e if conn::is_fd_exhaustion(e) => {
                    // Out of descriptors: shed this accept burst and
                    // keep serving what we have. The pending backlog
                    // entry stays queued in the kernel; it is retried
                    // on the next readiness (by then fds may be free).
                    stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                _ => break,
            }
        }
        // SAFETY: `raw` is a freshly accepted descriptor we own.
        let owned = unsafe { OwnedFd::from_raw_fd(raw) };
        // Responses are written whole, as soon as the server has them:
        // with Nagle on, response i+1 would wait for the client's ACK of
        // response i, which rides on the client's next request.
        let sock = TcpStream::from(owned);
        let _ = sock.set_nodelay(true);
        let owned = OwnedFd::from(sock);
        if conns.len() >= cfg.max_conns {
            stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
            continue; // dropping `owned` closes the socket
        }
        let sim_fd = match net.lock().connect(cfg.sim_port, cycles::now()) {
            Some(fd) => fd,
            None => {
                // No listener on the sim port — nothing can serve this.
                stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        if ep.add(raw, Interest::READ, raw as u64).is_err() {
            stats.accept_sheds.fetch_add(1, Ordering::Relaxed);
            net.lock().client_close(sim_fd, cycles::now());
            continue;
        }
        conns.insert(
            raw,
            Bridged {
                fd: owned,
                sim_fd,
                wb: conn::WriteBuf::default(),
                wants_write: false,
                read_closed: false,
                closing: false,
            },
        );
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        any = true;
    }
    any
}

/// Handles readiness on one bridged connection: drains request bytes
/// into the [`SimNet`], forwards EOF/reset, flushes on writability.
/// Returns whether the server has news (bytes, EOF or a dead peer).
fn conn_readiness(
    r: epoll::Ready,
    ep: &Epoll,
    net: &Mutex<SimNet>,
    stats: &StatsCells,
    conns: &mut HashMap<RawFd, Bridged>,
) -> bool {
    let raw = r.token as RawFd;
    let Some(b) = conns.get_mut(&raw) else {
        return false; // already torn down this iteration
    };
    let mut news = false;
    if (r.readable || r.hangup) && !b.read_closed {
        let mut data = Vec::new();
        let outcome = drain_reads(b.fd.as_raw_fd(), &mut data);
        let now = cycles::now();
        if !data.is_empty() {
            stats
                .rx_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
            net.lock().client_write(b.sim_fd, now, data);
            news = true;
        }
        match outcome {
            ReadOutcome::WouldBlock => {}
            ReadOutcome::Eof => {
                // Orderly half-close: forward the EOF, keep the write
                // side open until the server's close becomes visible.
                b.read_closed = true;
                net.lock().client_close(b.sim_fd, now);
                news = true;
            }
            ReadOutcome::Reset => {
                stats.resets.fetch_add(1, Ordering::Relaxed);
                net.lock().client_close(b.sim_fd, now);
                conns.remove(&raw); // dropping the OwnedFd closes it
                return true;
            }
        }
    }
    if r.writable {
        if let Some(b) = conns.get_mut(&raw) {
            match b.wb.flush(b.fd.as_raw_fd()) {
                WriteOutcome::Drained if b.closing => {
                    conns.remove(&raw); // the server's close, now mirrored
                    stats.closed.fetch_add(1, Ordering::Relaxed);
                }
                WriteOutcome::Drained => {
                    if b.wants_write && ep.modify(raw, Interest::READ, raw as u64).is_ok() {
                        b.wants_write = false;
                    }
                }
                WriteOutcome::Blocked => {}
                WriteOutcome::Closed => {
                    stats.resets.fetch_add(1, Ordering::Relaxed);
                    net.lock().client_close(b.sim_fd, cycles::now());
                    conns.remove(&raw);
                    return true;
                }
            }
        }
    }
    news
}

/// Moves server responses from the [`SimNet`] toward the real sockets
/// and tears down connections whose server side closed. Runs when the
/// [`TxSignal`] was marked; one `net` lock for the whole sweep. Returns
/// whether the server has news: a peer found dead on write. Moving its
/// own output is none, so it wakes nobody.
fn pump_responses(
    ep: &Epoll,
    net: &Mutex<SimNet>,
    tx: &TxSignal,
    stats: &StatsCells,
    conns: &mut HashMap<RawFd, Bridged>,
) -> bool {
    let mut news = false;
    {
        let mut n = net.lock();
        let now = cycles::now();
        for b in conns.values_mut() {
            let data = n.client_read(b.sim_fd, now);
            if !data.is_empty() {
                stats
                    .tx_bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                b.wb.queue(&data);
            }
            b.closing |= n.client_sees_close(b.sim_fd, now);
            if n.client_next_visibility(b.sim_fd, now).is_some() {
                // Output not visible yet (a network with a propagation
                // delay): keep the signal marked so a later sweep
                // delivers it.
                tx.mark();
            }
        }
    }
    // Flush outside the net lock: write syscalls must not stall the
    // server's stages. A drained connection whose server side closed is
    // torn down here; one whose flush blocked is torn down by the
    // writable path once its tail drains.
    let mut gone: Vec<(RawFd, bool)> = Vec::new();
    for (&raw, b) in conns.iter_mut() {
        if b.wb.is_empty() {
            if b.closing {
                gone.push((raw, false));
            }
            continue;
        }
        match b.wb.flush(b.fd.as_raw_fd()) {
            WriteOutcome::Drained => {
                if b.closing {
                    gone.push((raw, false));
                } else if b.wants_write && ep.modify(raw, Interest::READ, raw as u64).is_ok() {
                    b.wants_write = false;
                }
            }
            WriteOutcome::Blocked => {
                if !b.wants_write && ep.modify(raw, Interest::READ_WRITE, raw as u64).is_ok() {
                    b.wants_write = true;
                }
            }
            WriteOutcome::Closed => {
                stats.resets.fetch_add(1, Ordering::Relaxed);
                gone.push((raw, true));
            }
        }
    }
    let now = cycles::now();
    for (raw, reset) in gone {
        let b = conns.remove(&raw).expect("present");
        if reset {
            net.lock().client_close(b.sim_fd, now);
            news = true;
        } else {
            stats.closed.fetch_add(1, Ordering::Relaxed);
        }
        drop(b); // closes the real fd, deregistering it from epoll
    }
    news
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::NetConfig;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn gateway(cfg: TcpGatewayConfig) -> (TcpGateway, Arc<Mutex<SimNet>>) {
        let net = Arc::new(Mutex::new(SimNet::new(NetConfig { one_way_delay: 0 })));
        let gw = TcpGateway::bind("127.0.0.1:0", Arc::clone(&net), cfg).expect("bind");
        (gw, net)
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "condition not reached in 5s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn bridges_request_bytes_into_the_simnet() {
        let (gw, net) = gateway(TcpGatewayConfig::default());
        let mut c = TcpStream::connect(gw.local_addr()).unwrap();
        c.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // The sim side must observe: a pending accept, then the bytes.
        wait_until(|| {
            let mut n = net.lock();
            let now = cycles::now();
            n.accept(80, now).is_some() || n.stats().accepted > 0
        });
        let sim_fd = 0; // first connection
        wait_until(|| {
            let mut n = net.lock();
            let now = cycles::now();
            !n.read(sim_fd, now).is_empty() || n.stats().bytes_received > 0
        });
        assert_eq!(gw.stats().accepted, 1);
        assert!(gw.stats().rx_bytes >= 18);
        drop(c);
        let stats = gw.shutdown();
        assert_eq!(stats.accepted, 1);
    }

    #[test]
    fn responses_flow_back_and_server_close_closes_the_socket() {
        let (gw, net) = gateway(TcpGatewayConfig::default());
        let mut c = TcpStream::connect(gw.local_addr()).unwrap();
        c.write_all(b"ping").unwrap();
        // Act as the server: accept, read, respond, close.
        wait_until(|| {
            let mut n = net.lock();
            let now = cycles::now();
            if n.accept(80, now).is_some() {
                return true;
            }
            n.stats().accepted > 0
        });
        let sim_fd = 0;
        wait_until(|| {
            let mut n = net.lock();
            let now = cycles::now();
            n.read(sim_fd, now) == b"ping" || n.stats().bytes_received == 4
        });
        {
            let mut n = net.lock();
            let now = cycles::now();
            n.write(sim_fd, now, b"pong".to_vec());
            n.close(sim_fd, now);
        }
        let mut got = Vec::new();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.read_to_end(&mut got).unwrap(); // until server-side close
        assert_eq!(got, b"pong");
        let stats = gw.shutdown();
        assert_eq!(stats.closed, 1, "orderly teardown counted");
        assert_eq!(stats.tx_bytes, 4);
        assert_eq!(stats.resets, 0);
    }

    #[test]
    fn max_conns_cap_sheds_with_a_counter() {
        let (gw, _net) = gateway(TcpGatewayConfig {
            max_conns: 1,
            ..TcpGatewayConfig::default()
        });
        let _keep = TcpStream::connect(gw.local_addr()).unwrap();
        wait_until(|| gw.stats().accepted == 1);
        let shed = TcpStream::connect(gw.local_addr()).unwrap();
        wait_until(|| gw.stats().accept_sheds >= 1);
        // The shed socket is closed by the gateway, not served.
        let mut shed = shed;
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(shed.read(&mut buf).unwrap(), 0, "gateway closed it");
        let stats = gw.shutdown();
        assert_eq!(stats.accepted, 1);
        assert!(stats.accept_sheds >= 1);
    }

    #[test]
    fn client_reset_is_forwarded_and_counted() {
        let (gw, net) = gateway(TcpGatewayConfig::default());
        let mut c = TcpStream::connect(gw.local_addr()).unwrap();
        c.write_all(b"ping").unwrap();
        wait_until(|| {
            let mut n = net.lock();
            let now = cycles::now();
            let _ = n.accept(80, now);
            n.read(0, now) == b"ping" || n.stats().bytes_received == 4
        });
        // Serve a response the client never reads: closing a socket
        // with unread receive-buffer data makes the kernel send RST.
        net.lock().write(0, cycles::now(), b"pong".to_vec());
        wait_until(|| gw.stats().tx_bytes == 4);
        std::thread::sleep(Duration::from_millis(20)); // let the flush land
        drop(c);
        wait_until(|| {
            gw.stats().resets == 1 || {
                // Some kernels surface this as a clean EOF instead;
                // either way the sim side must see the close.
                let n = net.lock();
                n.peer_closed(0, cycles::now())
            }
        });
        let _ = gw.shutdown();
    }

    #[test]
    fn bridged_sockets_disable_nagle() {
        let (gw, _net) = gateway(TcpGatewayConfig::default());
        let c = TcpStream::connect(gw.local_addr()).unwrap();
        wait_until(|| gw.stats().accepted == 1);
        let (client, server) = (c.local_addr().unwrap(), gw.local_addr());
        // The accepted end lives in this process: find it by its
        // addresses among our descriptors.
        let bridged = std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<RawFd>().ok())
            .find_map(|fd| {
                // SAFETY: borrowed and never closed (ManuallyDrop); on a
                // descriptor that is not a socket, or no longer open,
                // the queries below just fail.
                let s = std::mem::ManuallyDrop::new(unsafe { TcpStream::from_raw_fd(fd) });
                let ours = s.peer_addr().ok()? == client && s.local_addr().ok()? == server;
                ours.then(|| s.nodelay().ok()).flatten()
            });
        assert_eq!(bridged, Some(true), "TCP_NODELAY on the bridged socket");
        drop(c);
        gw.shutdown();
    }

    #[test]
    fn firing_the_signal_flushes_without_waiting_for_the_poll_timeout() {
        let (gw, net) = gateway(TcpGatewayConfig {
            poll_timeout_ms: 10_000,
            ..TcpGatewayConfig::default()
        });
        let mut c = TcpStream::connect(gw.local_addr()).unwrap();
        c.write_all(b"ping").unwrap();
        wait_until(|| {
            let mut n = net.lock();
            let now = cycles::now();
            let _ = n.accept(80, now);
            n.read(0, now) == b"ping" || n.stats().bytes_received == 4
        });
        // Let the poller settle into its long wait before the server
        // answers.
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        net.lock().write(0, cycles::now(), b"pong".to_vec());
        net.lock().tx_signal().fire();
        let mut got = [0u8; 4];
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.read_exact(&mut got).unwrap();
        let waited = t0.elapsed();
        assert_eq!(&got, b"pong");
        assert!(
            waited < Duration::from_millis(1_000),
            "response waited {waited:?} for a 10 s poll timeout"
        );
        let t0 = Instant::now();
        gw.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(1_000),
            "shutdown wakes the poller"
        );
    }

    #[test]
    fn driver_finishes_only_after_shutdown() {
        let (gw, net) = gateway(TcpGatewayConfig::default());
        let mut d = gw.driver();
        let mut n = SimNet::new(NetConfig::default());
        assert!(!d.advance(&mut n, 0), "live gateway: not finished");
        assert_eq!(d.next_due(0), None);
        drop(net);
        gw.shutdown();
        assert!(d.advance(&mut n, 0), "shutdown marks the driver done");
    }
}
