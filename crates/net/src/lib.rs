//! In-memory simulated network: listeners, connections, byte streams and
//! a readiness interface (the role `epoll` plays in the paper's runtime,
//! Section IV-C).
//!
//! This reproduction has no physical testbed network, so the two system
//! services (SWS, SFS) and the load injector communicate through this
//! substrate instead. The shape of the API mirrors what the servers'
//! `Epoll` handler needs:
//!
//! - the server `listen`s on ports, `poll`s for readiness events
//!   ([`NetEvent::Acceptable`], [`NetEvent::Readable`],
//!   [`NetEvent::PeerClosed`]), `accept`s, `read`s, `write`s and
//!   `close`s file descriptors;
//! - clients (the load generator) `connect`, `client_write`,
//!   `client_read` and `client_close`.
//!
//! Every transfer carries a *visibility timestamp*: data written at time
//! `t` becomes readable by the peer at `t + one_way_delay`, so the
//! simulation executor sees realistic request/response latencies, and
//! `next_activity` tells the server's poll loop when to re-arm. Time is
//! just a `u64` cycle count — virtual cycles under the simulator, the
//! cycle counter under the threaded executor.
//!
//! One [`TxSignal`] per network tells a real-socket front-end that the
//! server has output for it: server-side `write` and `close` mark it,
//! the server fires it when it has nothing left in flight, and the
//! front-end takes it before it moves responses (see
//! [`tcp`]).
//!
//! # Examples
//!
//! ```
//! use mely_net::{NetConfig, NetEvent, SimNet};
//!
//! let mut net = SimNet::new(NetConfig { one_way_delay: 100 });
//! net.listen(80);
//! let fd = net.connect(80, 0).unwrap();
//! net.client_write(fd, 0, b"GET / HTTP/1.1\r\n\r\n".to_vec());
//!
//! // Nothing is visible server-side before the propagation delay.
//! assert!(net.poll(50).is_empty());
//! let events = net.poll(100);
//! assert_eq!(events[0], NetEvent::Acceptable(80));
//! let accepted = net.accept(80, 100).unwrap();
//! assert_eq!(accepted, fd);
//! assert_eq!(net.read(fd, 100), b"GET / HTTP/1.1\r\n\r\n".to_vec());
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

pub mod driver;
pub mod inject;
#[cfg(unix)]
pub mod tcp;

/// Network parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// One-way propagation delay in cycles (half the RTT).
    pub one_way_delay: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        // ~8.6 µs at 2.33 GHz: a switched gigabit LAN like the testbed's.
        NetConfig {
            one_way_delay: 20_000,
        }
    }
}

/// A connection identifier (monotonically increasing, never reused, so
/// per-connection colors cannot collide with in-flight events).
pub type Fd = u64;

/// Readiness event reported by [`SimNet::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A listener has pending connections to accept.
    Acceptable(u16),
    /// An accepted connection has readable bytes.
    Readable(Fd),
    /// The client closed its side and everything has been read.
    PeerClosed(Fd),
}

/// One direction of a connection: timestamped segments.
#[derive(Debug, Default)]
struct HalfStream {
    segs: VecDeque<(u64, Vec<u8>)>,
    closed_at: Option<u64>,
}

impl HalfStream {
    fn write(&mut self, visible_at: u64, data: Vec<u8>) {
        if !data.is_empty() {
            self.segs.push_back((visible_at, data));
        }
    }

    fn readable_len(&self, now: u64) -> usize {
        self.segs
            .iter()
            .take_while(|(t, _)| *t <= now)
            .map(|(_, d)| d.len())
            .sum()
    }

    fn read_all(&mut self, now: u64) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some((t, _)) = self.segs.front() {
            if *t > now {
                break;
            }
            let (_, d) = self.segs.pop_front().expect("peeked");
            out.extend_from_slice(&d);
        }
        out
    }

    fn next_visibility(&self, now: u64) -> Option<u64> {
        let seg = self.segs.iter().map(|(t, _)| *t).find(|&t| t > now);
        let close = self.closed_at.filter(|&t| t > now);
        match (seg, close) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[derive(Debug)]
struct Conn {
    /// Client-to-server bytes.
    c2s: HalfStream,
    /// Server-to-client bytes.
    s2c: HalfStream,
    accepted: bool,
    server_closed: bool,
    /// Set once `PeerClosed` was both visible and reported/consumed.
    hup_reported: bool,
}

/// A notifier installed on a [`TxSignal`].
pub(crate) type TxNotifier = Arc<dyn Fn() + Send + Sync>;

/// The "server output is waiting" bit of one [`SimNet`], with an
/// optional notifier for whoever moves that output to real clients.
///
/// - [`SimNet::write`] and [`SimNet::close`] **mark** it;
/// - the server **fires** it ([`TxSignal::fire`]) when it has nothing
///   left in flight, which runs the notifier if output is marked;
/// - the consumer **takes** it (`take`) and then reads the
///   server's output under the network's lock.
///
/// Marking happens under the network's lock and the consumer reads
/// under it after taking, so no output is stranded: a write the
/// consumer's read missed marks the bit again after the take.
#[derive(Default)]
pub struct TxSignal {
    pending: AtomicBool,
    notifier: Mutex<Option<TxNotifier>>,
}

impl TxSignal {
    /// Marks server output pending.
    pub(crate) fn mark(&self) {
        // Skip the store while already marked: at full load this keeps
        // the bit's cache line shared between writers. A stale `true`
        // is harmless — the take it hides is followed by a read under
        // the network lock, after this write's critical section.
        if !self.pending.load(Ordering::Relaxed) {
            self.pending.store(true, Ordering::SeqCst);
        }
    }

    /// Whether output is marked.
    fn is_pending(&self) -> bool {
        self.pending.load(Ordering::SeqCst)
    }

    /// Consumes the mark; returns whether it was set.
    pub(crate) fn take(&self) -> bool {
        self.is_pending() && self.pending.swap(false, Ordering::SeqCst)
    }

    /// The server went idle: if output is marked, runs the notifier.
    pub fn fire(&self) {
        if self.is_pending() {
            let notifier = self.notifier.lock().clone();
            if let Some(notify) = notifier {
                notify();
            }
        }
    }

    /// Installs the notifier [`TxSignal::fire`] runs (replacing any
    /// earlier one).
    pub(crate) fn set_notifier(&self, notify: TxNotifier) {
        *self.notifier.lock() = Some(notify);
    }

    /// Removes `notify` if it is still the installed notifier.
    pub(crate) fn clear_notifier(&self, notify: &TxNotifier) {
        let mut slot = self.notifier.lock();
        if slot.as_ref().is_some_and(|n| Arc::ptr_eq(n, notify)) {
            *slot = None;
        }
    }
}

impl fmt::Debug for TxSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxSignal")
            .field("pending", &self.is_pending())
            .field("notifier", &self.notifier.lock().is_some())
            .finish()
    }
}

/// The simulated network fabric.
#[derive(Debug, Default)]
pub struct SimNet {
    cfg: NetConfig,
    /// Marked by server-side writes and closes (see [`TxSignal`]).
    tx: Arc<TxSignal>,
    listeners: BTreeMap<u16, VecDeque<(u64, Fd)>>,
    conns: BTreeMap<Fd, Conn>,
    next_fd: Fd,
    /// Counters for reports.
    bytes_c2s: u64,
    bytes_s2c: u64,
    accepted_total: u64,
}

impl SimNet {
    /// Creates a network with the given parameters.
    pub fn new(cfg: NetConfig) -> Self {
        SimNet {
            cfg,
            ..SimNet::default()
        }
    }

    /// The configured one-way delay.
    pub fn one_way_delay(&self) -> u64 {
        self.cfg.one_way_delay
    }

    /// Opens a listener on `port` (idempotent).
    pub fn listen(&mut self, port: u16) {
        self.listeners.entry(port).or_default();
    }

    /// Client side: opens a connection to `port` at time `now`. The
    /// server sees it `one_way_delay` later. Returns `None` if nobody
    /// listens on `port`.
    pub fn connect(&mut self, port: u16, now: u64) -> Option<Fd> {
        if !self.listeners.contains_key(&port) {
            return None;
        }
        let fd = self.next_fd;
        self.next_fd += 1;
        self.conns.insert(
            fd,
            Conn {
                c2s: HalfStream::default(),
                s2c: HalfStream::default(),
                accepted: false,
                server_closed: false,
                hup_reported: false,
            },
        );
        self.listeners
            .get_mut(&port)
            .expect("listener exists")
            .push_back((now + self.cfg.one_way_delay, fd));
        Some(fd)
    }

    /// Server side: readiness scan at time `now` (level-triggered).
    pub fn poll(&mut self, now: u64) -> Vec<NetEvent> {
        let mut out = Vec::new();
        for (&port, backlog) in &self.listeners {
            if backlog.front().is_some_and(|(t, _)| *t <= now) {
                out.push(NetEvent::Acceptable(port));
            }
        }
        for (&fd, conn) in &mut self.conns {
            if !conn.accepted || conn.server_closed {
                continue;
            }
            if conn.c2s.readable_len(now) > 0 {
                out.push(NetEvent::Readable(fd));
            } else if conn.c2s.closed_at.is_some_and(|t| t <= now) && !conn.hup_reported {
                out.push(NetEvent::PeerClosed(fd));
                conn.hup_reported = true;
            }
        }
        out
    }

    /// Server side: accepts one pending connection on `port`.
    pub fn accept(&mut self, port: u16, now: u64) -> Option<Fd> {
        let backlog = self.listeners.get_mut(&port)?;
        match backlog.front() {
            Some(&(t, fd)) if t <= now => {
                backlog.pop_front();
                self.conns
                    .get_mut(&fd)
                    .expect("pending conn exists")
                    .accepted = true;
                self.accepted_total += 1;
                Some(fd)
            }
            _ => None,
        }
    }

    /// Server side: reads every visible byte from `fd`.
    pub fn read(&mut self, fd: Fd, now: u64) -> Vec<u8> {
        match self.conns.get_mut(&fd) {
            Some(c) => {
                let d = c.c2s.read_all(now);
                self.bytes_c2s += d.len() as u64;
                d
            }
            None => Vec::new(),
        }
    }

    /// Server side: sends bytes to the client (visible after the one-way
    /// delay). Marks the [`TxSignal`].
    pub fn write(&mut self, fd: Fd, now: u64, data: Vec<u8>) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            if !c.server_closed {
                self.bytes_s2c += data.len() as u64;
                c.s2c.write(now + delay, data);
                self.tx.mark();
            }
        }
    }

    /// Server side: closes the server half of `fd` at `now`. Marks the
    /// [`TxSignal`].
    pub fn close(&mut self, fd: Fd, now: u64) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            c.server_closed = true;
            if c.s2c.closed_at.is_none() {
                c.s2c.closed_at = Some(now + delay);
            }
            self.tx.mark();
        }
    }

    /// This network's server-output signal (shared: fire and take it
    /// without holding the network's lock).
    pub fn tx_signal(&self) -> Arc<TxSignal> {
        Arc::clone(&self.tx)
    }

    /// Client side: earliest time after `now` at which more
    /// server-to-client data (or the server's close) becomes visible on
    /// `fd`. Lets closed-loop clients sleep exactly until their response
    /// arrives.
    pub fn client_next_visibility(&self, fd: Fd, now: u64) -> Option<u64> {
        self.conns.get(&fd).and_then(|c| c.s2c.next_visibility(now))
    }

    /// Server side: earliest time after `now` at which more
    /// client-to-server data becomes visible on `fd`.
    pub fn server_next_visibility(&self, fd: Fd, now: u64) -> Option<u64> {
        self.conns.get(&fd).and_then(|c| c.c2s.next_visibility(now))
    }

    /// Client side: bytes currently readable on `fd`.
    pub fn client_readable_len(&self, fd: Fd, now: u64) -> usize {
        self.conns.get(&fd).map_or(0, |c| c.s2c.readable_len(now))
    }

    /// Client side: reads every visible byte.
    pub fn client_read(&mut self, fd: Fd, now: u64) -> Vec<u8> {
        match self.conns.get_mut(&fd) {
            Some(c) => c.s2c.read_all(now),
            None => Vec::new(),
        }
    }

    /// Client side: whether the server closed the connection (and all
    /// data has been read). A reaped (fully torn down) connection also
    /// reads as closed.
    pub fn client_sees_close(&self, fd: Fd, now: u64) -> bool {
        self.conns.get(&fd).is_none_or(|c| {
            c.s2c.closed_at.is_some_and(|t| t <= now) && c.s2c.readable_len(now) == 0
        })
    }

    /// Client side: sends bytes to the server.
    pub fn client_write(&mut self, fd: Fd, now: u64, data: Vec<u8>) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            c.c2s.write(now + delay, data);
        }
    }

    /// Client side: closes the client half at `now` (server sees EOF
    /// after the delay).
    pub fn client_close(&mut self, fd: Fd, now: u64) {
        let delay = self.cfg.one_way_delay;
        if let Some(c) = self.conns.get_mut(&fd) {
            if c.c2s.closed_at.is_none() {
                c.c2s.closed_at = Some(now + delay);
            }
        }
    }

    /// Server side: whether the client's half is closed (EOF visible)
    /// and every byte has been drained. Unknown (reaped) descriptors
    /// read as closed.
    pub fn peer_closed(&self, fd: Fd, now: u64) -> bool {
        self.conns.get(&fd).is_none_or(|c| {
            c.c2s.closed_at.is_some_and(|t| t <= now) && c.c2s.readable_len(now) == 0
        })
    }

    /// Drops a fully closed connection's state.
    pub fn reap(&mut self, fd: Fd) {
        self.conns.remove(&fd);
    }

    /// Earliest time after `now` at which new data or a new connection
    /// becomes visible anywhere (used by poll loops to re-arm).
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut consider = |t: Option<u64>| {
            if let Some(t) = t {
                best = Some(best.map_or(t, |b: u64| b.min(t)));
            }
        };
        for backlog in self.listeners.values() {
            consider(backlog.iter().map(|(t, _)| *t).find(|&t| t > now));
        }
        for c in self.conns.values() {
            consider(c.c2s.next_visibility(now));
            consider(c.s2c.next_visibility(now));
        }
        best
    }

    /// Total bytes the server received / sent, and connections accepted.
    pub fn stats(&self) -> NetStats {
        NetStats {
            bytes_received: self.bytes_c2s,
            bytes_sent: self.bytes_s2c,
            accepted: self.accepted_total,
        }
    }

    /// Live (unreaped) connections.
    pub fn live_conns(&self) -> usize {
        self.conns.len()
    }
}

/// Aggregate transfer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Bytes the server read from clients.
    pub bytes_received: u64,
    /// Bytes the server wrote to clients.
    pub bytes_sent: u64,
    /// Connections accepted by the server.
    pub accepted: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rx={}B tx={}B accepted={}",
            self.bytes_received, self.bytes_sent, self.accepted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> SimNet {
        SimNet::new(NetConfig { one_way_delay: 100 })
    }

    #[test]
    fn connect_requires_listener() {
        let mut n = net();
        assert!(n.connect(80, 0).is_none());
        n.listen(80);
        assert!(n.connect(80, 0).is_some());
    }

    #[test]
    fn accept_respects_propagation_delay() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 50).unwrap();
        assert!(n.accept(80, 149).is_none());
        assert_eq!(n.accept(80, 150), Some(fd));
        assert!(n.accept(80, 150).is_none(), "backlog drained");
    }

    #[test]
    fn data_flows_both_ways_with_delay() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"req".to_vec());
        assert!(n.read(fd, 150).is_empty());
        assert_eq!(n.read(fd, 200), b"req");
        n.write(fd, 200, b"resp".to_vec());
        assert_eq!(n.client_readable_len(fd, 250), 0);
        assert_eq!(n.client_read(fd, 300), b"resp");
    }

    #[test]
    fn poll_reports_acceptable_readable_hup_once() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        assert!(n.poll(99).is_empty());
        assert_eq!(n.poll(100), vec![NetEvent::Acceptable(80)]);
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"x".to_vec());
        assert_eq!(n.poll(200), vec![NetEvent::Readable(fd)]);
        n.read(fd, 200);
        assert!(n.poll(200).is_empty());
        n.client_close(fd, 200);
        assert_eq!(n.poll(300), vec![NetEvent::PeerClosed(fd)]);
        assert!(n.poll(300).is_empty(), "hup reported once");
    }

    #[test]
    fn hup_waits_until_data_drained() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"last".to_vec());
        n.client_close(fd, 100);
        // Readable first; no HUP while data pending.
        assert_eq!(n.poll(200), vec![NetEvent::Readable(fd)]);
        n.read(fd, 200);
        assert_eq!(n.poll(200), vec![NetEvent::PeerClosed(fd)]);
    }

    #[test]
    fn server_close_visible_to_client() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.write(fd, 100, b"bye".to_vec());
        n.close(fd, 100);
        assert!(!n.client_sees_close(fd, 150));
        // Data must be drained before close is observed.
        assert!(!n.client_sees_close(fd, 200) || n.client_readable_len(fd, 200) == 0);
        n.client_read(fd, 200);
        assert!(n.client_sees_close(fd, 200));
        n.reap(fd);
        assert_eq!(n.live_conns(), 0);
    }

    #[test]
    fn closed_server_side_ignores_writes_and_polls() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.close(fd, 100);
        n.write(fd, 150, b"ignored".to_vec());
        n.client_read(fd, 10_000);
        assert!(n.client_sees_close(fd, 10_000));
        n.client_write(fd, 200, b"late".to_vec());
        assert!(n.poll(1_000).is_empty(), "closed conns are not polled");
    }

    #[test]
    fn next_activity_finds_earliest_future_event() {
        let mut n = net();
        n.listen(80);
        assert_eq!(n.next_activity(0), None);
        let fd = n.connect(80, 0).unwrap(); // visible at 100
        n.client_write(fd, 50, b"x".to_vec()); // visible at 150
        assert_eq!(n.next_activity(0), Some(100));
        assert_eq!(n.next_activity(100), Some(150));
        assert_eq!(n.next_activity(150), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, vec![0; 10]);
        n.read(fd, 300);
        n.write(fd, 300, vec![0; 20]);
        let s = n.stats();
        assert_eq!(s.bytes_received, 10);
        assert_eq!(s.bytes_sent, 20);
        assert_eq!(s.accepted, 1);
        assert!(s.to_string().contains("rx=10B"));
    }

    #[test]
    fn server_output_marks_the_tx_signal_and_fire_notifies() {
        use std::sync::atomic::AtomicU64;
        let mut n = net();
        let tx = n.tx_signal();
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        let notify: TxNotifier = Arc::new(move || {
            f.fetch_add(1, Ordering::Relaxed);
        });
        tx.set_notifier(Arc::clone(&notify));
        n.listen(80);
        let fd = n.connect(80, 0).unwrap();
        n.accept(80, 100).unwrap();
        n.client_write(fd, 100, b"req".to_vec());
        tx.fire();
        assert!(!tx.is_pending(), "client-side traffic does not mark");
        assert_eq!(fired.load(Ordering::Relaxed), 0, "nothing to notify");
        n.write(fd, 200, b"resp".to_vec());
        tx.fire();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert!(tx.take(), "the write marked it");
        assert!(!tx.take(), "taken once");
        n.close(fd, 300);
        assert!(tx.take(), "close marks it too");
        tx.clear_notifier(&notify);
        tx.mark();
        tx.fire();
        assert_eq!(fired.load(Ordering::Relaxed), 1, "cleared notifier");
    }

    #[test]
    fn fds_are_never_reused() {
        let mut n = net();
        n.listen(80);
        let a = n.connect(80, 0).unwrap();
        n.reap(a);
        let b = n.connect(80, 0).unwrap();
        assert_ne!(a, b);
    }
}
