//! Outside-in tracing: wrappers around the two hooks the server exposes
//! to its load — the [`Driver`] its poll loop advances and the wake
//! callback the TCP gateway's poller invokes. Both record only while
//! [`ServerTrace::on`] is set, keep what they record in memory, and are
//! read after the run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mely_repro::core::cycles;
use mely_repro::net::driver::Driver;
use mely_repro::net::SimNet;

/// Counters and samples recorded at the server's two outside hooks.
#[derive(Debug, Default)]
pub struct ServerTrace {
    /// Recording switch (flipped per traced window).
    pub on: AtomicBool,
    /// `Driver::advance` calls while on: one per `Epoll` stage pass.
    pub polls: AtomicU64,
    /// Gaps between consecutive `advance` calls, in the executor's
    /// cycles (virtual on the sim).
    pub poll_gaps: Mutex<Vec<u64>>,
    /// Wall TSC cycles spent inside the wrapped driver's `advance`.
    pub driver_cycles: AtomicU64,
    /// Wake callbacks while on.
    pub wakes: AtomicU64,
    /// TSC cycles spent inside each `SwsWaker::wake`.
    pub wake_cycles: Mutex<Vec<u64>>,
}

impl ServerTrace {
    pub fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Wraps a wake function so each call is counted and timed.
    pub fn wrap_wake(self: &Arc<Self>, wake: impl Fn() + Send + 'static) -> impl Fn() + Send {
        let trace = Arc::clone(self);
        move || {
            if !trace.recording() {
                return wake();
            }
            let t0 = cycles::now();
            wake();
            let dt = cycles::now().wrapping_sub(t0);
            trace.wakes.fetch_add(1, Ordering::Relaxed);
            trace.wake_cycles.lock().push(dt);
        }
    }
}

/// A [`Driver`] that forwards to `inner` and records each `advance`.
pub struct TracedDriver<D> {
    pub inner: D,
    trace: Arc<ServerTrace>,
    last: Option<u64>,
}

impl<D> TracedDriver<D> {
    pub fn new(inner: D, trace: Arc<ServerTrace>) -> Self {
        TracedDriver {
            inner,
            trace,
            last: None,
        }
    }
}

impl<D: Driver> Driver for TracedDriver<D> {
    fn advance(&mut self, net: &mut SimNet, now: u64) -> bool {
        if !self.trace.recording() {
            self.last = None;
            return self.inner.advance(net, now);
        }
        self.trace.polls.fetch_add(1, Ordering::Relaxed);
        if let Some(last) = self.last.replace(now) {
            self.trace.poll_gaps.lock().push(now.saturating_sub(last));
        }
        let t0 = cycles::now();
        let done = self.inner.advance(net, now);
        self.trace
            .driver_cycles
            .fetch_add(cycles::now().wrapping_sub(t0), Ordering::Relaxed);
        done
    }

    fn next_due(&self, now: u64) -> Option<u64> {
        self.inner.next_due(now)
    }
}
