//! The threaded executor: one OS thread per simulated core.
//!
//! This is the "real" runtime: per-core queues protected by cache-padded
//! spinlocks ([`crate::sync::SpinLock`]), events executed by the core's
//! thread, idle cores running the workstealing algorithm. It executes the
//! same queue and policy code as the simulator; an event's declared cost
//! is materialised by busy-spinning the cycle counter, and its action
//! closure runs for real.
//!
//! Two deliberate deviations from the paper's implementation, both
//! documented here for reviewers:
//!
//! - **No thread pinning.** The paper pins threads with
//!   `pthread_setaffinity_np`; this reproduction must run on machines
//!   with fewer physical cores than simulated ones, so workers are plain
//!   threads. On a real 8-core host the scheduler keeps them apart; all
//!   cycle-accurate claims are made by the simulation executor instead.
//! - **Two-lock migration.** Figure 2 releases the victim's lock before
//!   taking the thief's. With concurrent producers routing new events
//!   through the color map, that window could place events of one color
//!   on two cores. The threaded executor therefore performs
//!   detach + color-map update + absorb while holding both locks,
//!   acquired in core-id order (deadlock-free). The simulator charges
//!   costs per the paper's original sequence.
//!
//! One deliberate *extension* beyond the paper's implementation:
//!
//! - **Lock-free injection inboxes.** External producers (a cloned
//!   [`RuntimeHandle`], the timer heap, the load-generation layers) do
//!   not take the destination core's spinlock per event; they push onto
//!   the core's [`InjectionInbox`] — a lock-free MPSC stack — and the
//!   core merges the whole backlog into its queue under a single lock
//!   acquisition at dispatch-loop boundaries. The color invariant is
//!   preserved because the drain re-checks the color map under the
//!   core's own lock (exactly the guarantee the two-lock migration
//!   relies on) and re-routes any event whose color has been stolen in
//!   the meantime. See [`inbox`] for the data structure and
//!   [`RuntimeHandle::inject_locked`] for the legacy per-event-lock
//!   path (kept for benchmarking the difference). The steady-state
//!   dispatch path is allocation-free end to end: the inbox recycles
//!   its Treiber nodes, each worker reuses one drain buffer across
//!   iterations, and the Mely queue pools freed color-queue buffers
//!   (surfaced as the `inbox_node_reuse` / `queue_buf_reuse` counters
//!   in [`CoreMetrics`]). Steal attempts reuse per-worker load and
//!   victim buffers that the [`StealPolicy`] writes into.
//!
//! # The idle path: steal, spin, park
//!
//! A worker that finds its inbox and queue empty tries to steal; when
//! that fails it spins for a fixed number of iterations (each one
//! another pop and steal attempt), then parks its thread with
//! `std::thread::park`, until the earliest pending timer is due if
//! there is one. It does not poll: a parked worker wakes only when
//!
//! - a producer pushes onto its inbox (injection, timer firings);
//! - a locked `route` (a handler's registration, an inbox re-route, a
//!   steal's rescue of the victim's inbox) pushes onto its queue;
//! - another core's queue holds a stealable backlog (≥ 2 queued) after
//!   a push or an inbox merge — one sleeping thief is woken;
//! - a newly registered timer is due before its deadline;
//! - the runtime is asked to stop;
//! - the last outstanding event or `KeepAlive` goes away, so it can
//!   exit.
//!
//! Each parked worker is counted in `sleepers`, so while every worker
//! is awake a producer's wake-up check is a single load. The worker
//! announces itself before it re-checks its wake conditions, and each
//! producer publishes before it reads the announcement, with the
//! orderings paired per condition (see `sleep_deadline`): either the
//! worker sees the work, or the producer sees the worker. Parks are
//! counted in [`CoreMetrics::parks`].

pub mod inbox;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

use parking_lot::Mutex;

use crate::admission::{AdmissionCtl, AdmissionPolicy, Admitted, Overload, OverloadReason};
use crate::color::{Color, COLOR_SPACE};
use crate::ctx::{Ctx, CtxEffects};
use crate::cycles;
use crate::dataset::{DataSetAlloc, DataSetRef};
use crate::event::Event;
use crate::exec::{ExecKind, Executor, Injector};
use crate::fault::{kind_of_panic, Fault, FaultCtl, FaultKind, FaultPolicy, InjectedPanicMarker};
use crate::fuzz::ScheduleRng;
use crate::handler::{HandlerId, HandlerRegistry, HandlerSpec};
use crate::metrics::{CoreMetrics, RunReport};
use crate::queue::{LegacyQueue, MelyQueue, QueueImpl};
use crate::runtime::Flavor;
use crate::steal::{StealContext, StealDomains, StealPolicy, WsPolicy};
use crate::sync::SpinLock;
use inbox::InjectionInbox;
use mely_topology::MachineModel;

pub use crate::exec::KeepAlive;

const NO_COLOR: u32 = u32::MAX;
const NO_OWNER: u32 = u32::MAX;

/// One [`KeepAlive`] guard's contribution to `Shared::outstanding`.
/// Tokens live in the high bits and events in the low 48 so that one
/// atomic load yields a consistent (tokens, events) snapshot — two
/// separate counters would let `stop_when_idle` interleave with a
/// concurrent guard drop and stop while real events are still pending.
const KEEPALIVE_UNIT: u64 = 1 << 48;
/// Mask selecting the pending-event count from `Shared::outstanding`.
const EVENT_MASK: u64 = KEEPALIVE_UNIT - 1;

/// Idle iterations (each a failed pop and, with workstealing on, a
/// failed steal attempt) a worker spins through before it parks. Short
/// enough that an idle runtime leaves the CPU to its I/O threads, long
/// enough that back-to-back events skip the futex round trip.
const SPINS_BEFORE_PARK: u32 = 64;

struct CoreShared {
    queue: SpinLock<QueueImpl>,
    /// Lock-free MPSC inbox for cross-thread producers; drained by this
    /// core's worker at dispatch-loop boundaries.
    inbox: InjectionInbox,
    /// Color currently executing on this core (`NO_COLOR` when none).
    in_flight: AtomicU32,
    /// Approximate queue length for `construct_core_set`.
    len_hint: AtomicUsize,
    /// Set while this core's worker is parked or committed to parking.
    /// Whoever swaps it back to `false` owes the worker an `unpark`.
    sleeping: AtomicBool,
    /// The timer due time (cycles) the parked worker wakes for by
    /// itself; `u64::MAX` when it sleeps with no timer pending. Written
    /// and read under the timer heap's lock.
    deadline: AtomicU64,
    /// This core's worker thread during a run, the target of `unpark`.
    thread: Mutex<Option<Thread>>,
}

impl CoreShared {
    /// Pending work visible to victim selection: queued events plus the
    /// inbox backlog that has not reached the queue yet. Saturating —
    /// both inputs are racy estimates.
    fn load_estimate(&self) -> usize {
        self.len_hint
            .load(Ordering::Relaxed)
            .saturating_add(self.inbox.len())
    }
}

struct TimerEntry {
    due: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap becomes a min-heap on (due, seq).
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

struct Shared {
    cores: Vec<CoreShared>,
    color_owner: Vec<AtomicU32>,
    registry: HandlerRegistry,
    machine: MachineModel,
    /// Steal tiers of the running cores (see [`crate::steal::domains`]);
    /// also the socket map for [`RuntimeHandle::with_home_socket`].
    domains: StealDomains,
    /// Victim selection and steal budgets (see [`StealPolicy`]).
    policy: Arc<dyn StealPolicy>,
    flavor: Flavor,
    ws: WsPolicy,
    batch_threshold: u32,
    /// Low 48 bits: events registered but not yet fully executed
    /// (timers included). High bits: live [`KeepAlive`] guards, in
    /// [`KEEPALIVE_UNIT`]s. Workers run while any bit is set.
    outstanding: AtomicU64,
    stop: AtomicBool,
    /// Workers parked or committed to parking. Lets every producer skip
    /// the wake-up path with a single load while all workers are awake.
    sleepers: AtomicUsize,
    /// Workers past their re-check, in (or entering) `park`.
    parked: AtomicUsize,
    steal_est: AtomicU64,
    next_seq: AtomicU64,
    timers: Mutex<std::collections::BinaryHeap<TimerEntry>>,
    /// Queue limits, admission policy, per-color occupancy and the
    /// producer-side reject/shed counters (see [`crate::admission`]).
    admission: AdmissionCtl,
    /// Fault policy, quarantine membership, injection plan and the
    /// fault log (see [`crate::fault`]). Workers consult it at dispatch
    /// (containment, drains); producers consult it at admission.
    faults: FaultCtl,
}

impl Shared {
    /// Fills in the scheduling metadata a freshly registered event needs:
    /// handler-derived cost/penalty defaults and the global sequence
    /// number.
    fn prepare(&self, ev: &mut Event) {
        if let Some(h) = ev.handler {
            if ev.cost == 0 {
                ev.cost = self.registry.estimate(h);
            }
            if ev.penalty == 1 {
                ev.penalty = self.registry.penalty(h);
            }
        }
        ev.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
    }

    /// The color's current owner, claiming the color's home core for it
    /// if nobody owns it yet.
    fn owner_of(&self, ev: &Event) -> u32 {
        let slot = ev.color().value() as usize;
        let owner = self.color_owner[slot].load(Ordering::Acquire);
        if owner != NO_OWNER {
            return owner;
        }
        let home = ev.color().home_core(self.cores.len()) as u32;
        match self.color_owner[slot].compare_exchange(
            NO_OWNER,
            home,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => home,
            Err(cur) => cur,
        }
    }

    /// Routes an event to the core currently owning its color, taking
    /// that core's spinlock. Retries if a concurrent steal moves the
    /// color between lookup and lock. This is the *direct* path, used by
    /// worker threads themselves (handler registrations, inbox-drain
    /// re-routes) and by [`RuntimeHandle::inject_locked`].
    fn route(&self, mut ev: Event) {
        self.prepare(&mut ev);
        self.route_prepared(ev);
    }

    /// [`Shared::route`] for an event whose metadata is already prepared.
    fn route_prepared(&self, ev: Event) {
        let slot = ev.color().value() as usize;
        loop {
            let owner = self.owner_of(&ev);
            let core = &self.cores[owner as usize];
            let mut q = core.queue.lock();
            // Re-check under the lock: a steal may have moved the color.
            if self.color_owner[slot].load(Ordering::Acquire) == owner {
                q.push(ev);
                let queued = q.len();
                core.len_hint.store(queued, Ordering::Relaxed);
                // Read under the lock that a parking owner re-checks its
                // queue under: either it saw this push, or we see it.
                let sleepy = self.sleepy();
                drop(q);
                if sleepy {
                    self.wake_for_queue(owner as usize, queued);
                }
                return;
            }
        }
    }

    /// Hands an event to the owning core's lock-free inbox instead of
    /// taking its spinlock. If a steal moves the color before the core
    /// drains, the drain re-routes through the color map, so the color
    /// invariant holds either way.
    fn inject(&self, mut ev: Event) {
        self.prepare(&mut ev);
        let owner = self.owner_of(&ev) as usize;
        self.cores[owner].inbox.push(ev);
        self.wake_for_inbox(owner);
    }

    /// Whether any worker is parked or committed to parking. SeqCst so
    /// that it pairs with a parking worker's announcement: a producer
    /// that published work before this load either is seen by the
    /// worker's re-check or sees the worker here.
    fn sleepy(&self) -> bool {
        self.sleepers.load(Ordering::SeqCst) != 0
    }

    /// Unparks `core`'s worker if it is parked or about to park;
    /// returns whether it was.
    fn unpark(&self, core: usize) -> bool {
        let c = &self.cores[core];
        if !(c.sleeping.load(Ordering::SeqCst) && c.sleeping.swap(false, Ordering::SeqCst)) {
            return false;
        }
        if let Some(t) = c.thread.lock().as_ref() {
            t.unpark();
        }
        true
    }

    /// Unparks one sleeping worker other than `except`, to come and
    /// steal.
    fn wake_thief(&self, except: usize) {
        let _ = (0..self.cores.len()).any(|c| c != except && self.unpark(c));
    }

    /// Unparks every sleeping worker (shutdown: stop, or nothing left
    /// to wait for).
    fn wake_all(&self) {
        for c in 0..self.cores.len() {
            self.unpark(c);
        }
    }

    /// After a push onto `core`'s inbox: one load when nobody sleeps.
    fn wake_for_inbox(&self, core: usize) {
        if self.sleepy() {
            self.unpark(core);
        }
    }

    /// After a push left `queued` events in `core`'s queue, with
    /// `sleepy` read under that queue's lock: wake its worker, and one
    /// thief when the backlog is stealable.
    fn wake_for_queue(&self, core: usize, queued: usize) {
        self.unpark(core);
        if queued >= 2 {
            self.wake_thief(core);
        }
    }

    /// Sets the stop flag and wakes every parked worker to see it.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Retires `units` from `outstanding`; when that empties it, parked
    /// workers wake to exit.
    fn retire(&self, units: u64) {
        if self.outstanding.fetch_sub(units, Ordering::SeqCst) == units {
            self.wake_all();
        }
    }

    fn register(&self, ev: Event) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.route(ev);
    }

    fn register_injected(&self, ev: Event) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.inject(ev);
    }

    /// Checks the configured [`crate::admission::QueueLimits`] against
    /// the owning core's current occupancy, claiming a per-color
    /// in-flight slot on success (released when the event executes).
    /// Checks run per-core, then inbox, then per-color — the color claim
    /// goes last so a failure never needs a rollback of an earlier
    /// check.
    fn try_admit(&self, ev: &mut Event) -> Result<(), Overload> {
        let lim = self.admission.limits;
        let owner = self.owner_of(ev) as usize;
        let core = &self.cores[owner];
        if let Some(cap) = lim.per_core_events {
            let occ = core.load_estimate();
            if occ >= cap as usize {
                return Err(self
                    .admission
                    .overload(OverloadReason::PerCoreFull, occ as u64));
            }
        }
        if let Some(cap) = lim.inbox_backlog {
            let occ = core.inbox.len();
            if occ >= cap as usize {
                return Err(self
                    .admission
                    .overload(OverloadReason::InboxBacklog, occ as u64));
            }
        }
        if let Some(cap) = lim.per_color_events {
            let slot = ev.color().value() as usize;
            if !self.admission.try_claim_color(slot, cap) {
                return Err(self
                    .admission
                    .overload(OverloadReason::ColorHot, cap as u64));
            }
            ev.color_counted = true;
        }
        Ok(())
    }

    /// Producer-boundary quarantine gate for the *infallible* injection
    /// paths: a quarantined color's events are shed (and counted)
    /// rather than queued for a pop-time drain, mirroring the sim
    /// mailbox's unchecked push. Quarantine never clears, so blocking or
    /// pacing on it would strand the producer forever.
    fn shed_if_quarantined(&self, ev: &Event) -> bool {
        if self.faults.is_quarantined(ev.color()) {
            self.admission.note_reject();
            self.admission.note_shed(OverloadReason::Quarantined);
            true
        } else {
            false
        }
    }

    /// The fallible twin of [`Shared::register_injected`]: admits or
    /// returns the event to the caller (for retry loops) alongside the
    /// [`Overload`]. Does *not* count the reject — the caller decides
    /// the attempt accounting.
    fn try_register_injected(&self, mut ev: Event) -> Result<Admitted, (Overload, Event)> {
        // Quarantine outranks the unbounded fast path: a poisoned color
        // rejects even on a runtime with no queue limits at all.
        if self.faults.is_quarantined(ev.color()) {
            let ov = self.admission.overload(OverloadReason::Quarantined, 0);
            return Err((ov, ev));
        }
        if self.admission.is_unbounded() {
            self.register_injected(ev);
            return Ok(Admitted);
        }
        match self.try_admit(&mut ev) {
            Ok(()) => {
                self.register_injected(ev);
                Ok(Admitted)
            }
            Err(ov) => Err((ov, ev)),
        }
    }

    fn register_after(&self, delay: u64, event: Event) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        let due = cycles::now() + delay;
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let wake = {
            let mut timers = self.timers.lock();
            timers.push(TimerEntry { due, seq, event });
            // Under the heap's lock, which a parking worker reads its
            // deadline under: either it saw this timer, or we see it.
            if self.sleepy() {
                self.timer_sleeper(due)
            } else {
                None
            }
        };
        if let Some(core) = wake {
            self.unpark(core);
        }
    }

    /// A sleeping worker to wake for a new timer due at `due`, or `None`
    /// when some sleeper's own deadline already comes by then (it will
    /// fire this timer and re-arm from the heap).
    fn timer_sleeper(&self, due: u64) -> Option<usize> {
        let mut pick = None;
        for (i, c) in self.cores.iter().enumerate() {
            if c.sleeping.load(Ordering::SeqCst) {
                if c.deadline.load(Ordering::Relaxed) <= due {
                    return None;
                }
                pick = Some(i);
            }
        }
        pick
    }
}

/// Handle for injecting events into a running [`ThreadedRuntime`] from
/// other threads (e.g. a load generator).
#[derive(Clone)]
pub struct RuntimeHandle {
    shared: Arc<Shared>,
    /// When set, unclaimed colors injected through this handle are homed
    /// on a core of this socket (see [`RuntimeHandle::with_home_socket`]).
    home_socket: Option<usize>,
}

impl RuntimeHandle {
    /// Returns a handle whose injections prefer `socket`: an event whose
    /// color has no owner yet is homed on one of that socket's running
    /// cores (hash-spread within the socket) instead of the global hash
    /// core. Colors that already have an owner are untouched — per-color
    /// routing and mutual exclusion are unchanged — so this only segments
    /// *new* colors, letting a producer pinned near one socket keep its
    /// connections' events on local inboxes and queues. Sockets wrap
    /// modulo the occupied-socket count, so any index is valid.
    pub fn with_home_socket(mut self, socket: usize) -> Self {
        self.home_socket = Some(socket % self.shared.domains.num_sockets());
        self
    }

    /// Claims an unclaimed color for a core of the preferred socket
    /// before the normal owner lookup runs. Lost CAS races are fine —
    /// someone else claimed the color first and their choice wins.
    fn preclaim(&self, ev: &Event) {
        let Some(socket) = self.home_socket else {
            return;
        };
        let slot = ev.color().value() as usize;
        if self.shared.color_owner[slot].load(Ordering::Acquire) != NO_OWNER {
            return;
        }
        let set = self.shared.domains.socket_cores(socket);
        let home = set[ev.color().home_core(set.len())] as u32;
        let _ = self.shared.color_owner[slot].compare_exchange(
            NO_OWNER,
            home,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Registers an event (hash-dispatched, or to the color's current
    /// owner) through the owning core's lock-free injection inbox — the
    /// producer never contends on the core's spinlock. The canonical
    /// *infallible* injection path (see [`crate::exec`] for the unified
    /// naming): with bounded queues, a limit hit is resolved by the
    /// runtime's [`AdmissionPolicy`] instead of being returned.
    pub fn inject(&self, ev: Event) {
        if self.shared.shed_if_quarantined(&ev) {
            return;
        }
        self.preclaim(&ev);
        if self.shared.admission.is_unbounded() {
            self.shared.register_injected(ev);
            return;
        }
        self.inject_with_policy(ev, self.shared.admission.policy);
    }

    /// The fallible admission path: admits `ev` or returns an
    /// [`Overload`] naming the limit that rejected it (the event is
    /// dropped; clone-free retry loops belong to the infallible path's
    /// [`AdmissionPolicy`]). Every rejected call counts one
    /// `admission_rejects`.
    pub fn try_inject(&self, ev: Event) -> Result<Admitted, Overload> {
        self.preclaim(&ev);
        self.shared.try_register_injected(ev).map_err(|(ov, _ev)| {
            self.shared.admission.note_reject();
            ov
        })
    }

    /// The fallible twin of [`RuntimeHandle::inject_after`]: the
    /// admission check runs *now*, at registration time, against the
    /// current occupancy — by the time the timer fires the event is
    /// already admitted (its per-color slot is held across the delay).
    pub fn try_inject_after(&self, delay: u64, mut ev: Event) -> Result<Admitted, Overload> {
        self.preclaim(&ev);
        if self.shared.faults.is_quarantined(ev.color()) {
            self.shared.admission.note_reject();
            return Err(self
                .shared
                .admission
                .overload(OverloadReason::Quarantined, 0));
        }
        if self.shared.admission.is_unbounded() {
            self.shared.register_after(delay, ev);
            return Ok(Admitted);
        }
        match self.shared.try_admit(&mut ev) {
            Ok(()) => {
                self.shared.register_after(delay, ev);
                Ok(Admitted)
            }
            Err(ov) => {
                self.shared.admission.note_reject();
                Err(ov)
            }
        }
    }

    /// Resolves a limit hit per `policy`: shed (drop + count), or
    /// block/pace until admitted — escaping by shedding if the runtime
    /// is asked to stop while the producer waits (blocking on a stopping
    /// runtime would deadlock). The reject counter advances once per
    /// event, on its first failed attempt.
    pub(crate) fn inject_with_policy(&self, mut ev: Event, policy: AdmissionPolicy) {
        let mut first_reject = true;
        loop {
            ev = match self.shared.try_register_injected(ev) {
                Ok(_) => return,
                Err((ov, back)) => {
                    if first_reject {
                        self.shared.admission.note_reject();
                        first_reject = false;
                    }
                    // Quarantine sheds under every policy (the color
                    // never recovers, so block/pace would never admit).
                    if policy == AdmissionPolicy::Shed
                        || ov.reason == OverloadReason::Quarantined
                        || self.shared.stop.load(Ordering::Acquire)
                    {
                        self.shared.admission.note_shed(ov.reason);
                        return;
                    }
                    if policy == AdmissionPolicy::RetryAfter {
                        let until = cycles::now().wrapping_add(ov.retry_after_hint);
                        while cycles::now() < until && !self.shared.stop.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    } else {
                        std::thread::yield_now();
                    }
                    back
                }
            };
        }
    }

    /// Registers an event by taking the owning core's spinlock directly,
    /// bypassing the inbox. This is the pre-inbox injection path, kept so
    /// `micro_inject` can measure what the inbox buys; prefer
    /// [`RuntimeHandle::inject`].
    pub fn inject_locked(&self, ev: Event) {
        if self.shared.shed_if_quarantined(&ev) {
            return;
        }
        self.preclaim(&ev);
        self.shared.register(ev);
    }

    /// Registers an event to fire after `delay` cycles (measured on the
    /// shared cycle clock). The firing itself is injected through the
    /// owning core's inbox.
    pub fn inject_after(&self, delay: u64, ev: Event) {
        if self.shared.shed_if_quarantined(&ev) {
            return;
        }
        self.preclaim(&ev);
        self.shared.register_after(delay, ev);
    }

    /// Asks every worker to stop at the next opportunity.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Workers that passed their last re-check and are parked (or
    /// just entering `park`): a live snapshot of the idle path (see the
    /// module docs). From here on only an `unpark` or a timer deadline
    /// wakes them.
    pub fn sleeping_workers(&self) -> usize {
        self.shared.parked.load(Ordering::SeqCst)
    }

    /// Events registered but not yet executed.
    pub fn outstanding(&self) -> u64 {
        self.shared.outstanding.load(Ordering::Acquire) & EVENT_MASK
    }

    /// Keeps the runtime's workers alive while the returned guard lives,
    /// even with no events pending — the idiom for external producers
    /// that will inject *later* (without it, workers exit the moment
    /// everything registered so far has executed). Pair with
    /// [`RuntimeHandle::stop_when_idle`].
    pub fn keepalive(&self) -> KeepAlive {
        self.shared
            .outstanding
            .fetch_add(KEEPALIVE_UNIT, Ordering::AcqRel);
        let shared = Arc::clone(&self.shared);
        KeepAlive::new(move || shared.retire(KEEPALIVE_UNIT))
    }

    /// Blocks until every registered event has executed (only
    /// [`KeepAlive`] guards remain outstanding), then stops the
    /// runtime. The token/event split lives in one atomic, so the idle
    /// check is a consistent snapshot — a concurrently dropped guard
    /// cannot make this stop while real events are pending. Events
    /// injected concurrently with the stop may or may not run — the
    /// usual producer/stop race.
    pub fn stop_when_idle(&self) {
        while self.shared.outstanding.load(Ordering::Acquire) & EVENT_MASK != 0 {
            std::thread::yield_now();
        }
        self.stop();
    }
}

/// The threaded executor.
pub struct ThreadedRuntime {
    shared: Arc<Shared>,
    ds_alloc: DataSetAlloc,
}

impl ThreadedRuntime {
    // One pub(crate) call site (RuntimeBuilder::make_threaded); a params
    // struct would only restate the builder field for field.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cores: usize,
        flavor: Flavor,
        ws: WsPolicy,
        machine: MachineModel,
        steal_policy: Arc<dyn StealPolicy>,
        batch_threshold: u32,
        initial_steal_estimate: u64,
        admission: AdmissionCtl,
        faults: FaultCtl,
    ) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            cores <= machine.num_cores(),
            "machine model {} has only {} cores (asked for {})",
            machine.name(),
            machine.num_cores(),
            cores
        );
        cycles::init();
        let domains = StealDomains::new(&machine, cores);
        let cores_vec = (0..cores)
            .map(|_| CoreShared {
                queue: SpinLock::new(match flavor {
                    Flavor::Libasync => QueueImpl::Legacy(LegacyQueue::new()),
                    Flavor::Mely => {
                        let mut q = MelyQueue::new(ws.penalty);
                        q.set_steal_cost_estimate(initial_steal_estimate);
                        QueueImpl::Mely(q)
                    }
                }),
                inbox: InjectionInbox::new(),
                in_flight: AtomicU32::new(NO_COLOR),
                len_hint: AtomicUsize::new(0),
                sleeping: AtomicBool::new(false),
                deadline: AtomicU64::new(u64::MAX),
                thread: Mutex::new(None),
            })
            .collect();
        let mut owners = Vec::with_capacity(COLOR_SPACE);
        owners.resize_with(COLOR_SPACE, || AtomicU32::new(NO_OWNER));
        ThreadedRuntime {
            shared: Arc::new(Shared {
                cores: cores_vec,
                color_owner: owners,
                registry: HandlerRegistry::new(),
                machine,
                domains,
                policy: steal_policy,
                flavor,
                ws,
                batch_threshold,
                outstanding: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                sleepers: AtomicUsize::new(0),
                parked: AtomicUsize::new(0),
                steal_est: AtomicU64::new(initial_steal_estimate),
                next_seq: AtomicU64::new(0),
                timers: Mutex::new(std::collections::BinaryHeap::new()),
                admission,
                faults,
            }),
            ds_alloc: DataSetAlloc::new(),
        }
    }

    /// Registers an application handler before the run starts.
    ///
    /// # Panics
    ///
    /// Panics if called while the runtime is running (the registry is
    /// frozen once workers exist).
    pub fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        let shared =
            Arc::get_mut(&mut self.shared).expect("register handlers before starting the runtime");
        shared.registry.register(spec)
    }

    /// Allocates a (simulation-style) data set; under the threaded
    /// executor touches are accounted but not materialised.
    pub fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        self.ds_alloc.alloc(len)
    }

    /// Registers an event before or during the run. Events of a
    /// quarantined color are shed (see [`crate::fault`]).
    pub fn register(&self, ev: Event) {
        if self.shared.shed_if_quarantined(&ev) {
            return;
        }
        self.shared.register(ev);
    }

    /// Registers an event and pins its color to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn register_pinned(&self, ev: Event, core: usize) {
        assert!(core < self.shared.cores.len(), "core out of range");
        if self.shared.shed_if_quarantined(&ev) {
            return;
        }
        self.shared.color_owner[ev.color().value() as usize].store(core as u32, Ordering::Release);
        self.shared.register(ev);
    }

    /// A cloneable handle for injecting events from other threads.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            shared: Arc::clone(&self.shared),
            home_socket: None,
        }
    }

    /// The workstealing policy.
    pub fn policy(&self) -> WsPolicy {
        self.shared.ws
    }

    /// Number of worker threads (simulated cores).
    pub fn cores(&self) -> usize {
        self.shared.cores.len()
    }

    /// The queue architecture this runtime runs.
    pub fn flavor(&self) -> Flavor {
        self.shared.flavor
    }

    /// The runtime's current cost estimate for a handler (annotation or
    /// monitored EWMA).
    pub fn handler_estimate(&self, id: HandlerId) -> u64 {
        self.shared.registry.estimate(id)
    }

    /// Runs until every registered event (and every event they spawn) has
    /// executed, then returns the report. Workers also exit on
    /// [`Ctx::stop_runtime`] or [`RuntimeHandle::stop`]. Can be called
    /// again after registering more events; each call reports the
    /// events executed by *that* run (plus cumulative inbox counters).
    pub fn run(&mut self) -> RunReport {
        let n = self.shared.cores.len();
        let start = cycles::now();
        let mut joins = Vec::with_capacity(n);
        for core in 0..n {
            let shared = Arc::clone(&self.shared);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("mely-core-{core}"))
                    .spawn(move || {
                        let out = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, core)));
                        if out.is_err() {
                            // A dying worker must release its siblings:
                            // they wait on outstanding work this worker
                            // can no longer execute.
                            shared.request_stop();
                        }
                        match out {
                            Ok(m) => m,
                            Err(payload) => resume_unwind(payload),
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        // A worker death (possible under `FaultPolicy::Abort`, or a
        // panic outside the contained handler path) is folded into the
        // report as a `WorkerDied` fault in the worker's own slot, so
        // per-core attribution keeps its shape and `run` stays total.
        let mut worker_payload = None;
        let mut per_core: Vec<CoreMetrics> = Vec::with_capacity(n);
        for (core, j) in joins.into_iter().enumerate() {
            per_core.push(match j.join() {
                Ok(m) => m,
                Err(payload) => {
                    let kind = FaultKind::WorkerDied { core };
                    self.shared.faults.record(Fault {
                        color: None,
                        handler: None,
                        kind: kind.clone(),
                    });
                    let mut m = CoreMetrics::default();
                    m.note_fault(None, kind.code(), 0);
                    worker_payload = Some(payload);
                    m
                }
            });
        }
        // Producer-side pushes happen on external threads; attribute each
        // inbox's totals to the core it feeds. The queue's buffer-pool
        // counter lives in the (now idle) queue itself.
        for (m, core) in per_core.iter_mut().zip(&self.shared.cores) {
            m.inbox_pushes = core.inbox.total_pushes();
            m.inbox_node_reuse = core.inbox.total_node_reuses();
            m.queue_buf_reuse = core.queue.lock().buf_reuses();
        }
        // Admission rejects and sheds also happen on producer threads;
        // the counters are runtime-global, attributed to core 0
        // (cumulative across runs, like the inbox counters).
        let adm = &self.shared.admission;
        per_core[0].admission_rejects = adm.rejects.load(Ordering::Relaxed);
        per_core[0].shed_requests = adm.shed_requests.load(Ordering::Relaxed);
        per_core[0].shed_by_color = adm.shed_by_color.load(Ordering::Relaxed);
        // Admission-boundary quarantine sheds join the drain-side count
        // (which lives in the workers' own metrics) additively.
        per_core[0].shed_by_fault += adm.shed_by_fault.load(Ordering::Relaxed);
        let wall = cycles::now().wrapping_sub(start);
        // Consume any stop request so a later `run` proceeds normally.
        self.shared.stop.store(false, Ordering::Release);
        let report = RunReport::new(per_core, wall, cycles::hz(), self.shared.ws)
            .with_fault_log(self.shared.faults.log_snapshot());
        if let Some(payload) = worker_payload {
            if self.shared.faults.policy == FaultPolicy::Abort {
                // Abort means "do not contain": re-raise the worker's
                // panic on the caller after all threads are joined.
                resume_unwind(payload);
            }
        }
        report
    }
}

impl Executor for ThreadedRuntime {
    fn kind(&self) -> ExecKind {
        ExecKind::Threaded
    }

    fn cores(&self) -> usize {
        ThreadedRuntime::cores(self)
    }

    fn flavor(&self) -> Flavor {
        ThreadedRuntime::flavor(self)
    }

    fn policy(&self) -> WsPolicy {
        ThreadedRuntime::policy(self)
    }

    fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        ThreadedRuntime::register_handler(self, spec)
    }

    fn handler_estimate(&self, id: HandlerId) -> u64 {
        ThreadedRuntime::handler_estimate(self, id)
    }

    fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        ThreadedRuntime::alloc_dataset(self, len)
    }

    fn register(&mut self, ev: Event) {
        ThreadedRuntime::register(self, ev);
    }

    fn register_pinned(&mut self, ev: Event, core: usize) {
        ThreadedRuntime::register_pinned(self, ev, core);
    }

    fn injector(&self) -> Injector {
        Injector::from(self.handle())
    }

    fn run(&mut self) -> RunReport {
        ThreadedRuntime::run(self)
    }
}

/// Per-worker buffers for the idle path, reused across steal attempts
/// so a warm attempt never allocates.
#[derive(Default)]
struct StealScratch {
    /// Every core's load estimate.
    loads: Vec<usize>,
    /// The policy's victim order.
    victims: Vec<usize>,
    /// A victim's inbox backlog rescued during a steal.
    backlog: Vec<Event>,
}

fn worker_loop(shared: &Shared, me: usize) -> CoreMetrics {
    let mut m = CoreMetrics::default();
    let batch = shared.batch_threshold;
    *shared.cores[me].thread.lock() = Some(std::thread::current());
    // Seeded fault injection: each worker derives its own draw stream
    // from the plan's seed, so injection stays reproducible per worker
    // even though cross-worker interleaving is not.
    let mut fault_rng = shared.faults.plan.map(|p| p.worker_rng(me));
    let mut idle_spins: u32 = 0;
    // Reused across iterations so steady-state inbox drains never
    // allocate (the inbox recycles its nodes; this recycles the batch).
    let mut inbox_batch: Vec<Event> = Vec::new();
    let mut scratch = StealScratch::default();
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        drain_timers(shared);
        drain_inbox(shared, me, &mut inbox_batch, &mut m);

        // Pop from our own queue.
        let popped = {
            let core = &shared.cores[me];
            let mut q = core.queue.lock();
            m.lock_wait_cycles += q.waited_cycles();
            m.lock_ops += 1;
            let ev = q.pop(batch);
            if let Some(ev) = &ev {
                core.in_flight
                    .store(ev.color().value() as u32, Ordering::Release);
            }
            core.len_hint.store(q.len(), Ordering::Relaxed);
            ev
        };

        if let Some(ev) = popped {
            execute_event(shared, me, ev, &mut m, &mut fault_rng);
            shared.cores[me]
                .in_flight
                .store(NO_COLOR, Ordering::Release);
            shared.retire(1);
            idle_spins = 0;
            continue;
        }

        // Idle: steal, spin a little, then park.
        if shared.ws.enabled && try_steal(shared, me, &mut m, &mut scratch) {
            idle_spins = 0;
            continue;
        }
        if shared.outstanding.load(Ordering::Acquire) == 0 {
            break;
        }
        idle_spins += 1;
        if idle_spins < SPINS_BEFORE_PARK {
            std::hint::spin_loop();
        } else {
            park(shared, me, &mut m);
            idle_spins = 0;
        }
    }
    m
}

/// Parks `me` until a producer, its earliest timer or shutdown wakes
/// it. The worker announces itself first (`sleeping`, `sleepers`) and
/// only then re-checks every wake condition, so each producer either
/// published before the re-check (and the worker sees the work) or
/// loads `sleepers` after the announcement (and unparks the worker);
/// see [`sleep_deadline`] for how each condition pairs up.
fn park(shared: &Shared, me: usize, m: &mut CoreMetrics) {
    let core = &shared.cores[me];
    core.sleeping.store(true, Ordering::SeqCst);
    shared.sleepers.fetch_add(1, Ordering::SeqCst);
    if let Some(deadline) = sleep_deadline(shared, me) {
        m.parks += 1;
        shared.parked.fetch_add(1, Ordering::SeqCst);
        if deadline == u64::MAX {
            std::thread::park();
        } else {
            let left = deadline.saturating_sub(cycles::now());
            std::thread::park_timeout(Duration::from_nanos(cycles::to_ns(left)));
        }
        shared.parked.fetch_sub(1, Ordering::SeqCst);
    }
    core.sleeping.store(false, Ordering::SeqCst);
    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
}

/// The re-check a parking worker makes after announcing itself: `None`
/// when something already waits for it, else the cycle time of the
/// earliest pending timer (`u64::MAX` when there is none).
///
/// - `stop` and `outstanding` are SeqCst on both sides (the store or
///   read-modify-write, then the waker's SeqCst read of `sleeping`);
/// - the inbox head is published by a SeqCst CAS that the producer
///   follows with a SeqCst read of `sleepers`;
/// - the queue is checked under its own lock, under which routing
///   producers read `sleepers`;
/// - the timer heap is read under its lock, under which
///   `register_after` compares its due time with sleepers' deadlines.
///
/// Stealable backlogs on other cores are deliberately not re-checked:
/// the worker has just failed to steal, and a backlog it cannot steal
/// (one color, in flight) would otherwise keep it spinning. A push
/// that makes a backlog stealable wakes a sleeper instead.
fn sleep_deadline(shared: &Shared, me: usize) -> Option<u64> {
    let core = &shared.cores[me];
    if shared.stop.load(Ordering::SeqCst)
        || shared.outstanding.load(Ordering::SeqCst) == 0
        || core.inbox.has_pending()
    {
        return None;
    }
    // A busy lock means a producer or a thief is at work here: skip.
    if core.queue.try_lock().is_none_or(|q| !q.is_empty()) {
        return None;
    }
    let timers = shared.timers.lock();
    let due = timers.peek().map_or(u64::MAX, |t| t.due);
    if due <= cycles::now() {
        return None;
    }
    core.deadline.store(due, Ordering::Relaxed);
    Some(due)
}

fn drain_timers(shared: &Shared) {
    let Some(mut timers) = shared.timers.try_lock() else {
        return;
    };
    let now = cycles::now();
    while let Some(t) = timers.peek() {
        if t.due > now {
            break;
        }
        let t = timers.pop().expect("peeked");
        // Timer firings are cross-thread producers like any other: they
        // go through the owning core's inbox, not its spinlock.
        shared.inject(t.event);
    }
}

/// Merges everything buffered in `me`'s inbox into its queue under a
/// single lock acquisition. Events whose color has been stolen since the
/// producer looked up the owner are re-routed through the color map —
/// the same discipline the two-lock migration enforces, so an event's
/// color is never executable on two cores.
fn drain_inbox(shared: &Shared, me: usize, batch: &mut Vec<Event>, m: &mut CoreMetrics) {
    let core = &shared.cores[me];
    debug_assert!(batch.is_empty(), "caller hands the buffer back empty");
    if core.inbox.drain_into(batch) == 0 {
        return;
    }
    m.inbox_drain_batches += 1;
    m.inbox_drained += batch.len() as u64;
    let mut strays = Vec::new();
    let (queued, sleepy) = {
        let mut q = core.queue.lock();
        m.lock_wait_cycles += q.waited_cycles();
        m.lock_ops += 1;
        for ev in batch.drain(..) {
            let slot = ev.color().value() as usize;
            // Owner re-check under our own lock: a steal moving a color
            // in or out of this core needs this lock, so owner == me is
            // stable for the rest of the critical section.
            if shared.color_owner[slot].load(Ordering::Acquire) == me as u32 {
                q.push(ev);
            } else {
                strays.push(ev);
            }
        }
        core.len_hint.store(q.len(), Ordering::Relaxed);
        (q.len(), shared.sleepy())
    };
    if sleepy && queued >= 2 {
        shared.wake_thief(me);
    }
    // Stolen-away colors take the locked routing path (with its own
    // owner re-check loop); they are rare — one steal must have raced
    // the producer — so the per-event lock cost does not matter here.
    m.inbox_rerouted += strays.len() as u64;
    for ev in strays {
        shared.route_prepared(ev);
    }
}

fn execute_event(
    shared: &Shared,
    me: usize,
    mut ev: Event,
    m: &mut CoreMetrics,
    fault_rng: &mut Option<ScheduleRng>,
) {
    if ev.color_counted {
        // Admission claimed a per-color in-flight slot; execution is
        // where the event stops occupying a queue.
        shared.admission.release_color(ev.color().value() as usize);
        ev.color_counted = false;
    }
    let color = ev.color();
    // Lazy quarantine drain: events queued before their color faulted
    // are discarded here, at pop time, so the queue shrinks through its
    // normal machinery and the worker never blocks on poisoned work.
    if shared.faults.is_quarantined(color) {
        m.shed_by_fault += 1;
        if ev.carries_request {
            m.failed_requests += 1;
        }
        return;
    }
    let mut inject_panic = false;
    if let Some(rng) = fault_rng.as_mut() {
        let plan = shared.faults.plan.expect("fault rng implies a plan");
        // Both draws happen on every dispatch so changing one rate
        // never shifts the other's injection sites.
        if rng.chance(plan.drop_per_million, 1_000_000) {
            m.note_fault(Some(color), FaultKind::InjectedDrop.code(), ev.seq);
            if ev.carries_request {
                m.failed_requests += 1;
            }
            shared.faults.record(Fault {
                color: Some(color),
                handler: ev.handler(),
                kind: FaultKind::InjectedDrop,
            });
            return;
        }
        inject_panic = rng.chance(plan.panic_per_million, 1_000_000);
    }
    let t0 = cycles::now();
    cycles::spin(ev.cost());
    let mut fx = CtxEffects::default();
    let action = ev.take_action();
    // Panic containment: the handler runs inside `catch_unwind`, and
    // its buffered effects (`fx`) are applied only on normal return —
    // a panicking execution never emits half a fan-out.
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            std::panic::panic_any(InjectedPanicMarker);
        }
        if let Some(action) = action {
            let mut ctx = Ctx::new(me, cycles::now(), &mut fx);
            action(&mut ctx);
        }
    }))
    .err();
    if let Some(payload) = unwound {
        let kind = kind_of_panic(payload.as_ref());
        shared.faults.record(Fault {
            color: Some(color),
            handler: ev.handler(),
            kind: kind.clone(),
        });
        m.busy_cycles += cycles::now().wrapping_sub(t0);
        m.note_fault(Some(color), kind.code(), ev.seq);
        if ev.carries_request {
            m.failed_requests += 1;
        }
        match shared.faults.policy {
            FaultPolicy::QuarantineColor => {
                if shared.faults.quarantined.quarantine(color) {
                    m.quarantined_colors += 1;
                }
            }
            FaultPolicy::ShedEvent => {}
            FaultPolicy::Abort => resume_unwind(payload),
        }
        return;
    }
    cycles::spin(fx.charged);
    let elapsed = cycles::now().wrapping_sub(t0);
    m.busy_cycles += elapsed;
    m.events_processed += 1;
    m.note_completion(color, ev.seq);
    for latency in fx.completions() {
        m.completed_requests += 1;
        m.latency.record(latency);
    }
    m.failed_requests += fx.failed;
    if let Some(h) = ev.handler() {
        shared.registry.record(h, elapsed);
    }
    for (mut delay, ev2) in fx.delayed {
        if let Some(rng) = fault_rng.as_mut() {
            let plan = shared.faults.plan.expect("fault rng implies a plan");
            if rng.chance(plan.timer_spike_per_million, 1_000_000) {
                delay += plan.timer_spike_cycles;
            }
        }
        shared.register_after(delay, ev2);
    }
    for ev2 in fx.registrations {
        // A surviving handler fanning out into a quarantined color is
        // shed here, with worker-side attribution.
        if shared.faults.is_quarantined(ev2.color()) {
            m.shed_by_fault += 1;
            if ev2.carries_request {
                m.failed_requests += 1;
            }
            continue;
        }
        m.registered += 1;
        shared.register(ev2);
    }
    if fx.stop {
        shared.request_stop();
    }
}

/// One steal attempt (both queue flavors). Migration happens with the
/// victim's and the thief's locks both held, in core-id order.
fn try_steal(shared: &Shared, me: usize, m: &mut CoreMetrics, scratch: &mut StealScratch) -> bool {
    m.steal_attempts += 1;
    let t0 = cycles::now();
    // Loads include each core's inbox backlog: work a producer has
    // pushed but the owner has not drained yet is still pending work,
    // and `construct_core_set` must see it.
    scratch.loads.clear();
    scratch
        .loads
        .extend(shared.cores.iter().map(|c| c.load_estimate()));
    let ctx = StealContext {
        ws: shared.ws,
        machine: &shared.machine,
        domains: &shared.domains,
    };
    shared
        .policy
        .victims_into(me, &scratch.loads, &ctx, &mut scratch.victims);
    for i in 0..scratch.victims.len() {
        let v = scratch.victims[i];
        if v == me || v >= shared.cores.len() {
            continue;
        }
        if shared.cores[v].len_hint.load(Ordering::Relaxed) == 0 {
            // Nothing stealable in the victim's queue yet (its inbox can
            // only be drained by the victim itself).
            continue;
        }
        let budget = shared.policy.steal_budget(me, v, &ctx).max(1);
        if steal_from(shared, me, v, budget, m, &mut scratch.backlog) {
            let dur = cycles::now().wrapping_sub(t0);
            m.steals += 1;
            m.steal_cycles += dur;
            m.note_steal_tier(shared.domains.tier_of(me, v));
            update_estimate(shared, dur);
            return true;
        }
    }
    m.failed_steal_cycles += cycles::now().wrapping_sub(t0);
    false
}

fn update_estimate(shared: &Shared, sample: u64) {
    // Lock-free EWMA (racy updates are fine for an estimate).
    let cur = shared.steal_est.load(Ordering::Relaxed);
    let next = if cur == 0 {
        sample
    } else {
        cur - cur / 8 + sample / 8
    };
    shared.steal_est.store(next, Ordering::Relaxed);
}

fn steal_from(
    shared: &Shared,
    me: usize,
    v: usize,
    budget: usize,
    m: &mut CoreMetrics,
    backlog: &mut Vec<Event>,
) -> bool {
    debug_assert_ne!(me, v);
    let (a, b) = if v < me { (v, me) } else { (me, v) };
    let ga = shared.cores[a].queue.lock();
    let gb = shared.cores[b].queue.lock();
    m.lock_wait_cycles += ga.waited_cycles() + gb.waited_cycles();
    m.lock_ops += 2;
    let (mut gv, mut gm) = if a == v { (ga, gb) } else { (gb, ga) };

    let vin = match shared.cores[v].in_flight.load(Ordering::Acquire) {
        NO_COLOR => None,
        c => Some(Color::new(c as u16)),
    };

    // Up to `budget` colors migrate under the one lock pair (budget 1 is
    // the classic steal; far-tier steals under the hierarchical policy
    // amortize the trip over several colors).
    let est = shared.steal_est.load(Ordering::Relaxed);
    let mut taken = 0usize;
    match (&mut *gv, &mut *gm) {
        (QueueImpl::Legacy(vq), QueueImpl::Legacy(mq)) => {
            // can_be_stolen re-checked per color: the victim always
            // keeps at least one.
            while taken < budget && vq.distinct_colors() >= 2 {
                let Some((color, _)) = vq.choose_color_to_steal(vin) else {
                    break;
                };
                let (events, _) = vq.extract_color(color);
                if events.is_empty() {
                    break;
                }
                let n = events.len() as u64;
                let cost: u64 = events.iter().map(|e| e.cost()).sum();
                shared.color_owner[color.value() as usize].store(me as u32, Ordering::Release);
                mq.append(events);
                m.stolen_events += n;
                m.stolen_cost_cycles += cost;
                taken += 1;
            }
        }
        (QueueImpl::Mely(vq), QueueImpl::Mely(mq)) => {
            vq.set_steal_cost_estimate(est);
            mq.set_steal_cost_estimate(est);
            while taken < budget {
                let slot = if shared.ws.time_left {
                    vq.choose_worthy(vin)
                } else {
                    if !vq.can_be_stolen_base() {
                        break;
                    }
                    vq.choose_scan(vin).map(|(s, _)| s)
                };
                let Some(slot) = slot else {
                    break;
                };
                let d = vq.detach(slot);
                let n = d.len() as u64;
                let cost = d.cum_cost();
                shared.color_owner[d.color().value() as usize].store(me as u32, Ordering::Release);
                mq.absorb(d);
                m.stolen_events += n;
                m.stolen_cost_cycles += cost;
                taken += 1;
            }
        }
        _ => unreachable!("both cores share one flavor"),
    }
    if taken == 0 {
        return false;
    }

    // Rescue the victim's inbox backlog while both locks are held.
    // Events of the just-stolen color would otherwise strand in the
    // victim's inbox until its next drain — by which time newer events
    // of that color may already have run here, inverting per-producer
    // order. Draining concurrently with the victim is safe (each node is
    // taken by exactly one swap); placement re-checks the color map
    // under the locks we hold.
    let mut victim_fed = false;
    if shared.cores[v].inbox.drain_into(backlog) > 0 {
        m.inbox_drain_batches += 1;
        m.inbox_drained += backlog.len() as u64;
        for ev in backlog.drain(..) {
            let slot = ev.color().value() as usize;
            let owner = shared.color_owner[slot].load(Ordering::Acquire);
            if owner == me as u32 {
                // The stolen color (or one we already own): goes after
                // the just-migrated events, preserving producer order.
                gm.push(ev);
            } else if owner == v as u32 {
                gv.push(ev);
                victim_fed = true;
            } else if (owner as usize) < shared.cores.len() {
                // A third core owns it (an earlier racing steal); hand
                // the event to that core's inbox.
                m.inbox_rerouted += 1;
                shared.cores[owner as usize].inbox.push(ev);
                shared.wake_for_inbox(owner as usize);
            } else {
                // Unclaimed colors cannot normally reach an inbox
                // (inject claims an owner before pushing); keep the
                // event with the victim and claim the color for it.
                shared.color_owner[slot].store(v as u32, Ordering::Release);
                gv.push(ev);
                victim_fed = true;
            }
        }
    }

    shared.cores[v].len_hint.store(gv.len(), Ordering::Relaxed);
    shared.cores[me].len_hint.store(gm.len(), Ordering::Relaxed);
    // Under the victim's lock, like any routing producer: a victim that
    // parked on an empty queue must wake for the rescued events.
    let victim_sleepy = victim_fed && shared.sleepy();
    drop((gv, gm));
    if victim_sleepy {
        shared.unpark(v);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeBuilder;
    use std::sync::atomic::AtomicI64;

    fn rt(flavor: Flavor, ws: WsPolicy, cores: usize) -> ThreadedRuntime {
        RuntimeBuilder::new()
            .cores(cores)
            .flavor(flavor)
            .workstealing(ws)
            .make_threaded()
    }

    #[test]
    fn executes_everything_without_ws() {
        for flavor in [Flavor::Libasync, Flavor::Mely] {
            let r = {
                let mut rt = rt(flavor, WsPolicy::off(), 2);
                for i in 0..200u16 {
                    rt.register(Event::new(Color::new(i), 0));
                }
                rt.run()
            };
            assert_eq!(r.events_processed(), 200, "{flavor:?}");
        }
    }

    #[test]
    fn actions_run_and_cascade() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        for i in 0..50u16 {
            let c1 = Arc::clone(&counter);
            rt.register(Event::new(Color::new(i), 0).with_action(move |ctx| {
                let c2 = Arc::clone(&c1);
                ctx.register(Event::new(Color::new(1_000), 0).with_action(move |_| {
                    c2.fetch_add(1, Ordering::Relaxed);
                }));
                c1.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let r = rt.run();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(r.events_processed(), 100);
    }

    #[test]
    fn mutual_exclusion_per_color_under_stealing() {
        // Events of one color must never run concurrently even with
        // aggressive stealing. A non-atomic-looking critical section
        // protected only by the color discipline detects violations.
        let mut rt = rt(Flavor::Mely, WsPolicy::base(), 4);
        let in_crit: Arc<AtomicI64> = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        for i in 0..400u16 {
            // Two colors; many events each; plus background noise colors
            // to give thieves something to do.
            let color = Color::new((i % 2) + 1);
            let crit = Arc::clone(&in_crit);
            let bad = Arc::clone(&violations);
            rt.register_pinned(
                Event::new(color, 0).with_action(move |_| {
                    // Per-color section: colors 1 and 2 may interleave with
                    // each other, so track them separately via sign bits.
                    let delta = if color.value() == 1 { 1 } else { 1 << 16 };
                    let prev = crit.fetch_add(delta, Ordering::SeqCst);
                    let mine = if color.value() == 1 {
                        prev & 0xFFFF
                    } else {
                        prev >> 16
                    };
                    if mine != 0 {
                        bad.fetch_add(1, Ordering::SeqCst);
                    }
                    std::hint::spin_loop();
                    crit.fetch_sub(delta, Ordering::SeqCst);
                }),
                0,
            );
        }
        let r = rt.run();
        assert_eq!(
            violations.load(Ordering::SeqCst),
            0,
            "color exclusion violated"
        );
        assert_eq!(r.events_processed(), 400);
    }

    #[test]
    fn stealing_spreads_pinned_load() {
        let mut rt = rt(Flavor::Mely, WsPolicy::base(), 4);
        for i in 0..64u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 200_000), 0);
        }
        let r = rt.run();
        assert_eq!(r.events_processed(), 64);
        assert!(
            r.total().steals > 0,
            "expected steals on an unbalanced load"
        );
    }

    #[test]
    fn handle_allows_external_injection_and_stop() {
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        // Seed one event so workers do not exit immediately.
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            // Keep the runtime alive long enough for the injector thread
            // to be scheduled (~20 ms of virtual headroom).
            ctx.register_after(50_000_000, Event::new(Color::new(1), 0));
        }));
        let handle = rt.handle();
        let injector = std::thread::spawn(move || {
            for i in 0..20u16 {
                handle.inject(Event::new(Color::new(i + 10), 0));
            }
        });
        let r = rt.run();
        injector.join().unwrap();
        assert!(r.events_processed() >= 21);
        // Handle registrations and the timer firing all went through the
        // lock-free inboxes, and every push was eventually drained.
        assert!(r.inbox_pushes() >= 21);
        assert_eq!(r.inbox_drained(), r.inbox_pushes());
        assert!(r.avg_inbox_drain_batch().unwrap() >= 1.0);
    }

    #[test]
    fn recycling_counters_surface_in_the_report() {
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 1);
        // Serialize everything on one color so the worker drains the
        // inbox in many small batches, recycling nodes in between, and
        // the queue keeps retiring and recreating the color-queue.
        let keepalive = rt.handle().keepalive();
        let handle = rt.handle();
        let injector = std::thread::spawn(move || {
            // Chunked with a drain barrier in between: waiting for
            // `outstanding` to hit zero guarantees the worker drained
            // the inbox (recycling its nodes) and popped the color-queue
            // empty (pooling its buffer) before the next chunk pushes —
            // so both reuse counters must advance no matter how the
            // scheduler interleaves the threads.
            for chunk in 0..40u64 {
                for i in 0..50u64 {
                    handle.inject(Event::new(Color::new(5), (chunk + i) % 3));
                }
                while handle.outstanding() > 0 {
                    std::thread::yield_now();
                }
            }
            handle.stop_when_idle();
            drop(keepalive);
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(r.events_processed(), 2_000);
        assert!(
            r.inbox_node_reuse() > 0,
            "inbox node pool never hit: {:?}",
            r.total()
        );
        assert!(
            r.queue_buf_reuse() > 0,
            "queue buffer pool never hit: {:?}",
            r.total()
        );
    }

    #[test]
    fn keepalive_holds_workers_and_stop_when_idle_drains() {
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        let keepalive = rt.handle().keepalive();
        let handle = rt.handle();
        let done = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&done);
        let injector = std::thread::spawn(move || {
            // The workers have nothing queued at start; without the
            // keepalive they would already have exited.
            std::thread::sleep(std::time::Duration::from_millis(20));
            for i in 0..30u16 {
                let d = Arc::clone(&d);
                handle.inject(Event::new(Color::new(i + 1), 0).with_action(move |_| {
                    d.fetch_add(1, Ordering::Relaxed);
                }));
            }
            handle.stop_when_idle();
            drop(keepalive);
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 30, "late work still ran");
        assert_eq!(r.events_processed(), 30);
    }

    #[test]
    fn direct_and_inbox_injection_paths_agree() {
        let mut rt = rt(Flavor::Libasync, WsPolicy::base(), 2);
        rt.register(Event::new(Color::new(1), 0).with_action(|ctx| {
            ctx.register_after(50_000_000, Event::new(Color::new(1), 0));
        }));
        let handle = rt.handle();
        let injector = std::thread::spawn(move || {
            for i in 0..40u16 {
                let ev = Event::new(Color::new(i % 8 + 10), 0);
                if i % 2 == 0 {
                    handle.inject(ev);
                } else {
                    handle.inject_locked(ev);
                }
            }
        });
        let r = rt.run();
        injector.join().unwrap();
        assert_eq!(r.events_processed(), 42);
        assert!(r.inbox_pushes() >= 20, "inbox path used for half");
    }

    // The inject/inject_locked/inject_after trio is pinned by the
    // consolidated test
    // `runtime::tests::removed_aliases_have_working_replacements`.

    #[test]
    fn timers_fire() {
        let fired = Arc::new(AtomicU64::new(0));
        let mut rt = rt(Flavor::Mely, WsPolicy::off(), 2);
        let f = Arc::clone(&fired);
        rt.register(Event::new(Color::new(1), 0).with_action(move |ctx| {
            let f2 = Arc::clone(&f);
            ctx.register_after(
                100_000,
                Event::new(Color::new(2), 0).with_action(move |_| {
                    f2.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }));
        let r = rt.run();
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(r.events_processed(), 2);
    }
}
