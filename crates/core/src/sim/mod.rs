//! Deterministic discrete-event simulation of an N-core machine.
//!
//! This executor substitutes for the paper's 8-core Xeon testbed (see
//! DESIGN.md): each virtual core has its own cycle clock, queue operations
//! and steals are charged with the paper's measured cost constants
//! ([`crate::cost::CostParams`]), spinlock contention is modelled by
//! per-lock availability times, and — optionally — every event
//! continuation and data-set access goes through a cache simulator built
//! from the machine's topology, so the experiments can report L2 misses
//! per event exactly like Tables V and VI.
//!
//! The scheduler code it drives (queues, color choice, victim order) is
//! the same as the threaded executor's; only locking and time accounting
//! differ. Runs are fully deterministic: identical inputs produce
//! identical reports.
//!
//! # Examples
//!
//! ```
//! use mely_core::prelude::*;
//!
//! let mut rt = RuntimeBuilder::new()
//!     .cores(8)
//!     .flavor(Flavor::Mely)
//!     .workstealing(WsPolicy::improved())
//!     .build(ExecKind::Sim);
//! for i in 0..64u16 {
//!     rt.register_pinned(Event::new(Color::new(i + 1), 10_000), 0);
//! }
//! let report = rt.run();
//! assert_eq!(report.events_processed(), 64);
//! // The imbalance was resolved by stealing.
//! assert!(report.per_core().iter().filter(|c| c.events_processed > 0).count() > 1);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mely_cachesim::Hierarchy;

use crate::admission::{AdmissionCtl, AdmissionPolicy, QueueLimits};
use crate::color::{Color, COLOR_SPACE};
use crate::cost::{CostParams, Ewma};
use crate::ctx::{Ctx, CtxEffects};
use crate::dataset::{DataSetAlloc, DataSetRef};
use crate::event::Event;
use crate::exec::{ExecKind, Executor, Injector, MailboxEntry, SimMailbox};
use crate::fault::{kind_of_panic, Fault, FaultCtl, FaultKind, FaultPolicy, InjectedPanicMarker};
use crate::fuzz::{FaultPlan, SchedulePerturbation, ScheduleRng};
use crate::handler::{HandlerId, HandlerRegistry, HandlerSpec};
use crate::metrics::{CoreMetrics, RunReport};
use crate::queue::{LegacyQueue, MelyQueue, QueueImpl};
use crate::runtime::Flavor;
use crate::steal::{StealContext, StealDomains, StealPolicy, WsPolicy};
use mely_topology::MachineModel;

/// Configuration of a [`SimRuntime`] (built by
/// [`crate::runtime::RuntimeBuilder`]).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of simulated cores (≤ the machine model's core count).
    pub cores: usize,
    /// Queue architecture.
    pub flavor: Flavor,
    /// Workstealing policy.
    pub ws: WsPolicy,
    /// Machine model (topology, latencies, frequency).
    pub machine: MachineModel,
    /// Victim-selection and steal-budget policy
    /// ([`crate::steal::StealPolicy`]). The builder defaults this to
    /// [`crate::steal::default_steal_policy`] for the machine;
    /// `FlatPolicy` reproduces the pre-policy victim choices bit for
    /// bit.
    pub steal_policy: Arc<dyn StealPolicy>,
    /// Runtime operation costs.
    pub costs: CostParams,
    /// Max events of one color processed in a row (10 in the paper).
    pub batch_threshold: u32,
    /// Whether to simulate caches (slower; required for miss metrics).
    pub track_cache: bool,
    /// Hard stop after this much virtual time, if set.
    pub max_cycles: Option<u64>,
    /// Initial steal-cost estimate before any steal was monitored.
    pub initial_steal_estimate: u64,
    /// Admission-boundary queue limits (default: unbounded).
    pub queue_limits: QueueLimits,
    /// What infallible injection does when a limit is hit.
    pub admission: AdmissionPolicy,
    /// Seeded schedule perturbation ([`crate::fuzz`]); `None` (the
    /// default) keeps the canonical deterministic schedule.
    pub perturb: Option<SchedulePerturbation>,
    /// Response to a contained handler fault ([`crate::fault`]).
    pub fault_policy: FaultPolicy,
    /// Seeded fault injection ([`crate::fuzz::FaultPlan`]); `None` (the
    /// default) injects nothing and keeps the hot paths draw-free.
    pub fault_plan: Option<FaultPlan>,
}

struct SimCore {
    queue: QueueImpl,
    clock: u64,
    lock_free_at: u64,
    /// Color being executed and the virtual time its handler finishes.
    in_flight: Option<(Color, u64)>,
    metrics: CoreMetrics,
}

impl SimCore {
    fn in_flight_at(&self, t: u64) -> Option<Color> {
        match self.in_flight {
            Some((c, until)) if t < until => Some(c),
            _ => None,
        }
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
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The deterministic multicore simulator.
pub struct SimRuntime {
    cfg: SimConfig,
    /// Steal tiers over the running cores, computed once from the
    /// machine model and consulted by the steal path (victim tiers for
    /// the per-tier counters; the policy reads it through
    /// [`StealContext`]).
    domains: StealDomains,
    /// Load and victim lists reused by every steal attempt.
    steal_loads: Vec<usize>,
    steal_victims: Vec<usize>,
    cores: Vec<SimCore>,
    /// Current owner core per color (`u32::MAX` = unassigned).
    color_owner: Vec<u32>,
    registry: HandlerRegistry,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    ds_alloc: DataSetAlloc,
    cache: Option<Hierarchy>,
    steal_est: Ewma,
    next_seq: u64,
    stopped: bool,
    /// Lock-wait cycles accumulated by the current steal attempt (waits
    /// are congestion, not steal work; see `try_steal`).
    attempt_wait: u64,
    /// External-producer mailbox behind [`crate::exec::Injector`]; the
    /// run loop drains it at iteration boundaries.
    mailbox: Arc<SimMailbox>,
    /// The decision stream for schedule perturbation (`Some` iff
    /// `cfg.perturb` is). Replay = fresh runtime + same seed.
    sched_rng: Option<ScheduleRng>,
    /// Fault policy, quarantine set and fault log, shared with the
    /// mailbox (which rejects quarantined colors at admission).
    faults: Arc<FaultCtl>,
    /// The dedicated fault-injection decision stream (`Some` iff a
    /// non-noop `cfg.fault_plan` is). Kept separate from `sched_rng` so
    /// enabling faults never shifts the schedule-perturbation draws.
    fault_rng: Option<ScheduleRng>,
}

/// Simulated addresses of event continuations live below the dataset
/// space; one cache line per event.
const EVENT_ADDR_MASK: u64 = (1 << 32) - 1;

fn event_addr(seq: u64) -> u64 {
    (seq * 64) & EVENT_ADDR_MASK
}

impl SimRuntime {
    /// Creates a simulator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the machine model's cores.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        assert!(
            cfg.cores <= cfg.machine.num_cores(),
            "machine model {} has only {} cores (asked for {})",
            cfg.machine.name(),
            cfg.machine.num_cores(),
            cfg.cores
        );
        let cores = (0..cfg.cores)
            .map(|_| SimCore {
                queue: match cfg.flavor {
                    Flavor::Libasync => QueueImpl::Legacy(LegacyQueue::new()),
                    Flavor::Mely => QueueImpl::Mely(MelyQueue::new(cfg.ws.penalty)),
                },
                clock: 0,
                lock_free_at: 0,
                in_flight: None,
                metrics: CoreMetrics::default(),
            })
            .collect();
        let cache = cfg.track_cache.then(|| Hierarchy::new(&cfg.machine));
        let initial_est = cfg.initial_steal_estimate;
        let faults = Arc::new(FaultCtl::new(cfg.fault_policy, cfg.fault_plan));
        let mailbox = Arc::new(SimMailbox::new(
            AdmissionCtl::new(cfg.queue_limits, cfg.admission),
            cfg.cores,
            Arc::clone(&faults),
        ));
        let sched_rng = cfg.perturb.map(|p| p.rng());
        let fault_rng = faults.plan.map(|p| p.rng());
        let domains = StealDomains::new(&cfg.machine, cfg.cores);
        let mut rt = SimRuntime {
            cfg,
            domains,
            steal_loads: Vec::new(),
            steal_victims: Vec::new(),
            cores,
            color_owner: vec![u32::MAX; COLOR_SPACE],
            registry: HandlerRegistry::new(),
            timers: BinaryHeap::new(),
            ds_alloc: DataSetAlloc::new(),
            cache: None,
            steal_est: Ewma::new(initial_est),
            next_seq: 0,
            stopped: false,
            attempt_wait: 0,
            mailbox,
            sched_rng,
            faults,
            fault_rng,
        };
        rt.cache = cache;
        rt.sync_steal_estimates();
        rt
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Registers an application handler (name, cost annotation, penalty).
    pub fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        self.registry.register(spec)
    }

    /// The runtime's current cost estimate for a handler: the annotation,
    /// or the monitored EWMA for [`crate::handler::CostSource::Measured`]
    /// handlers (the paper's future-work extension, Section VII).
    pub fn handler_estimate(&self, id: HandlerId) -> u64 {
        self.registry.estimate(id)
    }

    /// Allocates a simulated data set of `len` bytes.
    pub fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        self.ds_alloc.alloc(len)
    }

    /// Maximum virtual time reached by any core.
    pub fn virtual_now(&self) -> u64 {
        self.cores.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Registers an event from outside the runtime. It is dispatched to
    /// the core owning its color (initially the color's home core).
    pub fn register(&mut self, ev: Event) {
        let owner = self.owner_of(ev.color());
        self.push_to(owner, ev, 0);
    }

    /// Registers an event and pins its color to `core` (overriding the
    /// hash dispatch) — how the microbenchmarks create their initial
    /// imbalance ("50000 events are registered on the first core",
    /// Section V-B).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn register_pinned(&mut self, ev: Event, core: usize) {
        assert!(core < self.cores.len(), "core out of range");
        self.color_owner[ev.color().value() as usize] = core as u32;
        self.push_to(core, ev, 0);
    }

    fn owner_of(&mut self, color: Color) -> usize {
        let slot = color.value() as usize;
        let cur = self.color_owner[slot];
        if cur != u32::MAX {
            return cur as usize;
        }
        let home = color.home_core(self.cores.len());
        self.color_owner[slot] = home as u32;
        home
    }

    /// Prepares an event (sequence number, handler-derived cost/penalty)
    /// and pushes it to `core` with the given visibility time.
    fn push_to(&mut self, core: usize, mut ev: Event, visible_at: u64) {
        if let Some(h) = ev.handler {
            if ev.cost == 0 {
                ev.cost = self.registry.estimate(h);
            }
            if ev.penalty == 1 {
                ev.penalty = self.registry.penalty(h);
            }
        }
        ev.seq = self.next_seq;
        self.next_seq += 1;
        ev.visible_at = visible_at;
        self.cores[core].metrics.registered += 1;
        self.cores[core].queue.push(ev);
        self.mailbox
            .publish_core_occupancy(core, self.cores[core].queue.len() as u32);
        // The machine holds unexecuted work again (stop_when_idle
        // watches this through the mailbox).
        self.mailbox.set_machine_idle(false);
    }

    /// Models taking `owner`'s spinlock from `locker` for `hold` cycles:
    /// waits until the lock frees, charges the wait to `locker`, and
    /// advances both the lock and `locker`'s clock.
    fn lock(&mut self, owner: usize, locker: usize, hold: u64) {
        let at = self.cores[locker].clock;
        let start = at.max(self.cores[owner].lock_free_at);
        let end = start + hold;
        self.cores[owner].lock_free_at = end;
        let wait = start - at;
        let m = &mut self.cores[locker].metrics;
        m.lock_wait_cycles += wait;
        m.lock_ops += 1;
        self.cores[locker].clock = end;
        self.attempt_wait += wait;
    }

    fn total_queued(&self) -> usize {
        self.cores.iter().map(|c| c.queue.len()).sum()
    }

    /// The perturbation RNG, but only when `toggle` is enabled on the
    /// configured [`SchedulePerturbation`] — each decision point gates
    /// on its own flag so perturbations are individually toggleable.
    fn perturb_rng(
        &mut self,
        toggle: impl Fn(&SchedulePerturbation) -> bool,
    ) -> Option<&mut ScheduleRng> {
        match &self.cfg.perturb {
            Some(p) if toggle(p) => self.sched_rng.as_mut(),
            _ => None,
        }
    }

    /// Runs until every queue and timer drains (or a handler called
    /// [`Ctx::stop_runtime`], or `max_cycles` elapsed), then returns the
    /// cumulative report. Can be called again after registering more
    /// events; clocks and metrics accumulate.
    pub fn run(&mut self) -> RunReport {
        self.stopped = false;
        let mut iters: u64 = 0;
        let mut last_progress = (0u64, 0u64); // (iters, events at checkpoint)
        loop {
            iters += 1;
            if iters.is_multiple_of(10_000_000) {
                // Livelock watchdog: virtual time always advances, but if
                // tens of millions of scheduling decisions pass without a
                // single event executing, something is structurally wrong.
                let processed: u64 = self.cores.iter().map(|c| c.metrics.events_processed).sum();
                if processed == last_progress.1 {
                    panic!(
                        "simulation livelock: no event executed between \
                         iterations {} and {iters}",
                        last_progress.0
                    );
                }
                last_progress = (iters, processed);
            }
            if self.stopped {
                break;
            }
            if self.mailbox.stop_requested() {
                break;
            }
            self.drain_mailbox();
            if let Some(limit) = self.cfg.max_cycles {
                if self.virtual_now() >= limit {
                    break;
                }
            }
            // Deliver timers that are due with respect to the slowest
            // core (they only carry a visibility floor, so delivering
            // early is harmless; this just keeps the heap small).
            let min_clock = self.cores.iter().map(|c| c.clock).min().unwrap_or(0);
            while let Some(Reverse(t)) = self.timers.peek() {
                if t.due <= min_clock {
                    let Reverse(t) = self.timers.pop().expect("peeked");
                    let owner = self.owner_of(t.event.color());
                    self.push_to(owner, t.event, t.due);
                } else {
                    break;
                }
            }

            // Pick the earliest actionable core. An idle core may only
            // attempt steals while its clock has not raced past every
            // core that actually holds work (a real idle core stops
            // spinning the moment work appears; letting its virtual
            // clock run ahead would delay any set it later steals).
            let total = self.total_queued();
            let busy_horizon = self
                .cores
                .iter()
                .filter(|c| !c.queue.is_empty())
                .map(|c| c.clock.max(c.lock_free_at))
                .max();
            let slack = 4 * self.cfg.costs.idle_recheck;
            let scramble = self.cfg.perturb.is_some_and(|p| p.scramble_core_pick);
            let mut best: Option<(u64, usize)> = None;
            let mut actionable: Vec<usize> = Vec::new();
            for i in 0..self.cores.len() {
                let qlen = self.cores[i].queue.len();
                let clock = self.cores[i].clock;
                let can_steal = self.cfg.ws.enabled
                    && total > qlen
                    && total > 0
                    && busy_horizon.is_some_and(|h| clock <= h + slack);
                if qlen > 0 || can_steal {
                    if scramble {
                        actionable.push(i);
                    }
                    if best.is_none_or(|(bt, _)| clock < bt) {
                        best = Some((clock, i));
                    }
                }
            }
            if scramble && !actionable.is_empty() {
                // Perturbed core pick: any actionable core may step next,
                // not just the earliest clock — this shifts *when* each
                // core runs (and checks for steals) relative to its
                // peers while every legal choice still makes progress.
                let rng = self.sched_rng.as_mut().expect("perturb implies rng");
                let i = actionable[rng.pick(actionable.len())];
                best = Some((self.cores[i].clock, i));
            }
            match best {
                Some((_, c)) => self.step(c),
                None => {
                    // Nothing runnable: deliver the earliest timer batch,
                    // or finish.
                    let Some(Reverse(t)) = self.timers.pop() else {
                        // Queues and timers are empty: everything
                        // absorbed so far has executed.
                        self.mailbox.set_machine_idle(true);
                        if self.mailbox.holds_open() {
                            // An external producer holds a keepalive (or
                            // has pushed events we have not drained yet):
                            // wait for it instead of returning. Real
                            // waiting, not scheduling work — keep it out
                            // of the livelock watchdog's iteration count.
                            iters -= 1;
                            std::thread::yield_now();
                            continue;
                        }
                        break;
                    };
                    let due = t.due;
                    let owner = self.owner_of(t.event.color());
                    self.push_to(owner, t.event, due);
                    while let Some(Reverse(n)) = self.timers.peek() {
                        if n.due == due {
                            let Reverse(n) = self.timers.pop().expect("peeked");
                            let owner = self.owner_of(n.event.color());
                            self.push_to(owner, n.event, due);
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        // Consume any stop request on the way out (like the threaded
        // executor after its workers join), so a later `run` proceeds.
        self.mailbox.clear_stop();
        self.report()
    }

    /// A cloneable, `Send` handle for registering events from other
    /// threads ([`crate::exec::Injector`]); the run loop absorbs its
    /// mailbox at iteration boundaries. Single-threaded simulations
    /// never touch it and stay fully deterministic.
    pub fn injector(&self) -> Injector {
        Injector::for_sim(Arc::clone(&self.mailbox))
    }

    /// Absorbs externally injected events ([`crate::exec::Injector`])
    /// into the owning cores' queues and the timer heap.
    ///
    /// Under [`SchedulePerturbation::perturb_mailbox`] the drain is
    /// sometimes deferred to a later iteration (shifting the absorption
    /// point) and the drained batch is absorbed in a shuffled order. The
    /// RNG is consulted only when the mailbox holds entries, so the
    /// decision stream is keyed to deterministic state.
    fn drain_mailbox(&mut self) {
        if !self.mailbox.has_buffered() {
            return;
        }
        if let Some(rng) = self.perturb_rng(|p| p.perturb_mailbox) {
            if rng.chance(1, 4) {
                return;
            }
        }
        let mut batch = self.mailbox.drain();
        if let Some(rng) = self.perturb_rng(|p| p.perturb_mailbox) {
            rng.shuffle(&mut batch);
        }
        for entry in batch {
            match entry {
                MailboxEntry::Now(ev) => {
                    let owner = self.owner_of(ev.color());
                    self.push_to(owner, ev, 0);
                }
                MailboxEntry::After(delay, ev) => {
                    let due = self.virtual_now() + delay;
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.timers.push(Reverse(TimerEntry {
                        due,
                        seq,
                        event: ev,
                    }));
                }
            }
        }
    }

    /// Snapshot of the cumulative metrics.
    pub fn report(&self) -> RunReport {
        use std::sync::atomic::Ordering::Relaxed;
        let mut per_core: Vec<CoreMetrics> = self.cores.iter().map(|c| c.metrics).collect();
        // Admission counters are kept runtime-global (producers are not
        // cores); attribute the cumulative totals to core 0's slot.
        let adm = &self.mailbox.admission;
        per_core[0].admission_rejects = adm.rejects.load(Relaxed);
        per_core[0].shed_requests = adm.shed_requests.load(Relaxed);
        per_core[0].shed_by_color = adm.shed_by_color.load(Relaxed);
        // Admission-boundary quarantine sheds join core 0's drain-side
        // count (`+=`: the per-core copy above already holds core 0's
        // own pop-time discards).
        per_core[0].shed_by_fault += adm.shed_by_fault.load(Relaxed);
        if let Some(cache) = &self.cache {
            for (i, m) in per_core.iter_mut().enumerate() {
                m.l2_misses = cache.level_stats(i, 2).map_or(0, |s| s.misses);
            }
        }
        RunReport::new(
            per_core,
            self.virtual_now(),
            self.cfg.machine.freq_hz(),
            self.cfg.ws,
        )
        .with_fault_log(self.faults.log_snapshot())
    }

    fn step(&mut self, c: usize) {
        // Under batch-cut jitter the effective per-color dispatch batch
        // for this step is a random 1..=batch_threshold. It is drawn
        // once and shared by `next_ready_time` and `pop`: both walk the
        // same rotation state, so disagreeing values would desync them.
        let threshold = self.cfg.batch_threshold.max(1);
        let batch = match self.perturb_rng(|p| p.jitter_batch_cut) {
            Some(rng) => rng.pick(threshold as usize) as u32 + 1,
            None => threshold,
        };
        match self.cores[c].queue.next_ready_time(batch) {
            Some(t) if t <= self.cores[c].clock => self.execute_one(c, batch),
            Some(t) => {
                // Wait for the event to become visible.
                let m = &mut self.cores[c];
                m.metrics.idle_cycles += t - m.clock;
                m.clock = t;
            }
            None => {
                debug_assert!(self.cfg.ws.enabled);
                if let Some(rng) = self.perturb_rng(|p| p.defer_steals) {
                    if rng.chance(1, 4) {
                        // Perturbed steal timing: skip this steal check
                        // and idle one recheck period instead.
                        let pause = self.cfg.costs.idle_recheck;
                        let m = &mut self.cores[c];
                        m.clock += pause;
                        m.metrics.idle_cycles += pause;
                        return;
                    }
                }
                // After a successful steal the thief immediately executes
                // (as a real worker loop does after `migrate` returns) —
                // otherwise lower-clock idle cores could re-steal the set
                // before its holder ever runs it, ping-ponging forever.
                if self.try_steal(c) {
                    self.execute_one(c, batch);
                }
            }
        }
    }

    fn execute_one(&mut self, c: usize, batch: u32) {
        let costs = self.cfg.costs.clone();
        // Pop under our own lock.
        self.lock(c, c, costs.lock_acquire + costs.queue_op);
        let Some(mut ev) = self.cores[c].queue.pop(batch) else {
            return;
        };
        self.mailbox
            .publish_core_occupancy(c, self.cores[c].queue.len() as u32);
        if ev.color_counted {
            // The admission boundary claimed a per-color in-flight slot
            // for this event; dispatching it frees the slot.
            self.mailbox
                .admission
                .release_color(ev.color().value() as usize);
            ev.color_counted = false;
        }
        let color = ev.color();
        // Lazy quarantine drain: a poisoned color's events already in
        // the queues (or arriving via timers and steals) are discarded
        // at pop time — the queues shrink normally, so the run loop's
        // progress accounting needs no special case.
        if self.faults.is_quarantined(color) {
            let m = &mut self.cores[c].metrics;
            m.shed_by_fault += 1;
            if ev.carries_request {
                m.failed_requests += 1;
            }
            return;
        }
        // Seeded fault injection: the drop and panic decisions each
        // consume one draw per dispatch whenever a plan is configured
        // (even at rate zero), so changing one rate never shifts the
        // other's decision sites.
        let mut inject_panic = false;
        if let Some(rng) = self.fault_rng.as_mut() {
            let plan = self.faults.plan.expect("fault rng implies a plan");
            if rng.chance(plan.drop_per_million, 1_000_000) {
                let m = &mut self.cores[c].metrics;
                m.note_fault(Some(color), FaultKind::InjectedDrop.code(), ev.seq);
                if ev.carries_request {
                    m.failed_requests += 1;
                }
                self.faults.record(Fault {
                    color: Some(color),
                    handler: ev.handler(),
                    kind: FaultKind::InjectedDrop,
                });
                return;
            }
            inject_panic = rng.chance(plan.panic_per_million, 1_000_000);
        }
        let mut exec = costs.dispatch + ev.cost();

        // The continuation itself occupies a cache line.
        if let Some(cache) = &mut self.cache {
            exec += cache.access(c, event_addr(ev.seq)).latency_cycles;
        }
        // Declared data set: full sweep.
        if let Some(ds) = ev.dataset().cloned() {
            if let Some(cache) = &mut self.cache {
                let (lat, _m) = cache.sweep(c, ds.base(), ds.len(), 2);
                exec += lat;
                self.cores[c].metrics.mem_stall_cycles += lat;
            }
        }

        // Run the continuation (if any) inside the containment boundary
        // and collect its effects. The effects are buffered, so a
        // panicking execution discards them wholesale below — a fault
        // never emits half a fan-out.
        let mut fx = CtxEffects::default();
        let action = ev.take_action();
        let clock = self.cores[c].clock;
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                std::panic::panic_any(InjectedPanicMarker);
            }
            if let Some(action) = action {
                let mut ctx = Ctx::new(c, clock, &mut fx);
                action(&mut ctx);
            }
        }))
        .err();
        if let Some(payload) = unwound {
            let kind = kind_of_panic(payload.as_ref());
            self.faults.record(Fault {
                color: Some(color),
                handler: ev.handler(),
                kind: kind.clone(),
            });
            // Time up to (and including) the faulting dispatch is real:
            // charge it, but count neither the event nor a completion.
            let core = &mut self.cores[c];
            core.clock = clock + exec;
            core.in_flight = Some((color, clock + exec));
            core.metrics.busy_cycles += exec;
            core.metrics.note_fault(Some(color), kind.code(), ev.seq);
            if ev.carries_request {
                core.metrics.failed_requests += 1;
            }
            match self.faults.policy {
                FaultPolicy::QuarantineColor => {
                    if self.faults.quarantined.quarantine(color) {
                        self.cores[c].metrics.quarantined_colors += 1;
                    }
                }
                FaultPolicy::ShedEvent => {}
                FaultPolicy::Abort => resume_unwind(payload),
            }
            return;
        }
        exec += fx.charged;
        for t in &fx.touches {
            if let Some(cache) = &mut self.cache {
                let (lat, _m) = cache.sweep(c, t.ds.base() + t.offset, t.len, 2);
                exec += lat;
                self.cores[c].metrics.mem_stall_cycles += lat;
            }
        }

        let start = self.cores[c].clock;
        self.cores[c].clock = start + exec;
        self.cores[c].in_flight = Some((color, start + exec));
        self.cores[c].metrics.busy_cycles += exec;
        self.cores[c].metrics.events_processed += 1;
        self.cores[c].metrics.note_completion(color, ev.seq);
        for latency in fx.completions() {
            self.cores[c].metrics.completed_requests += 1;
            self.cores[c].metrics.latency.record(latency);
        }
        self.cores[c].metrics.failed_requests += fx.failed;
        if let Some(h) = ev.handler() {
            self.registry.record(h, exec);
        }

        // Apply buffered effects: delayed registrations become timers,
        // immediate ones are routed through the color map.
        for (mut delay, ev2) in fx.delayed {
            self.cores[c].clock += costs.registration;
            if let Some(rng) = self.fault_rng.as_mut() {
                let plan = self.faults.plan.expect("fault rng implies a plan");
                if rng.chance(plan.timer_spike_per_million, 1_000_000) {
                    // Injected late timer: the delay stretches, the
                    // event still fires. Fingerprint coverage comes from
                    // the shifted completion order, not a fault record.
                    delay += plan.timer_spike_cycles;
                }
            }
            let due = self.cores[c].clock + delay;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.timers.push(Reverse(TimerEntry {
                due,
                seq,
                event: ev2,
            }));
        }
        for ev2 in fx.registrations {
            if self.faults.is_quarantined(ev2.color()) {
                // A surviving handler fanned out into a poisoned color:
                // shed at the registration boundary rather than queue
                // work the drain would discard anyway.
                let m = &mut self.cores[c].metrics;
                m.shed_by_fault += 1;
                if ev2.carries_request {
                    m.failed_requests += 1;
                }
                continue;
            }
            self.cores[c].clock += costs.registration;
            let owner = self.owner_of(ev2.color());
            self.lock(owner, c, costs.lock_acquire + costs.queue_op);
            let now = self.cores[c].clock;
            self.push_to(owner, ev2, now);
        }
        if fx.stop {
            self.stopped = true;
        }
    }

    /// One full steal attempt by core `c` (Figure 2 of the paper, with
    /// costs charged along the way). Returns whether events were stolen.
    fn try_steal(&mut self, c: usize) -> bool {
        let costs = self.cfg.costs.clone();
        let t_start = self.cores[c].clock;
        self.cores[c].metrics.steal_attempts += 1;
        self.cores[c].clock += costs.steal_setup;
        // Waits on contended locks are congestion (already accounted as
        // lock-wait time), not steal *work*: exclude them from the
        // duration fed to the time-left estimate, like the runtime's
        // profiling of "the time it takes to steal one single event".
        self.attempt_wait = 0;

        let mut loads = std::mem::take(&mut self.steal_loads);
        loads.clear();
        loads.extend(self.cores.iter().map(|x| x.queue.len()));
        let mut set = std::mem::take(&mut self.steal_victims);
        let policy = Arc::clone(&self.cfg.steal_policy);
        policy.victims_into(
            c,
            &loads,
            &StealContext {
                ws: self.cfg.ws,
                machine: &self.cfg.machine,
                domains: &self.domains,
            },
            &mut set,
        );
        self.steal_loads = loads;
        if let Some(rng) = self.perturb_rng(|p| p.shuffle_victims) {
            // Perturbed victim choice: visit candidates in a shuffled
            // order instead of the policy's canonical one.
            rng.shuffle(&mut set);
        }
        let stolen = self.steal_from_first(c, &set, &policy, t_start);
        self.steal_victims = set;
        if stolen {
            return true;
        }
        // Nothing stealable anywhere: pause before retrying.
        self.cores[c].clock += costs.idle_recheck;
        let wasted = self.cores[c].clock - t_start;
        let m = &mut self.cores[c].metrics;
        m.failed_steal_cycles += wasted;
        m.idle_cycles += wasted;
        false
    }

    /// Probes `set` in order and steals from the first victim that
    /// yields, recording the steal. Returns whether one did.
    fn steal_from_first(
        &mut self,
        c: usize,
        set: &[usize],
        policy: &Arc<dyn StealPolicy>,
        t_start: u64,
    ) -> bool {
        for &v in set {
            if v == c || v >= self.cores.len() {
                continue;
            }
            if self.cores[v].queue.is_empty() {
                continue;
            }
            // Unlocked pre-screen of `can_be_stolen`: queue lengths,
            // color counts and the stealing-queue are readable without
            // the victim's lock (racily — the decision is re-validated
            // under the lock by the steal itself). Without this, seven
            // idle thieves polling a busy core would serialize it on
            // futile lock acquisitions.
            let vin = self.cores[v].in_flight_at(self.cores[c].clock);
            let can = match (&self.cores[v].queue, self.cfg.ws.time_left) {
                (QueueImpl::Legacy(q), _) => q.distinct_colors() >= 2,
                (QueueImpl::Mely(q), true) => q.choose_worthy(vin).is_some(),
                (QueueImpl::Mely(q), false) => q.can_be_stolen_base(),
            };
            if !can {
                continue;
            }
            let budget = policy
                .steal_budget(
                    c,
                    v,
                    &StealContext {
                        ws: self.cfg.ws,
                        machine: &self.cfg.machine,
                        domains: &self.domains,
                    },
                )
                .max(1);
            let stolen = match self.cfg.flavor {
                Flavor::Libasync => self.steal_from_legacy(c, v, budget),
                Flavor::Mely => self.steal_from_mely(c, v, budget),
            };
            if stolen {
                let dur = (self.cores[c].clock - t_start).saturating_sub(self.attempt_wait);
                let tier = self.domains.tier_of(c, v);
                let m = &mut self.cores[c].metrics;
                m.steals += 1;
                m.steal_cycles += dur;
                m.note_steal_tier(tier);
                self.steal_est.record(dur);
                self.sync_steal_estimates();
                return true;
            }
        }
        false
    }

    /// Steals up to `budget` colors from `v` under one victim-lock
    /// hold. A budget of 1 is the classic algorithm, charge for
    /// charge; larger budgets (far-tier steals under
    /// [`crate::steal::HierarchicalPolicy`]) amortize the lock pair
    /// and the migration trip over several colors.
    fn steal_from_legacy(&mut self, c: usize, v: usize, budget: usize) -> bool {
        let costs = self.cfg.costs.clone();
        let vin = self.cores[v].in_flight_at(self.cores[c].clock);
        let mut taken: Vec<(Color, Vec<Event>)> = Vec::new();
        let mut hold = costs.lock_acquire;
        // Lock-hold cost of a futile visit, when nothing was taken.
        let mut futile: Option<u64> = None;
        {
            let QueueImpl::Legacy(q) = &mut self.cores[v].queue else {
                unreachable!("legacy flavor uses legacy queues");
            };
            // can_be_stolen: at least two distinct colors (Figure 2);
            // re-checked before every extra color so the victim always
            // keeps work.
            if q.distinct_colors() < 2 {
                futile = Some(0);
            }
            while futile.is_none() && taken.len() < budget && q.distinct_colors() >= 2 {
                let Some((color, scanned_choose)) = q.choose_color_to_steal(vin) else {
                    if taken.is_empty() {
                        // Scanned the whole queue to find nothing.
                        let scanned = (q.len() as u64).min(costs.scan_cap_events);
                        futile = Some(costs.scan_per_event * scanned);
                    }
                    break;
                };
                // `construct_event_set` walks the victim's linked list; the
                // paper's measurements (Section II-C: 197 Kcycles on ~1000-event
                // queues at ~190 cycles per scanned event) show the traversal
                // effectively covers the whole queue, so that is what we charge,
                // bounded by `scan_cap_events` (the pending-count early stop).
                let full_scan = (q.len() as u64).min(costs.scan_cap_events);
                let (events, _scanned_extract) = q.extract_color(color);
                debug_assert!(!events.is_empty());
                hold += costs.scan_per_event * (scanned_choose as u64 + full_scan)
                    + costs.migrate_per_event * events.len() as u64;
                taken.push((color, events));
            }
        }
        if let Some(scan) = futile {
            self.lock(v, c, costs.lock_acquire + scan);
            return false;
        }
        self.lock(v, c, hold);

        // migrate: append to our own queue under our own lock.
        let n: u64 = taken.iter().map(|(_, e)| e.len() as u64).sum();
        let cost_sum: u64 = taken
            .iter()
            .flat_map(|(_, e)| e.iter())
            .map(|e| e.cost())
            .sum();
        self.lock(c, c, costs.lock_acquire + costs.migrate_per_event * n);
        let now = self.cores[c].clock;
        for (color, _) in &taken {
            self.color_owner[color.value() as usize] = c as u32;
        }
        let QueueImpl::Legacy(own) = &mut self.cores[c].queue else {
            unreachable!();
        };
        for (_, events) in taken {
            for mut ev in events {
                ev.visible_at = ev.visible_at.max(now);
                own.push(ev);
            }
        }
        let m = &mut self.cores[c].metrics;
        m.stolen_events += n;
        m.stolen_cost_cycles += cost_sum;
        true
    }

    /// Steals up to `budget` color-queues from `v` under one
    /// victim-lock hold; budget 1 is the classic single-color steal,
    /// charge for charge.
    fn steal_from_mely(&mut self, c: usize, v: usize, budget: usize) -> bool {
        let costs = self.cfg.costs.clone();
        let vin = self.cores[v].in_flight_at(self.cores[c].clock);
        let time_left = self.cfg.ws.time_left;
        let mut detached: Vec<crate::queue::DetachedColorQueue> = Vec::new();
        let mut hold = costs.lock_acquire;
        // Lock-hold cost of a futile visit, when nothing was taken.
        let mut futile: Option<u64> = None;
        {
            let QueueImpl::Mely(q) = &mut self.cores[v].queue else {
                unreachable!("mely flavor uses mely queues");
            };
            while futile.is_none() && detached.len() < budget {
                let (slot, inspect_cost) = if time_left {
                    // O(1) lookup in the stealing-queue.
                    (q.choose_worthy(vin), costs.queue_op)
                } else {
                    // can_be_stolen, re-checked per color so the
                    // victim keeps at least one.
                    if !q.can_be_stolen_base() {
                        if detached.is_empty() {
                            futile = Some(0);
                        }
                        break;
                    }
                    match q.choose_scan(vin) {
                        Some((slot, scanned)) => (Some(slot), costs.queue_op * scanned as u64),
                        None => {
                            if detached.is_empty() {
                                let scanned = q.distinct_colors() as u64;
                                futile = Some(costs.queue_op * scanned);
                            }
                            break;
                        }
                    }
                };
                let Some(slot) = slot else {
                    if detached.is_empty() {
                        futile = Some(inspect_cost);
                    }
                    break;
                };
                hold += inspect_cost + costs.colorqueue_unlink;
                detached.push(q.detach(slot));
            }
        }
        if let Some(x) = futile {
            self.lock(v, c, costs.lock_acquire + x);
            return false;
        }
        self.lock(v, c, hold);

        // migrate: absorb the color-queues under our own lock.
        self.lock(
            c,
            c,
            costs.lock_acquire + costs.colorqueue_link * detached.len() as u64,
        );
        let now = self.cores[c].clock;
        let mut n = 0u64;
        let mut cost_sum = 0u64;
        for d in &detached {
            self.color_owner[d.color().value() as usize] = c as u32;
        }
        let QueueImpl::Mely(own) = &mut self.cores[c].queue else {
            unreachable!();
        };
        for mut d in detached {
            d.set_visible_at_floor(now);
            n += d.len() as u64;
            cost_sum += d.cum_cost();
            own.absorb(d);
        }
        let m = &mut self.cores[c].metrics;
        m.stolen_events += n;
        m.stolen_cost_cycles += cost_sum;
        true
    }

    /// Propagates the monitored steal-cost estimate to every core's
    /// stealing-queue (worthiness threshold of the time-left heuristic).
    fn sync_steal_estimates(&mut self) {
        let est = self.steal_est.get();
        for core in &mut self.cores {
            if let QueueImpl::Mely(q) = &mut core.queue {
                q.set_steal_cost_estimate(est);
            }
        }
    }
}

impl Executor for SimRuntime {
    fn kind(&self) -> ExecKind {
        ExecKind::Sim
    }

    fn cores(&self) -> usize {
        self.cfg.cores
    }

    fn flavor(&self) -> Flavor {
        self.cfg.flavor
    }

    fn policy(&self) -> WsPolicy {
        self.cfg.ws
    }

    fn register_handler(&mut self, spec: HandlerSpec) -> HandlerId {
        SimRuntime::register_handler(self, spec)
    }

    fn handler_estimate(&self, id: HandlerId) -> u64 {
        SimRuntime::handler_estimate(self, id)
    }

    fn alloc_dataset(&mut self, len: u64) -> DataSetRef {
        SimRuntime::alloc_dataset(self, len)
    }

    fn register(&mut self, ev: Event) {
        SimRuntime::register(self, ev);
    }

    fn register_pinned(&mut self, ev: Event, core: usize) {
        SimRuntime::register_pinned(self, ev, core);
    }

    fn injector(&self) -> Injector {
        SimRuntime::injector(self)
    }

    fn run(&mut self) -> RunReport {
        SimRuntime::run(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeBuilder;

    fn sim(flavor: Flavor, ws: WsPolicy, cores: usize) -> SimRuntime {
        RuntimeBuilder::new()
            .cores(cores)
            .flavor(flavor)
            .workstealing(ws)
            .make_sim()
    }

    #[test]
    fn drains_all_events_without_ws() {
        for flavor in [Flavor::Libasync, Flavor::Mely] {
            let mut rt = sim(flavor, WsPolicy::off(), 4);
            for i in 0..100u16 {
                rt.register(Event::new(Color::new(i), 100));
            }
            let r = rt.run();
            assert_eq!(r.events_processed(), 100, "{flavor:?}");
            assert_eq!(r.total().steals, 0);
        }
    }

    #[test]
    fn hash_dispatch_spreads_colors() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 4);
        for i in 0..8u16 {
            rt.register(Event::new(Color::new(i), 10));
        }
        let r = rt.run();
        for c in r.per_core() {
            assert_eq!(c.events_processed, 2, "color % 4 spreads evenly");
        }
    }

    #[test]
    fn pinned_registration_creates_imbalance_then_ws_fixes_it() {
        let mut rt = sim(Flavor::Mely, WsPolicy::base(), 8);
        for i in 0..64u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 50_000), 0);
        }
        let r = rt.run();
        assert_eq!(r.events_processed(), 64);
        assert!(r.total().steals > 0, "steals must happen");
        let active = r
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert!(active >= 4, "load must spread (got {active} active cores)");
    }

    #[test]
    fn no_ws_means_pinned_stays_serial() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 8);
        for i in 0..64u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 50_000), 0);
        }
        let r = rt.run();
        assert_eq!(r.per_core()[0].events_processed, 64);
    }

    #[test]
    fn actions_register_followups() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 100).with_action(|ctx| {
            ctx.register(Event::new(Color::new(2), 100).with_action(|ctx| {
                ctx.register(Event::new(Color::new(3), 100));
            }));
        }));
        let r = rt.run();
        assert_eq!(r.events_processed(), 3);
    }

    #[test]
    fn delayed_events_fire_at_due_time() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 100).with_action(|ctx| {
            ctx.register_after(1_000_000, Event::new(Color::new(1), 100));
        }));
        let r = rt.run();
        assert_eq!(r.events_processed(), 2);
        assert!(r.wall_cycles() >= 1_000_000);
    }

    #[test]
    fn stop_runtime_halts_early() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 10).with_action(|ctx| ctx.stop_runtime()));
        for _ in 0..50 {
            rt.register(Event::new(Color::new(3), 1_000_000_000));
        }
        let r = rt.run();
        assert!(r.events_processed() < 51);
    }

    #[test]
    fn same_color_is_serialized_on_one_core() {
        // All events share a color: exactly one core may process them.
        let mut rt = sim(Flavor::Mely, WsPolicy::base(), 8);
        for _ in 0..32 {
            rt.register(Event::new(Color::new(5), 10_000));
        }
        let r = rt.run();
        let active = r
            .per_core()
            .iter()
            .filter(|c| c.events_processed > 0)
            .count();
        assert_eq!(active, 1, "single color must stay serial");
    }

    #[test]
    fn mely_steals_are_cheaper_than_legacy() {
        // Same unbalanced load on both flavors with base WS; Mely's O(1)
        // detach must beat Libasync's scan-based extraction.
        let cost = |flavor: Flavor| {
            let mut rt = sim(flavor, WsPolicy::base(), 8);
            for i in 0..2_000u16 {
                rt.register_pinned(Event::new(Color::new(i.wrapping_add(1)), 100), 0);
            }
            let r = rt.run();
            r.avg_steal_cycles().unwrap_or(f64::INFINITY)
        };
        let legacy = cost(Flavor::Libasync);
        let mely = cost(Flavor::Mely);
        assert!(
            mely < legacy,
            "mely steals ({mely:.0} cy) must be cheaper than legacy ({legacy:.0} cy)"
        );
    }

    #[test]
    fn time_left_refuses_unworthy_colors() {
        // Tiny events: not worth stealing once the estimate is seeded.
        let mut rt = sim(Flavor::Mely, WsPolicy::base().with_time_left(true), 4);
        for i in 0..100u16 {
            rt.register_pinned(Event::new(Color::new(i + 1), 10), 0);
        }
        let r = rt.run();
        // The initial estimate (default > 10) classifies every color as
        // unworthy: no steal should happen at all.
        assert_eq!(r.total().steals, 0, "unworthy colors must not be stolen");
    }

    #[test]
    fn cache_tracking_reports_misses() {
        let mut rt = RuntimeBuilder::new()
            .cores(2)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .track_cache(true)
            .make_sim();
        let ds = rt.alloc_dataset(64 * 100);
        rt.register(Event::new(Color::new(1), 100).touching(ds));
        let r = rt.run();
        assert!(r.total().l2_misses > 0);
        assert!(r.total().mem_stall_cycles > 0);
    }

    #[test]
    fn reports_accumulate_across_runs() {
        let mut rt = sim(Flavor::Mely, WsPolicy::off(), 2);
        rt.register(Event::new(Color::new(1), 100));
        assert_eq!(rt.run().events_processed(), 1);
        rt.register(Event::new(Color::new(1), 100));
        assert_eq!(rt.run().events_processed(), 2);
    }

    #[test]
    fn determinism_same_input_same_report() {
        let run = || {
            let mut rt = sim(Flavor::Mely, WsPolicy::improved(), 8);
            for i in 0..500u16 {
                rt.register_pinned(
                    Event::new(Color::new(i + 1), (i as u64 % 7) * 1_000 + 50),
                    (i as usize) % 2,
                );
            }
            let r = rt.run();
            (
                r.fingerprint(),
                r.events_processed(),
                r.wall_cycles(),
                r.total().steals,
                r.total().lock_wait_cycles,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn max_cycles_stops_the_run() {
        let mut rt = RuntimeBuilder::new()
            .cores(1)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::off())
            .max_cycles(10_000)
            .make_sim();
        for _ in 0..1_000 {
            rt.register(Event::new(Color::new(1), 1_000));
        }
        let r = rt.run();
        assert!(r.events_processed() < 1_000);
    }
}

#[cfg(test)]
mod hang_probe {
    use super::*;
    use crate::runtime::RuntimeBuilder;

    #[test]
    #[ignore]
    fn probe_determinism_workload() {
        let mut rt = RuntimeBuilder::new()
            .cores(8)
            .flavor(Flavor::Mely)
            .workstealing(WsPolicy::improved())
            .make_sim();
        for i in 0..500u16 {
            rt.register_pinned(
                Event::new(Color::new(i + 1), (i as u64 % 7) * 1_000 + 50),
                (i as usize) % 2,
            );
        }
        let r = rt.run();
        eprintln!(
            "done: {} events, wall {}",
            r.events_processed(),
            r.wall_cycles()
        );
    }
}
