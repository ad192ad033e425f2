//! Tier-1 allocation guard for the dispatch hot paths.
//!
//! The zero-allocation-dispatch contract: once warm, neither the Mely
//! queue's push/pop churn (including steals), nor the injection inbox's
//! push/drain round trip, nor a threaded worker's idle loop of failed
//! steal attempts touches the heap. This suite proves it with a
//! counting `#[global_allocator]` rather than by inspection.
//!
//! The counter is **thread-local**, so the default parallel test
//! harness (and any background thread) cannot pollute a measurement:
//! each test counts only allocations made on its own thread. The queue
//! and inbox are driven single-threadedly here (`InjectionInbox::push`
//! is thread-safe but does not require multiple threads); the worker
//! test reads a worker thread's own counter from inside handlers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mely_repro::core::color::Color;
use mely_repro::core::cycles;
use mely_repro::core::event::Event;
use mely_repro::core::prelude::*;
use mely_repro::core::queue::MelyQueue;
use mely_repro::core::threaded::inbox::InjectionInbox;

struct CountingAlloc;

thread_local! {
    static ALLOC_OPS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` so allocations during thread teardown (after the TLS
    // slot is destroyed) pass through uncounted instead of aborting.
    let _ = ALLOC_OPS.try_with(|c| c.set(c.get() + 1));
}

/// Heap acquisitions (alloc/realloc) performed by the current thread.
fn allocs_on_this_thread() -> u64 {
    ALLOC_OPS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: defers all memory management to `System`; only bumps a
// thread-local counter on the acquisition paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One high-churn round: every push creates a color-queue (48 distinct
/// colors, two events each) and every pop retires one — the allocating
/// path before buffer pooling existed.
fn churn_round(q: &mut MelyQueue) {
    for i in 0..48u16 {
        q.push(Event::new(Color::new(i + 1), 100));
        q.push(Event::new(Color::new(i + 1), 50));
    }
    while q.pop(10).is_some() {}
}

#[test]
fn mely_push_pop_steady_state_allocates_nothing() {
    let mut q = MelyQueue::with_capacity(true, 64);
    q.set_steal_cost_estimate(75);
    // Warm-up: fills the buffer pool, sizes the stealing-queue buckets
    // and the pop batch machinery.
    for _ in 0..3 {
        churn_round(&mut q);
    }
    let before = allocs_on_this_thread();
    for _ in 0..200 {
        churn_round(&mut q);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state push/pop hit the allocator {delta} times"
    );
    assert!(q.buf_reuses() > 0, "the pool, not the allocator, served");
    q.assert_invariants();
}

#[test]
fn mely_steal_cycle_steady_state_allocates_nothing() {
    // Two cores' queues; each round migrates color-queues A→B, then
    // B→A, then drains both — detach/absorb must hand buffers through
    // without allocating once warm.
    let mut a = MelyQueue::with_capacity(true, 32);
    let mut b = MelyQueue::with_capacity(true, 32);
    let round = |a: &mut MelyQueue, b: &mut MelyQueue| {
        for i in 0..16u16 {
            a.push(Event::new(Color::new(i + 1), 10));
        }
        // The thief already holds newer events of the first 8 colors,
        // so the steals below take the absorb-into-existing path
        // (prepend + pool the emptied stolen buffer).
        for i in 0..8u16 {
            b.push(Event::new(Color::new(i + 1), 10));
        }
        // Steal half of A's colors into B (the half rule always accepts
        // a 1-of-16 color; core-queue order makes those colors 1..=8).
        for _ in 0..8 {
            if let Some((slot, _)) = a.choose_scan(None) {
                b.absorb(a.detach(slot));
            }
        }
        while a.pop(10).is_some() {}
        while b.pop(10).is_some() {}
    };
    for _ in 0..4 {
        round(&mut a, &mut b);
        round(&mut b, &mut a);
    }
    let before = allocs_on_this_thread();
    for _ in 0..100 {
        round(&mut a, &mut b);
        round(&mut b, &mut a);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state detach/absorb hit the allocator {delta} times"
    );
    a.assert_invariants();
    b.assert_invariants();
}

#[test]
fn inbox_push_drain_steady_state_allocates_nothing() {
    let inbox = InjectionInbox::new();
    // Batch sizes stay under the node-pool budget so a warm pool covers
    // every in-flight node; the drain buffer is pre-sized and reused,
    // exactly like the worker loop's.
    let mut batch: Vec<Event> = Vec::with_capacity(256);
    let round = |inbox: &InjectionInbox, batch: &mut Vec<Event>| {
        for i in 0..128u16 {
            inbox.push(Event::new(Color::new(i), 10));
        }
        assert_eq!(inbox.drain_into(batch), 128);
        batch.clear();
    };
    for _ in 0..3 {
        round(&inbox, &mut batch);
    }
    let before = allocs_on_this_thread();
    for _ in 0..200 {
        round(&inbox, &mut batch);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state inbox push/drain hit the allocator {delta} times"
    );
    assert!(inbox.total_node_reuses() >= 200 * 128);
}

/// A worker's idle loop — failed steal attempts that lock the victim's
/// queue and find nothing worth taking, then the park — allocates
/// nothing once warm: the load and victim lists live in per-worker
/// buffers the steal policy writes into.
#[test]
fn threaded_idle_steal_attempts_allocate_nothing_once_warm() {
    let mut rt = RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(WsPolicy::improved())
        .build(ExecKind::Threaded);
    // Core 0 spins on a long event of color A with more of A queued
    // behind it: core 1 sees a non-empty victim queue, takes both
    // locks, and finds only A, which is in flight.
    let (busy, probe) = (Color::new(1), Color::new(2));
    let blocker_done = Arc::new(AtomicBool::new(false));
    let done = Arc::clone(&blocker_done);
    let spin = (0.4 * cycles::hz() as f64) as u64; // ~400 ms
    rt.register_pinned(
        Event::new(busy, spin).with_action(move |_| done.store(true, Ordering::SeqCst)),
        0,
    );
    for _ in 0..3 {
        rt.register_pinned(Event::new(busy, 0), 0);
    }
    rt.register_pinned(Event::new(probe, 0), 1);
    // Probes on core 1 record that worker thread's allocation count.
    let counts: Arc<[AtomicU64; 3]> = Arc::new(Default::default());
    let injector = rt.injector();
    let handle = rt.as_threaded().expect("threaded runtime").handle();
    let (c, d) = (Arc::clone(&counts), Arc::clone(&blocker_done));
    let driver = std::thread::spawn(move || {
        for i in 0..3 {
            let (slot, d) = (Arc::clone(&c), Arc::clone(&d));
            injector.inject(Event::new(probe, 0).with_action(move |_| {
                assert!(!d.load(Ordering::SeqCst), "blocker ended too early");
                slot[i].store(allocs_on_this_thread() + 1, Ordering::SeqCst);
            }));
            let t0 = Instant::now();
            while c[i].load(Ordering::SeqCst) == 0 {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "probe {i} never ran"
                );
                std::thread::yield_now();
            }
            // Let core 1 go idle: spin through its steal attempts and
            // park (core 0 is busy) before the next probe.
            while handle.sleeping_workers() == 0 {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "core 1 never parked"
                );
                std::thread::yield_now();
            }
        }
    });
    let report = rt.run();
    driver.join().expect("probes ran while core 0 was busy");
    let c = |i: usize| counts[i].load(Ordering::SeqCst);
    let core1 = report.per_core()[1];
    assert!(
        core1.steal_attempts >= 100,
        "core 1 went idle without trying to steal: {core1:?}"
    );
    assert_eq!(core1.steals, 0, "nothing was stealable");
    // Probe 0 warms the inbox drain, the probe color's queue and the
    // steal buffers; from probe 1 on, idle episodes are warm.
    assert_eq!(
        c(2) - c(1),
        0,
        "a warm idle episode on core 1 hit the allocator"
    );
}
