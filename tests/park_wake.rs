//! Wake-correctness of the threaded executor's idle path.
//!
//! An idle worker spins briefly, then parks its thread. Parking is only
//! safe if every way work can reach a worker also wakes it; a lost
//! `unpark` shows up as a worker asleep next to runnable work, and a
//! `run()` that never returns. Each test waits until every worker has
//! committed to parking (`RuntimeHandle::sleeping_workers`), so only an
//! `unpark` can reach it, then drives one wake source:
//!
//! - an event injected from another thread;
//! - a timer registered while every worker sleeps (which must also not
//!   fire early);
//! - `stop()`, and dropping the last `KeepAlive`;
//! - an event a running handler routes to a parked core's color.
//!
//! Every run sits under a watchdog that aborts the process if `run()`
//! has not returned after 30 s, so a lost wake-up fails loudly instead
//! of hanging the suite. CI runs this file 20 times in release.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mely_repro::core::cycles;
use mely_repro::core::prelude::*;

/// Aborts the process unless dropped within 30 s.
struct Watchdog {
    done: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn arm(what: &'static str) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let thread = std::thread::spawn(move || {
            let t0 = Instant::now();
            while !flag.load(Ordering::Acquire) {
                if t0.elapsed() > Duration::from_secs(30) {
                    // Straight to the stream: captured test output dies
                    // with the process.
                    let msg = format!("{what}: run() still blocked after 30 s (lost unpark?)\n");
                    let _ = std::io::stderr().write_all(msg.as_bytes());
                    std::process::abort();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        Watchdog {
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Blocks until both workers behind `handle` are parked.
fn both_asleep(handle: &RuntimeHandle) {
    let t0 = Instant::now();
    while handle.sleeping_workers() < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "workers never went to sleep"
        );
        std::thread::yield_now();
    }
}

fn handle(rt: &Runtime) -> RuntimeHandle {
    rt.as_threaded().expect("threaded runtime").handle()
}

fn runtime(ws: WsPolicy) -> Runtime {
    RuntimeBuilder::new()
        .cores(2)
        .flavor(Flavor::Mely)
        .workstealing(ws)
        .build(ExecKind::Threaded)
}

fn cycles_for(d: Duration) -> u64 {
    (d.as_secs_f64() * cycles::hz() as f64) as u64
}

#[test]
fn idle_runtime_held_by_a_keepalive_parks_and_drop_releases_it() {
    let _dog = Watchdog::arm("keepalive drop");
    let mut rt = runtime(WsPolicy::improved());
    let keepalive = rt.injector().keepalive();
    let h = handle(&rt);
    let releaser = std::thread::spawn(move || {
        both_asleep(&h);
        drop(keepalive);
    });
    let report = rt.run();
    releaser.join().unwrap();
    assert_eq!(report.events_processed(), 0);
    for (core, m) in report.per_core().iter().enumerate() {
        assert!(m.parks >= 1, "core {core} never parked: {m:?}");
    }
    assert_eq!(
        report.total().parks,
        report.per_core().iter().map(|m| m.parks).sum::<u64>(),
        "parks merge like the other counters"
    );
}

#[test]
fn stop_wakes_parked_workers() {
    let _dog = Watchdog::arm("stop");
    let mut rt = runtime(WsPolicy::improved());
    let keepalive = rt.injector().keepalive();
    let stopper = handle(&rt);
    let t = std::thread::spawn(move || {
        both_asleep(&stopper);
        stopper.stop();
        keepalive // still held: only the stop can end the run
    });
    let report = rt.run();
    drop(t.join().unwrap());
    assert!(report.total().parks >= 2, "{:?}", report.total());
}

#[test]
fn event_injected_after_both_workers_parked_runs() {
    let _dog = Watchdog::arm("inject");
    let mut rt = runtime(WsPolicy::improved());
    let keepalive = rt.injector().keepalive();
    let injector = rt.injector();
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    let h = handle(&rt);
    let t = std::thread::spawn(move || {
        both_asleep(&h);
        for i in 0..2u16 {
            // Two colors, so both cores' inboxes see a push.
            let r = Arc::clone(&r);
            injector.inject(Event::new(Color::new(i + 1), 0).with_action(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
            }));
        }
        injector.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    t.join().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 2);
    assert_eq!(report.events_processed(), 2);
    assert!(report.total().parks >= 2);
}

#[test]
fn timer_fires_while_every_worker_sleeps_and_not_before_it_is_due() {
    let _dog = Watchdog::arm("timer");
    let mut rt = runtime(WsPolicy::improved());
    let keepalive = rt.injector().keepalive();
    let injector = rt.injector();
    let delay = Duration::from_millis(40);
    let fired_after = Arc::new(AtomicU64::new(u64::MAX));
    let f = Arc::clone(&fired_after);
    let h = handle(&rt);
    let t = std::thread::spawn(move || {
        both_asleep(&h);
        let t0 = Instant::now();
        injector.inject_after(
            cycles_for(delay),
            Event::new(Color::new(7), 0).with_action(move |_| {
                f.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            }),
        );
        injector.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    t.join().unwrap();
    let fired = Duration::from_nanos(fired_after.load(Ordering::SeqCst));
    assert_eq!(report.events_processed(), 1, "the timer fired");
    // The calibrated clock converts `delay` to cycles and the parked
    // worker's deadline back to time; allow a microsecond of rounding.
    assert!(
        fired + Duration::from_micros(1) >= delay,
        "fired after {fired:?}, before its {delay:?} delay"
    );
    assert!(
        fired < delay + Duration::from_secs(5),
        "fired after {fired:?} for a {delay:?} delay"
    );
}

#[test]
fn event_routed_to_a_parked_cores_color_runs() {
    let _dog = Watchdog::arm("route");
    // No workstealing: the routed event can only run where it is
    // routed, so nothing but the wake-up can get it executed.
    let mut rt = runtime(WsPolicy::off());
    let (near, far) = (Color::new(10), Color::new(11));
    let ran_on = Arc::new(AtomicUsize::new(usize::MAX));
    // Pin one color per core.
    rt.register_pinned(Event::new(near, 0), 0);
    rt.register_pinned(Event::new(far, 0), 1);
    let keepalive = rt.injector().keepalive();
    let injector = rt.injector();
    let r = Arc::clone(&ran_on);
    let h = handle(&rt);
    let t = std::thread::spawn(move || {
        both_asleep(&h);
        // Core 0 wakes for the injected event; its handler routes an
        // event of core 1's color while core 1 sleeps.
        injector.inject(Event::new(near, 0).with_action(move |ctx| {
            let r = Arc::clone(&r);
            ctx.register(Event::new(far, 0).with_action(move |ctx| {
                r.store(ctx.core(), Ordering::SeqCst);
            }));
        }));
        injector.stop_when_idle();
        drop(keepalive);
    });
    let report = rt.run();
    t.join().unwrap();
    assert_eq!(ran_on.load(Ordering::SeqCst), 1, "ran on the parked core");
    assert_eq!(report.events_processed(), 4);
    assert!(report.per_core()[1].parks >= 1);
}
