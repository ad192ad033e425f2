//! Cycle clock for the threaded executor.
//!
//! Provides a monotonic cycle counter ([`now`]), calibrated busy
//! waiting ([`spin`]) and the counter's measured rate ([`hz`],
//! [`to_ns`]). On x86-64 the counter is `rdtsc`, whose rate is a
//! property of the host (often not the CPU's nominal clock), so [`init`]
//! times it against [`std::time::Instant`] once per process. Elsewhere
//! the counter is derived from `Instant` scaled by [`NOMINAL_FREQ_HZ`],
//! which is then also its exact rate.

use std::sync::OnceLock;
use std::time::Instant;

/// The rate of the fallback counter on platforms without a TSC: 2.33
/// GHz, the paper's Xeon, so "cycles" keep their magnitude everywhere.
pub const NOMINAL_FREQ_HZ: u64 = 2_330_000_000;

/// How long [`init`] watches the counter against `Instant`. The error
/// comes only from pairing the two clocks' reads at either end (tens of
/// ns), so a couple of milliseconds give parts-per-hundred-thousand.
#[cfg(target_arch = "x86_64")]
const CALIBRATION: std::time::Duration = std::time::Duration::from_millis(2);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Current value of the cycle counter.
#[inline]
pub fn now() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions.
    unsafe {
        std::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let ns = epoch().elapsed().as_nanos() as u64;
        // ns * 2.33 without overflow for decades of uptime.
        ns * (NOMINAL_FREQ_HZ / 1_000_000) / 1_000
    }
}

/// Busy-spins for approximately `cycles` cycles. Used by the threaded
/// executor to materialise an event's declared processing cost.
#[inline]
pub fn spin(cycles: u64) {
    if cycles == 0 {
        return;
    }
    let start = now();
    while now().wrapping_sub(start) < cycles {
        std::hint::spin_loop();
    }
}

/// One `(Instant, counter)` pair read as close together as the host
/// allows: the counter is read on both sides of `Instant::now` and the
/// tightest of a few tries is kept, with the counter at its midpoint.
#[cfg(target_arch = "x86_64")]
fn paired_read() -> (Instant, u64) {
    let mut best: Option<(u64, Instant, u64)> = None;
    for _ in 0..8 {
        let a = now();
        let t = Instant::now();
        let b = now();
        let width = b.wrapping_sub(a);
        if best.is_none_or(|(w, _, _)| width < w) {
            best = Some((width, t, a + width / 2));
        }
    }
    let (_, t, c) = best.expect("at least one read");
    (t, c)
}

fn calibrate() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let (t0, c0) = paired_read();
        std::thread::sleep(CALIBRATION);
        let (t1, c1) = paired_read();
        let secs = t1.duration_since(t0).as_secs_f64();
        (c1.wrapping_sub(c0) as f64 / secs).round() as u64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        NOMINAL_FREQ_HZ
    }
}

/// Counter ticks per second, measured by the first call (or by
/// [`init`]) and fixed for the rest of the process.
pub fn hz() -> u64 {
    static HZ: OnceLock<u64> = OnceLock::new();
    *HZ.get_or_init(calibrate)
}

/// Converts a span of the counter to nanoseconds at the measured rate.
pub fn to_ns(cycles: u64) -> u64 {
    (cycles as u128 * 1_000_000_000 / hz() as u128) as u64
}

/// Initialises the fallback epoch and measures the counter's rate, so
/// neither skews a later measurement. Call once at startup; later calls
/// are free.
pub fn init() {
    let _ = epoch();
    let _ = hz();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn now_is_monotonic_enough() {
        init();
        let a = now();
        let b = now();
        assert!(b >= a);
    }

    #[test]
    fn spin_advances_clock() {
        let start = now();
        spin(10_000);
        assert!(now() - start >= 10_000);
    }

    #[test]
    fn spin_zero_returns_immediately() {
        spin(0);
    }

    #[test]
    fn measured_rate_converts_counter_spans_to_wall_time() {
        init();
        let (t0, c0) = (Instant::now(), now());
        std::thread::sleep(Duration::from_millis(20));
        let (c1, wall) = (now(), t0.elapsed());
        let ns = to_ns(c1 - c0) as f64;
        let wall_ns = wall.as_nanos() as f64;
        // Loose: the two end reads are not paired here, and a loaded
        // host may preempt between them.
        assert!(
            (ns / wall_ns - 1.0).abs() < 0.05,
            "{ns} ns by the counter vs {wall_ns} ns by Instant at {} Hz",
            hz()
        );
        assert_eq!(to_ns(hz()), 1_000_000_000);
    }
}
