//! One shared results block for the serving examples.
//!
//! `examples/web_server.rs` (virtual-time closed loop) and
//! `examples/serve.rs` (real loopback sockets) report the same
//! quantities; this helper keeps the two outputs byte-for-byte aligned
//! so they can be eyeballed side by side and scraped by the same CI
//! artifact step.

use std::fmt;

/// Converts a span of `cycles` on a clock running at `freq_hz` to
/// microseconds. Pass the run's own rate, `RunReport::freq_hz`: the
/// simulator counts virtual cycles of its machine model, the threaded
/// executor the host's measured cycle counter (`cycles::hz`).
pub fn cycles_to_us(cycles: u64, freq_hz: u64) -> f64 {
    cycles as f64 * 1e6 / freq_hz as f64
}

/// One row of the serving summary: a labelled run with its throughput,
/// tail latency, and loss accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Configuration name (first column).
    pub label: String,
    /// Concurrent client connections driven at the server.
    pub conns: u64,
    /// Responses completed (server-side accounting, cross-checked
    /// against the client where a real client exists).
    pub responses: u64,
    /// Responses per second (wall-clock for socket runs, virtual time
    /// for simulated runs).
    pub rps: f64,
    /// Median request latency from the stage-latency histograms, µs.
    pub p50_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Requests/connections shed under overload (admission +
    /// accept-path sheds).
    pub sheds: u64,
    /// Requests failed by faults (peer resets, mid-request EOF,
    /// quarantined handlers).
    pub faults: u64,
    /// Successful steals split by steal tier, `[smt, llc, socket,
    /// remote]` — `RunReport::steals_by_tier`. All four are zero on a
    /// run without workstealing.
    pub steals_by_tier: [u64; 4],
}

impl RunSummary {
    /// The column header; print once above the rows. The last column is
    /// the per-tier steal split, `smt/llc/socket/remote`.
    pub fn header() -> String {
        format!(
            "{:<24} {:>9} {:>11} {:>11} {:>11} {:>11} {:>7} {:>7} {:>19}",
            "configuration",
            "conns",
            "responses",
            "RPS",
            "p50 µs",
            "p99 µs",
            "sheds",
            "faults",
            "steals smt/llc/s/r"
        )
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [smt, llc, socket, remote] = self.steals_by_tier;
        write!(
            f,
            "{:<24} {:>9} {:>11} {:>11.0} {:>11.1} {:>11.1} {:>7} {:>7} {:>19}",
            self.label,
            self.conns,
            self.responses,
            self.rps,
            self.p50_us,
            self.p99_us,
            self.sheds,
            self.faults,
            format!("{smt}/{llc}/{socket}/{remote}")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_align_with_the_header() {
        let row = RunSummary {
            label: "mely improved-ws".into(),
            conns: 1000,
            responses: 16_000,
            rps: 123_456.7,
            p50_us: 42.5,
            p99_us: 812.0,
            sheds: 3,
            faults: 1,
            steals_by_tier: [4, 17, 0, 2],
        }
        .to_string();
        let header = RunSummary::header();
        // Char count, not byte length: the µ in the latency headers is
        // two bytes, and fmt widths pad by chars.
        assert_eq!(
            header.chars().count(),
            row.chars().count(),
            "{header}\n{row}"
        );
        // Every numeric column ends where the header column ends.
        for col in ["conns", "responses", "RPS", "sheds", "faults", "steals"] {
            assert!(header.contains(col));
        }
        assert!(row.contains("123457"));
        assert!(row.contains("42.5"));
        assert!(row.contains("4/17/0/2"));
    }

    #[test]
    fn cycle_conversion_uses_the_given_clock_rate() {
        assert_eq!(cycles_to_us(2_330_000_000, 2_330_000_000), 1e6);
        assert_eq!(cycles_to_us(2_330, 2_330_000_000), 1.0);
        assert_eq!(cycles_to_us(2_100, 2_100_000_000), 1.0);
        assert_eq!(cycles_to_us(0, 2_100_000_000), 0.0);
    }
}
