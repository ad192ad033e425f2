//! Process accounting from `/proc`: CPU time per thread class (user and
//! system kept apart), peak resident memory, and the host facts printed
//! beside every result.

use std::fs;

/// Thread classes the CPU accounting groups by (matched on `comm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Runtime workers, `mely-core-<n>`.
    Workers,
    /// The loopback gateway's `mely-tcp-poller`.
    Poller,
    /// The benchmark's own load generator thread.
    Generator,
    /// Every other live thread, plus threads that started or exited
    /// inside the interval (their time is only visible in the process
    /// total).
    Other,
}

/// Name of the benchmark's load generator thread.
pub const GENERATOR_COMM: &str = "perfbench-gen";

const CLASSES: [Class; 4] = [
    Class::Workers,
    Class::Poller,
    Class::Generator,
    Class::Other,
];

fn class_of(comm: &str) -> Class {
    if comm.starts_with("mely-core-") {
        Class::Workers
    } else if comm == "mely-tcp-poller" {
        Class::Poller
    } else if comm == GENERATOR_COMM {
        Class::Generator
    } else {
        Class::Other
    }
}

/// User and system CPU seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user: f64,
    pub sys: f64,
}

impl Cpu {
    pub fn total(self) -> f64 {
        self.user + self.sys
    }

    fn minus(self, o: Cpu) -> Cpu {
        Cpu {
            user: self.user - o.user,
            sys: self.sys - o.sys,
        }
    }

    fn plus(self, o: Cpu) -> Cpu {
        Cpu {
            user: self.user + o.user,
            sys: self.sys + o.sys,
        }
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

fn ticks_per_sec() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// `(user, sys)` from a `stat` line: fields 14 and 15, counted after the
/// parenthesised `comm` (which may itself contain spaces).
fn parse_stat(line: &str, hz: f64) -> Option<Cpu> {
    let rest = &line[line.rfind(')')? + 2..];
    let mut f = rest.split_ascii_whitespace().skip(11);
    let user: f64 = f.next()?.parse().ok()?;
    let sys: f64 = f.next()?.parse().ok()?;
    Some(Cpu {
        user: user / hz,
        sys: sys / hz,
    })
}

/// CPU consumed so far, per live thread (by tid) and by the process.
#[derive(Debug, Clone, Default)]
pub struct CpuSample {
    threads: Vec<(u64, Class, Cpu)>,
    process: Cpu,
}

impl CpuSample {
    /// Reads `/proc/self/task/*/{comm,stat}` and `/proc/self/stat`.
    pub fn take() -> CpuSample {
        let hz = ticks_per_sec();
        let mut threads = Vec::new();
        if let Ok(dir) = fs::read_dir("/proc/self/task") {
            for entry in dir.flatten() {
                let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                    continue;
                };
                let path = entry.path();
                let (Ok(comm), Ok(stat)) = (
                    fs::read_to_string(path.join("comm")),
                    fs::read_to_string(path.join("stat")),
                ) else {
                    continue;
                };
                if let Some(cpu) = parse_stat(&stat, hz) {
                    threads.push((tid, class_of(comm.trim_end()), cpu));
                }
            }
        }
        let process = fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s, hz))
            .unwrap_or_default();
        CpuSample { threads, process }
    }

    /// CPU per class between `earlier` and `self`. A thread present in
    /// both samples is charged to its class; the process time no such
    /// thread explains (threads that started or ended in between) goes
    /// to `Class::Other` unless `transient` names another class.
    pub fn since(&self, earlier: &CpuSample, transient: Class) -> CpuDelta {
        let mut by_class = [Cpu::default(); 4];
        let mut explained = Cpu::default();
        for &(tid, class, now) in &self.threads {
            if let Some(&(_, _, then)) = earlier.threads.iter().find(|t| t.0 == tid) {
                let d = now.minus(then);
                by_class[class as usize] = by_class[class as usize].plus(d);
                explained = explained.plus(d);
            }
        }
        let rest = self.process.minus(earlier.process).minus(explained);
        let rest = Cpu {
            user: rest.user.max(0.0),
            sys: rest.sys.max(0.0),
        };
        by_class[transient as usize] = by_class[transient as usize].plus(rest);
        CpuDelta { by_class }
    }
}

/// CPU seconds per thread class over an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuDelta {
    by_class: [Cpu; 4],
}

impl CpuDelta {
    pub fn of(&self, class: Class) -> Cpu {
        self.by_class[class as usize]
    }

    /// Everything but the load generator: the system under test.
    pub fn server(&self) -> Cpu {
        CLASSES
            .iter()
            .filter(|&&c| c != Class::Generator)
            .fold(Cpu::default(), |acc, &c| acc.plus(self.of(c)))
    }

    pub fn add(&mut self, o: &CpuDelta) {
        for (a, b) in self.by_class.iter_mut().zip(o.by_class) {
            *a = a.plus(b);
        }
    }
}

/// CPU time of the calling thread so far, in seconds, at nanosecond
/// resolution (`/proc/thread-self/schedstat`; `stat` counts in ticks).
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// A memory figure of this process from `/proc/self/status`, in MB:
/// `"VmHWM"` is the peak resident set, `"VmRSS"` the current one.
pub fn status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.split(':').next() == Some(field))
                .and_then(|l| l.split_ascii_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time so far, from the `cpu` line of `/proc/stat`, in ticks:
/// all of it, and the steal — time this virtual machine's CPUs were
/// runnable but the hypervisor ran something else.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn take() -> HostTicks {
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_ascii_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        HostTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of the machine's CPU time stolen since `earlier`.
    pub fn steal_frac_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total).max(1);
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_read_after_the_comm() {
        let line = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        let cpu = parse_stat(line, 100.0).expect("parses");
        assert_eq!(
            cpu,
            Cpu {
                user: 2.5,
                sys: 0.5
            }
        );
    }

    #[test]
    fn classes_follow_thread_names() {
        assert_eq!(class_of("mely-core-1"), Class::Workers);
        assert_eq!(class_of("mely-tcp-poller"), Class::Poller);
        assert_eq!(class_of(GENERATOR_COMM), Class::Generator);
        assert_eq!(class_of("main"), Class::Other);
    }
}
