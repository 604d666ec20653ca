//! Process and host readings from `/proc`: peak RSS, CPU time, steal.

use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`). Linux
/// fixes it at 100 for user space on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// `VmHWM` of this process in MiB: the resident high-water mark since start.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds of this whole process (all threads, live or
/// exited), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// On-CPU seconds of the calling thread (`/proc/thread-self/schedstat`,
/// nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Host-wide steal seconds summed over all CPUs (`/proc/stat`): time the
/// hypervisor ran someone else while this guest wanted the CPU.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / USER_HZ)
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One stage's wall time, the CPU time this process used in it, and the
/// CPU time the hypervisor stole from this guest meanwhile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stage {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// Host steal seconds (all CPUs).
    pub steal_s: f64,
}

impl Stage {
    /// Wall time with the host's steal taken out: the wall time scaled by
    /// the share of the CPU time the stage wanted (used + stolen) that the
    /// host granted. A guest CPU only accrues steal while it has work, so
    /// on a shared virtual machine this removes the neighbours' load from
    /// the figure and keeps the stage's own cost, waits included.
    /// Without a CPU reading (a stage shorter than one tick) it is the
    /// wall time.
    pub fn adjusted_s(&self) -> f64 {
        if self.cpu_s > 0.0 {
            self.wall_s * self.cpu_s / (self.cpu_s + self.steal_s)
        } else {
            self.wall_s
        }
    }
}

/// Steal-adjusted wall seconds of `stages` taken together. Summing the
/// readings first keeps the adjustment accurate for stages shorter than
/// the 10 ms tick of the CPU and steal counters.
pub fn adjusted_total(stages: &[Stage]) -> f64 {
    stages
        .iter()
        .fold(Stage::default(), |a, s| Stage {
            wall_s: a.wall_s + s.wall_s,
            cpu_s: a.cpu_s + s.cpu_s,
            steal_s: a.steal_s + s.steal_s,
        })
        .adjusted_s()
}

/// Mean steal-adjusted wall seconds of `stages` (0 for none).
pub fn adjusted_mean(stages: &[Stage]) -> f64 {
    adjusted_total(stages) / stages.len().max(1) as f64
}

/// Process CPU, host steal and wall clock at one instant; the difference
/// of two readings gives a stage's CPU use and the steal it suffered.
#[derive(Clone, Copy)]
pub struct Usage {
    wall: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            steal_s: host_steal_s(),
        }
    }

    /// The stage from `self` until now.
    pub fn stage(&self) -> Stage {
        let now = Self::now();
        Stage {
            wall_s: now.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: now.cpu_s - self.cpu_s,
            steal_s: now.steal_s - self.steal_s,
        }
    }
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile `p` (0..=100) of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
