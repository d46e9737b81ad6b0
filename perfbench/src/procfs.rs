//! Processor time, page faults and peak memory of a process, read from
//! `/proc` (std has no `getrusage`, and the workspace has no libc crate).

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_SEC: u64 = 100;

/// One reading of a process's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// Time on a processor, user plus system, in nanoseconds: from
    /// `schedstat` when the kernel has it (nanosecond counter, refreshed
    /// at scheduler ticks), else from the tick counters below.
    pub cpu_ns: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub minor_faults: u64,
    /// Times the process gave up the processor by itself (slept or
    /// blocked): one per poll-loop sleep, so a noise-free count of them.
    pub voluntary_switches: u64,
}

impl ProcSample {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
        }
    }

    pub fn add(&mut self, other: &ProcSample) {
        self.cpu_ns += other.cpu_ns;
        self.utime_ticks += other.utime_ticks;
        self.stime_ticks += other.stime_ticks;
        self.minor_faults += other.minor_faults;
        self.voluntary_switches += other.voluntary_switches;
    }

    /// System share of the processor time, from the tick counters.
    pub fn sys_share(&self) -> f64 {
        let total = self.utime_ticks + self.stime_ticks;
        if total == 0 {
            0.0
        } else {
            self.stime_ticks as f64 / total as f64
        }
    }
}

fn proc_dir(pid: Option<u32>) -> String {
    match pid {
        Some(p) => format!("/proc/{p}"),
        None => "/proc/self".into(),
    }
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command
/// name (which may itself contain spaces), so index 0 is the state.
fn stat_fields(pid: Option<u32>) -> Option<(String, Vec<String>)> {
    let text = std::fs::read_to_string(format!("{}/stat", proc_dir(pid))).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_string();
    let rest = text[close + 1..]
        .split_whitespace()
        .map(String::from)
        .collect();
    Some((comm, rest))
}

/// Reads the counters of `pid` (`None` = this process); `None` when the
/// process is gone.
pub fn sample(pid: Option<u32>) -> Option<ProcSample> {
    let (_, f) = stat_fields(pid)?;
    // After the command name: state ppid pgrp session tty tpgid flags
    // minflt cminflt majflt cmajflt utime stime …
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok());
    let (minor_faults, utime_ticks, stime_ticks) = (num(7)?, num(11)?, num(12)?);
    let cpu_ns = std::fs::read_to_string(format!("{}/schedstat", proc_dir(pid)))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&ns| ns > 0)
        .unwrap_or((utime_ticks + stime_ticks) * (1_000_000_000 / TICKS_PER_SEC));
    Some(ProcSample {
        cpu_ns,
        utime_ticks,
        stime_ticks,
        minor_faults,
        voluntary_switches: status_field(pid, "voluntary_ctxt_switches:").unwrap_or(0.0) as u64,
    })
}

/// The number after `key` in `/proc/<pid>/status`.
fn status_field(pid: Option<u32>, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    Some(status_field(pid, "VmHWM:")? / 1024.0)
}

/// Live processes named `comm` whose parent is this process, by pid.
/// `ProcessCluster` keeps its `Child` handles private, so the members
/// are found the way `ps --ppid` would find them.
pub fn children_named(comm: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_string_lossy().parse::<u32>().ok())
        .filter(|&pid| {
            stat_fields(Some(pid))
                .is_some_and(|(c, f)| c == comm && f.get(1) == Some(&me) && f[0] != "Z")
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// Summed counters of `pids`, skipping any that exited.
pub fn sample_all(pids: &[u32]) -> ProcSample {
    let mut total = ProcSample::default();
    for &pid in pids {
        if let Some(s) = sample(Some(pid)) {
            total.add(&s);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_counters() {
        let a = sample(None).expect("own /proc entry");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = sample(None).expect("own /proc entry");
        assert!(b.cpu_ns >= a.cpu_ns);
        assert!(peak_rss_mb(None).expect("VmHWM") > 0.0);
        assert!(children_named("no-such-child").is_empty());
    }
}
