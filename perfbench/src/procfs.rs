//! What the benchmark reads from `/proc`: per-process CPU, memory and
//! threads, host-wide UDP drop counters, and the host fingerprint.

use std::fs;

/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 on every architecture it exports to user space.
const US_PER_TICK: u64 = 10_000;

/// User + system CPU time of a process (all its threads, live or exited),
/// in microseconds. `pid` is a number or `self`.
pub fn cpu_us(pid: &str) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) (utime, stime); `rest` starts at field 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * US_PER_TICK)
}

/// One numeric field of `/proc/<pid>/status` (e.g. `VmHWM` in kB,
/// `Threads` as a count).
pub fn status_field(pid: &str, key: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Host-wide counters a step is charged with: UDP drops from
/// `/proc/net/snmp`, and CPU time the hypervisor gave to other guests
/// (`steal` in `/proc/stat`), which explains a slow step on a shared host.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    pub rcvbuf_errors: u64,
    pub sndbuf_errors: u64,
    pub steal_us: u64,
}

impl HostCounters {
    pub fn read() -> HostCounters {
        let snmp = fs::read_to_string("/proc/net/snmp").unwrap_or_default();
        let mut rows = snmp.lines().filter(|l| l.starts_with("Udp:"));
        let (names, values) = (rows.next().unwrap_or(""), rows.next().unwrap_or(""));
        let get = |key: &str| {
            names
                .split_whitespace()
                .zip(values.split_whitespace())
                .find(|(n, _)| *n == key)
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0)
        };
        // First line of /proc/stat: "cpu user nice system idle iowait irq
        // softirq steal ..." in ticks, summed over CPUs.
        let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
        let steal: u64 = stat
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
            .unwrap_or(0);
        HostCounters {
            rcvbuf_errors: get("RcvbufErrors"),
            sndbuf_errors: get("SndbufErrors"),
            steal_us: steal * US_PER_TICK,
        }
    }

    pub fn since(self, before: HostCounters) -> HostCounters {
        HostCounters {
            rcvbuf_errors: self.rcvbuf_errors.saturating_sub(before.rcvbuf_errors),
            sndbuf_errors: self.sndbuf_errors.saturating_sub(before.sndbuf_errors),
            steal_us: self.steal_us.saturating_sub(before.steal_us),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// nproc, CPU model and kernel release: enough to tell whether two runs
/// were on the same kind of host.
pub fn host() -> serde_json::Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim())
        .to_string();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    serde_json::json!({
        "nproc": nproc(),
        "cpu_model": cpu_model,
        "kernel": kernel,
    })
}
