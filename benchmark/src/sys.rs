//! CPU time and resident memory of a process.

use std::fs;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds `pid`'s threads have spent on a CPU (user + system).
///
/// Read from the process's CPU-time clock (`clock_getcpuclockid(3)`),
/// which the kernel brings up to date on every read.  The counters in
/// `/proc/<pid>/stat` advance in 10 ms ticks, too coarse for a slice of a
/// few milliseconds, and are only the fallback where the clock cannot be
/// read.
pub fn cpu_ns(pid: u32) -> u64 {
    // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of the Linux ABI.
    const CPUCLOCK_SCHED: i32 = 2;
    if let Ok(pid) = i32::try_from(pid) {
        let clock = (!pid << 3) | CPUCLOCK_SCHED;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, exclusively borrowed `timespec` of the
        // layout the 64-bit Linux C library expects; the call writes
        // nothing else and keeps no pointer.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        }
    }
    stat_ticks(pid) * 10_000_000
}

/// `utime + stime` of `/proc/<pid>/stat`, in clock ticks (100 Hz).
fn stat_ticks(pid: u32) -> u64 {
    let Ok(text) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis (utime and stime are fields 14 and 15).
    let Some(rest) = text.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| {
        fields
            .get(n)
            .and_then(|w| w.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Memory `pid` owns and has resident right now, MiB: anonymous pages
/// plus shared memory (`RssAnon` + `RssShmem` of `/proc/<pid>/status`).
///
/// File-backed pages — the program text — are left out on purpose.
/// They are shared and evictable, and how many of them a run maps is
/// decided by the kernel's fault-around and the page cache, not by the
/// program: on the 5 MiB IPC processes they are 90 % of `VmHWM` and vary
/// by 3 % from run to run, which would hide any real change.
pub fn owned_rss_mb(pid: u32) -> f64 {
    let Ok(text) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    let field = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.split_ascii_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field("RssAnon:") + field("RssShmem:")) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_cpu_time_and_memory() {
        let before = cpu_ns(std::process::id());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = cpu_ns(std::process::id());
        assert!(after > before);
        // Both sources agree to within a few ticks.
        let from_proc = stat_ticks(std::process::id()) * 10_000_000;
        assert!(
            after.abs_diff(from_proc) < 50_000_000,
            "{after} vs {from_proc}"
        );
        assert!(owned_rss_mb(std::process::id()) > 0.05);
    }
}
