//! Process and thread accounting read from `/proc`: CPU time for
//! `cpu_us_per_req`, peak resident memory for `peak_rss_mib`.

use std::fs;

/// `/proc` reports CPU time in clock ticks of `USER_HZ`, which Linux
/// fixes at 100 for every architecture.
const TICK_US: f64 = 10_000.0;

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// ticks. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set size) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn cpu_us_of(path: &str) -> f64 {
    let stat = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let ticks = parse_stat_cpu_ticks(&stat).unwrap_or_else(|| panic!("parse {path}: {stat:?}"));
    ticks as f64 * TICK_US
}

/// CPU microseconds the whole process has used so far (all threads).
pub fn process_cpu_us() -> f64 {
    cpu_us_of("/proc/self/stat")
}

/// CPU microseconds the calling thread has used so far. The load
/// generators subtract theirs from the process total, which leaves the
/// CPU of the program under test.
pub fn thread_cpu_us() -> f64 {
    cpu_us_of("/proc/thread-self/stat")
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let plain = "4242 (perf) S 1 4242 4242 0 -1 4194304 120 0 0 0 37 5 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(42));
        // A command name with spaces and a ')' must not shift the fields.
        let nasty = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 1000 234 0 0 20 0 1 0 5 6 7";
        assert_eq!(parse_stat_cpu_ticks(nasty), Some(1234));
        assert_eq!(parse_stat_cpu_ticks("7 (short) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_status_lines() {
        let status = "Name:\tperf\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None);
    }

    #[test]
    fn live_readings_parse() {
        assert!(process_cpu_us() >= 0.0);
        assert!(thread_cpu_us() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
