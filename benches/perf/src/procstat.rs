//! CPU time and peak resident set of this process, read from `/proc`
//! (the package has no libc to call `getrusage` with).

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which is
/// 100 on every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds out of one `/proc/<pid>/stat` line, all
/// threads included. The second field is the executable name in
/// parentheses and may itself contain spaces and `)`, so fields are
/// counted from the *last* `)`.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// `VmHWM` (peak resident set) in MiB out of `/proc/<pid>/status`.
pub fn peak_rss_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mib_from_status(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 2 3 0 -1 4194560 500 0 0 0 731 42 0 0 20 0 3 0 100 1000 200";

    #[test]
    fn stat_plain_comm() {
        let line = format!("1234 (pq-perf) {TAIL}");
        assert_eq!(cpu_seconds_from_stat(&line), Some(7.73));
    }

    #[test]
    fn stat_comm_with_spaces_and_parens() {
        let line = format!("1234 (my (odd) prog 1) {TAIL}");
        assert_eq!(cpu_seconds_from_stat(&line), Some(7.73));
    }

    #[test]
    fn stat_malformed_is_none() {
        assert_eq!(cpu_seconds_from_stat("1234 pq-perf S 1"), None);
        assert_eq!(cpu_seconds_from_stat("1234 (pq-perf) S 1 2"), None);
    }

    #[test]
    fn status_vmhwm() {
        let status = "Name:\tpq-perf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(peak_rss_mib_from_status(status), Some(20.0));
        assert_eq!(peak_rss_mib_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn live_reads_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
