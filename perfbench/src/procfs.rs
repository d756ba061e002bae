//! Process counters from `/proc/self/stat` and `/proc/self/status`.

/// `/proc` reports CPU time in USER_HZ ticks, 100 per second on Linux.
pub const TICKS_PER_SEC: f64 = 100.0;

/// Whole-process counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stat {
    pub minor_faults: u64,
    pub user_ticks: u64,
    pub sys_ticks: u64,
}

/// Counters from `/proc/self/status`. Context switches are the main
/// thread's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

/// Parses `/proc/<pid>/stat`. The command name sits in parentheses and
/// may itself contain spaces and `)`, so fields are counted from the
/// last `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let after_name = &text[text.rfind(')')? + 1..];
    // After the name, field 3 (state) is index 0; minflt is field 10,
    // utime 14 and stime 15.
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        minor_faults: field(10)?,
        user_ticks: field(14)?,
        sys_ticks: field(15)?,
    })
}

/// Parses `/proc/<pid>/status`.
pub fn parse_status(text: &str) -> Option<Status> {
    let value = |key: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
    };
    Some(Status {
        vm_hwm_kb: value("VmHWM")?,
        voluntary_switches: value("voluntary_ctxt_switches")?,
        involuntary_switches: value("nonvoluntary_ctxt_switches")?,
    })
}

pub fn read_stat() -> Option<Stat> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

pub fn read_status() -> Option<Status> {
    parse_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        // A command name with spaces and a `)` of its own.
        let text = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194304 1234 0 5 0 \
                    321 45 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(
            parse_stat(text),
            Some(Stat {
                minor_faults: 1234,
                user_ticks: 321,
                sys_ticks: 45,
            })
        );
        assert_eq!(parse_stat("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn status_keys_are_matched_exactly() {
        let text = "Name:\tperf bench\nVmPeak:\t  9000 kB\nVmHWM:\t  5120 kB\n\
                    VmRSS:\t  4096 kB\nvoluntary_ctxt_switches:\t17\n\
                    nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(
            parse_status(text),
            Some(Status {
                vm_hwm_kb: 5120,
                voluntary_switches: 17,
                involuntary_switches: 3,
            })
        );
        assert_eq!(parse_status("VmHWM:\t12 kB\n"), None);
    }

    #[test]
    fn this_process_is_readable() {
        let stat = read_stat().expect("/proc/self/stat parses");
        let status = read_status().expect("/proc/self/status parses");
        assert!(stat.minor_faults > 0);
        assert!(status.vm_hwm_kb > 0);
    }
}
