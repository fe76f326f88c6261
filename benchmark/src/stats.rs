//! Order statistics and the `/proc` readers behind the resource metrics.

/// Median; the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_of(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank_of(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond percentile `q`. A tail
/// percentile is only worth reporting with at least ten.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank_of(n, q)
}

/// Ops per second of each of `blocks` equal consecutive blocks of ops
/// (ops in the block ÷ the block's summed op time): one noisy stretch
/// of the run moves the blocks it covers and no other. Trailing ops
/// that do not fill a block are dropped.
pub fn block_throughputs(op_ns: &[u64], blocks: usize) -> Vec<f64> {
    let per = op_ns.len() / blocks;
    if per == 0 {
        return Vec::new();
    }
    op_ns
        .chunks_exact(per)
        .take(blocks)
        .map(|b| per as f64 / (b.iter().sum::<u64>() as f64 / 1e9))
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the acceptance procedure uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, interpolated between
        // its neighbours (extrapolated where the rank is clamped).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// `utime + stime` of the process in clock ticks, from the text of
/// `/proc/self/stat`. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:   <n> kB` line of `/proc/self/status`, in kB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, which is 100 on
/// every mainstream configuration; there is no way to ask without libc.
const TICKS_PER_S: f64 = 100.0;

/// CPU milliseconds (user + system, all threads) used by this process
/// so far.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).unwrap_or(0) as f64 * 1000.0 / TICKS_PER_S
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

pub fn loadavg_1m() -> f64 {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    parse_loadavg(&text).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(500, 0.9), 50);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn block_throughput_ignores_one_slow_stretch() {
        // 100 ops of 1 ms, except ops 10..20 which take 10 ms each.
        let mut ns = vec![1_000_000u64; 100];
        for op in &mut ns[10..20] {
            *op = 10_000_000;
        }
        let blocks = block_throughputs(&ns, 10);
        assert_eq!(blocks.len(), 10);
        assert!((blocks[0] - 1000.0).abs() < 1e-6);
        assert!((blocks[1] - 100.0).abs() < 1e-6);
        assert!((median(&blocks) - 1000.0).abs() < 1e-6);
        // 105 ops: the five trailing ops are dropped, not a short block.
        assert_eq!(block_throughputs(&vec![1_000_000; 105], 10).len(), 10);
        assert!(block_throughputs(&[1, 2, 3], 10).is_empty());
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[16.0, 1.0, 4.0, 2.0, 8.0]) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn proc_stat_survives_hostile_command_names() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 1201 0 3 0 \
                    250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn proc_status_and_loadavg_parse() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        assert_eq!(parse_loadavg("0.52 0.78 0.63 2/86 7593\n"), Some(0.52));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_ms() >= 0.0);
    }
}
