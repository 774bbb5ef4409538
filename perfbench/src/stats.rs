//! The benchmark's own statistics: nearest-rank percentiles, the
//! "highest percentile with at least ten samples beyond it" rule, the
//! per-op drift ratio, and process figures read from `/proc/self/status`.

/// Samples a percentile must leave beyond itself to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` (ascending percentiles) that leaves at
/// least [`MIN_BEYOND`] samples beyond it among `n`, with that count.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<(f64, usize)> {
    candidates
        .iter()
        .rev()
        .map(|&p| (p, beyond(n.max(1), p)))
        .find(|&(_, b)| n > 0 && b >= MIN_BEYOND)
}

/// Median of an unsorted slice; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// p50 of the last fifth of `in_order` divided by the p50 of the first
/// fifth: above 1 when per-op cost grows with history. 1 when there are
/// fewer than five samples.
pub fn drift(in_order: &[f64]) -> f64 {
    let fifth = in_order.len() / 5;
    if fifth == 0 {
        return 1.0;
    }
    let first = median(&in_order[..fifth]);
    let last = median(&in_order[in_order.len() - fifth..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Resident-set growth per completed task, in KiB, pooled over rounds:
/// the sum of (RSS after the timed window − RSS after setup) over the
/// sum of tasks completed, from `(after_setup_kb, after_window_kb, tasks)`
/// per round. Pooling rather than taking a median keeps the figure
/// steady when growth comes in allocator-sized steps that some rounds
/// cross and others do not. Negative when the processes gave memory back.
pub fn rss_kb_per_task(rounds: &[(u64, u64, u64)]) -> f64 {
    let tasks: u64 = rounds.iter().map(|r| r.2).sum();
    if tasks == 0 {
        return 0.0;
    }
    let growth: f64 = rounds.iter().map(|r| r.1 as f64 - r.0 as f64).sum();
    growth / tasks as f64
}

/// Figures from `/proc/self/status`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStatus {
    /// Current resident set (`VmRSS`), KiB.
    pub rss_kb: u64,
    /// Peak resident set (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
    /// OS threads (`Threads`).
    pub threads: u64,
}

impl ProcStatus {
    /// Parses the text of a `/proc/<pid>/status` file; absent fields
    /// read as 0.
    pub fn parse(text: &str) -> ProcStatus {
        let mut status = ProcStatus::default();
        for line in text.lines() {
            let Some((key, rest)) = line.split_once(':') else {
                continue;
            };
            let value = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            match key {
                "VmRSS" => status.rss_kb = value,
                "VmHWM" => status.peak_rss_kb = value,
                "Threads" => status.threads = value,
                _ => {}
            }
        }
        status
    }

    /// This process's current figures (zeros where `/proc` is absent).
    pub fn read() -> ProcStatus {
        std::fs::read_to_string("/proc/self/status")
            .map(|text| ProcStatus::parse(&text))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(highest_supported(100, &candidates), Some((90.0, 10)));
        // 99 samples: p90 is rank 90, leaving 9 — fall back to p50.
        assert_eq!(highest_supported(99, &candidates), Some((50.0, 49)));
        assert_eq!(highest_supported(1000, &candidates), Some((99.0, 10)));
        assert_eq!(highest_supported(10_000, &candidates), Some((99.9, 10)));
        assert_eq!(highest_supported(12, &candidates), None);
        assert_eq!(highest_supported(0, &candidates), None);
    }

    #[test]
    fn drift_compares_last_fifth_to_first() {
        let flat = vec![2.0; 50];
        assert_eq!(drift(&flat), 1.0);
        // First fifth ~1, last fifth ~3.
        let mut growing: Vec<f64> = vec![1.0; 10];
        growing.extend(vec![2.0; 30]);
        growing.extend(vec![3.0; 10]);
        assert_eq!(drift(&growing), 3.0);
        // Too few samples to split: no drift claimed.
        assert_eq!(drift(&[1.0, 5.0]), 1.0);
    }

    #[test]
    fn rss_growth_per_task_is_signed_and_pooled() {
        assert_eq!(rss_kb_per_task(&[(1000, 3000, 1000)]), 2.0);
        assert_eq!(rss_kb_per_task(&[(3000, 1000, 1000)]), -2.0);
        assert_eq!(rss_kb_per_task(&[(1000, 3000, 0)]), 0.0);
        // Pooled: a round that grew by 4 MiB and one that grew by 0 over
        // 1000 tasks each average to 2 KiB per task.
        assert_eq!(
            rss_kb_per_task(&[(1000, 5096, 1000), (9000, 9000, 1000)]),
            2.048
        );
    }

    #[test]
    fn parses_proc_status() {
        let text = "Name:\tperfbench\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nThreads:\t17\n";
        let status = ProcStatus::parse(text);
        assert_eq!(
            status,
            ProcStatus {
                rss_kb: 102_400,
                peak_rss_kb: 204_800,
                threads: 17,
            }
        );
        assert_eq!(ProcStatus::parse("garbage"), ProcStatus::default());
        let live = ProcStatus::read();
        assert!(live.threads >= 1);
        assert!(live.peak_rss_kb >= live.rss_kb);
    }
}
