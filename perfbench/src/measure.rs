//! Process-level measurements read from outside the program: CPU time and peak
//! memory from `/proc`, and latency quantiles refined from a [`LogHistogram`].

use tempo_kernel::metrics::LogHistogram;

/// User plus system CPU time of this process, all threads (live and exited), in
/// seconds, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; the fields after it start after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line, 12 and 13 of `rest`.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / CLOCK_TICKS_PER_SECOND
}

/// The unit of `/proc/self/stat` times: the kernel's `USER_HZ`, which Linux fixes at
/// 100 on the platforms this runs on (`getconf CLK_TCK`).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kib / 1024.0
}

// The bucket geometry of `LogHistogram`: values below 64 are exact, each power of
// two above is split into 64 equal sub-buckets.
const SUB_BITS: u32 = 6;
const SUBS: u64 = 1 << SUB_BITS;

fn bucket_bounds(v: u64) -> (u64, u64) {
    if v < SUBS {
        return (v, v + 1);
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let lo = (v >> shift) << shift;
    (lo, lo + (1 << shift))
}

/// The `q`-quantile of `h` in milliseconds, by nearest rank, placed inside its
/// bucket by the rank's position among the samples sharing that bucket (samples are
/// taken as spread evenly over the bucket). `LogHistogram::quantile_us` answers with
/// the bucket's midpoint, so every run whose quantile lands in the same bucket would
/// report the same value; this keeps the histogram's 1/64 resolution but not its
/// steps.
pub fn quantile_ms(h: &LogHistogram, q: f64) -> f64 {
    let n = h.len();
    if n == 0 {
        return 0.0;
    }
    // The sample of rank k (1-based), as the histogram reports it.
    let at = |k: u64| h.quantile_us((k as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mid = at(rank);
    let (lo, hi) = bucket_bounds(mid);
    assert!(
        lo <= mid && mid < hi,
        "LogHistogram bucket geometry changed: {mid} outside [{lo}, {hi})"
    );
    // First and last rank answered from the same bucket.
    let (mut a, mut b) = (1, rank);
    while a < b {
        let m = (a + b) / 2;
        if at(m) < lo {
            a = m + 1;
        } else {
            b = m;
        }
    }
    let first = a;
    let (mut a, mut b) = (rank, n);
    while a < b {
        let m = (a + b).div_ceil(2);
        if at(m) >= hi {
            b = m - 1;
        } else {
            a = m;
        }
    }
    let last = a;
    let share = (rank - first) as f64 + 0.5;
    let us = lo as f64 + (hi - lo) as f64 * share / (last - first + 1) as f64;
    us / 1000.0
}

/// The median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refined_quantile_stays_inside_the_histograms_bucket() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        for q in [0.5, 0.9, 0.99] {
            let coarse = h.quantile_us(q);
            let (lo, hi) = bucket_bounds(coarse);
            let fine = quantile_ms(&h, q) * 1000.0;
            assert!(
                lo as f64 <= fine && fine < hi as f64,
                "q={q}: {fine} not in [{lo}, {hi})"
            );
            // Evenly spread samples: the refined value is close to the exact one.
            let exact = (q * 10_000.0).ceil() * 37.0;
            assert!(
                (fine - exact).abs() / exact < 0.005,
                "q={q}: {fine} vs {exact}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_to_within_one_microsecond() {
        let mut h = LogHistogram::new();
        for v in [3, 5, 5, 7, 9] {
            h.record(v);
        }
        let p50 = quantile_ms(&h, 0.5) * 1000.0;
        assert!((5.0..6.0).contains(&p50), "{p50}");
    }
}
