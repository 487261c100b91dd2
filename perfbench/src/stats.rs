//! Small statistics helpers: exact percentiles over wall samples,
//! interpolated percentiles over the simulator's bucketed histograms, peak
//! resident memory, and the host-speed reference loop.

use std::time::Instant;

use precursor_sim::Histogram;

/// Nearest-rank percentile `p` (0–100) of `samples`; sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64
}

/// Median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// Width of the simulator histogram bucket whose lower bound is `low`:
// 32 linear sub-buckets per power-of-two range.
fn bucket_width(low: u64) -> f64 {
    if low < 32 {
        1.0
    } else {
        let msb = 63 - low.leading_zeros();
        (1u64 << (msb - 5)) as f64
    }
}

/// Percentile `p` of a simulator histogram in ns, linearly interpolated
/// inside the containing bucket. [`Histogram::percentile`] returns the
/// bucket's lower bound, which is ~3 % coarse and reads identically across
/// seeds; interpolation keeps the value continuous.
pub fn hist_percentile(h: &Histogram, p: f64) -> f64 {
    let target = p / 100.0;
    let mut prev = 0.0;
    for (low, cum) in h.cdf() {
        if cum >= target {
            let within = if cum > prev {
                (target - prev) / (cum - prev)
            } else {
                0.0
            };
            let v = low.0 as f64 + within * bucket_width(low.0);
            return v.min(h.max().0 as f64);
        }
        prev = cum;
    }
    h.max().0 as f64
}

/// Peak resident set size (`VmHWM`) in MiB, or 0 where `/proc` is absent.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-speed reference: nanoseconds one fixed integer loop takes (median
/// of five). Uses no repository code, so it moves only with the host.
pub fn host_ref_ns() -> f64 {
    let mut reps = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..(1u64 << 18) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
        reps.push(t.elapsed().as_nanos() as f64);
    }
    median(&reps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use precursor_sim::Nanos;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn interpolated_percentile_stays_inside_its_bucket() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(Nanos(10_000 + i * 10));
        }
        let p50 = hist_percentile(&h, 50.0);
        let low = h.percentile(50.0).0 as f64;
        assert!(
            p50 >= low && p50 < low + bucket_width(low as u64),
            "{p50} {low}"
        );
        assert!((p50 - 15_000.0).abs() < 300.0, "{p50}");
    }
}
