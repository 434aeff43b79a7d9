//! Latency summaries and process measurements.
//!
//! The untraced hot loops record into a fixed-size log-linear
//! [`Histogram`] so the harness's own memory stays constant however many
//! queries a run issues (peak RSS is an end-to-end metric, and sample
//! buffers would pollute it). Span durations of the traced run are few
//! enough to sort exactly ([`percentile`]).

use std::time::Instant;

/// Nanoseconds since a run-wide origin; every thread of a run shares one.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds elapsed since the origin.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Waits until `target` (clock nanoseconds) and returns the time it
    /// woke. Waits over 2 ms sleep until 1 ms before the target, leaving
    /// the core to the rest of the system; the rest spins, so a late
    /// wake-up from the sleep (rarely near a millisecond on a loaded host)
    /// does not delay the send.
    pub fn wait_until(&self, target: u64) -> u64 {
        loop {
            let now = self.now();
            if now >= target {
                return now;
            }
            let gap = target - now;
            if gap > 2_000_000 {
                std::thread::sleep(std::time::Duration::from_nanos(gap - 1_000_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Sub-buckets per power of two: 2^7 = 128, a relative bucket width
/// below 0.8%.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A log-linear histogram of `u64` values (nanoseconds, counts).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        let j = (v >> shift) - SUB;
        (((shift as u64 + 1) << SUB_BITS) | j) as usize
    }

    /// `(lower bound, width)` of bucket `b`.
    fn bounds(b: usize) -> (f64, f64) {
        let k = (b as u64) >> SUB_BITS;
        let j = (b as u64) & (SUB - 1);
        if k == 0 {
            (j as f64, 1.0)
        } else {
            (((SUB + j) << (k - 1)) as f64, (1u64 << (k - 1)) as f64)
        }
    }

    /// Adds one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `q` quantile, placed inside its bucket by rank
    /// (linear interpolation), so equal runs do not collapse onto bucket
    /// edges. `0.0` for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = Self::bounds(b);
                return lo + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} lies within the {} recorded values", self.total)
    }
}

/// The nearest-rank `q` quantile of an ascending slice; `0` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `q` quantile of a list of measurements (sorted in place), linearly
/// interpolated between neighbours; `0` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let x = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let i = x.floor() as usize;
    let next = values[(i + 1).min(values.len() - 1)];
    values[i] + (next - values[i]) * x.fract()
}

/// The median of a list of measurements (sorted in place); `0` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        for i in 0..10_000u64 {
            let v = (i * 7919) % 5_000_000 + 3;
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let want = percentile(&exact, q) as f64;
            let got = h.quantile(q);
            assert!((got - want).abs() <= want * 0.01 + 1.0, "q{q}: {got} vs {want}");
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        assert_eq!(merged.count(), 10_000);
        assert_eq!(merged.quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in [1, 2, 3, 4] {
            h.record(v);
        }
        // Rank 2 is the value 2, reported at the middle of its 1-wide bucket.
        assert_eq!(h.quantile(0.5), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&mut [5.0, 1.0, 4.0, 2.0, 3.0], 0.25), 2.0);
        assert_eq!(quantile(&mut [5.0, 1.0, 4.0, 2.0, 3.0], 0.75), 4.0);
    }
}
