//! A log-linear histogram of nanosecond latencies in fixed memory.
//!
//! Every power of two is split into 128 equal sub-buckets, so a bucket is
//! at most 1/128 (0.8 %) of its lower bound wide and a reported quantile,
//! taken at the bucket's midpoint, is within 0.4 % of a recorded value.
//! The buckets are allocated once, at set-up: recording never allocates,
//! so the run's peak memory does not grow with its length.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest recordable exponent: values from 2^40 ns (18 minutes) on share
/// the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) << SUB_BITS;

pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The value at quantile `q` (0 < q <= 1), or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i);
            }
        }
        midpoint(BUCKETS - 1)
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()).min(MAX_EXP);
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift).min(2 * SUB - 1);
    (((shift + 1) as usize) << SUB_BITS) + (mantissa - SUB) as usize
}

fn midpoint(i: usize) -> f64 {
    if (i as u64) < SUB {
        return i as f64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let low = ((i as u64 & (SUB - 1)) + SUB) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut h = Histogram::new();
        for v in [3u64, 127, 128, 1_000, 1_537, 99_999, 12_345_678, 1 << 39] {
            h.clear();
            h.record(v);
            let got = h.quantile(0.5);
            assert!((got - v as f64).abs() <= v as f64 * 0.01, "{v} -> {got}");
        }
    }

    #[test]
    fn median_and_tail_of_a_spread() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() < 500.0, "{p50}");
        assert!((p99 - 99_000.0).abs() < 990.0, "{p99}");
    }
}
