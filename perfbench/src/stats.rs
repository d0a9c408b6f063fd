//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q * n)`. Every
//! percentile is reported together with its sample count and with how many
//! samples lie strictly beyond its rank, so a reader can tell a p99 backed
//! by ten tail samples from one that is simply the maximum.

/// One percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile value (same unit as the samples).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub n: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`; `None` when empty.
/// Non-finite samples (failed requests) sort above every finite one.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: v[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median (nearest-rank 0.5-quantile value); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// FNV-1a 64-bit digest, folded to 52 bits so it survives a JSON number
/// (an IEEE double holds every integer below 2^53 exactly).
pub fn digest52(h: u64) -> u64 {
    (h ^ (h >> 52)) & ((1 << 52) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hundred_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.n, p99.beyond), (99.0, 100, 1));
    }

    #[test]
    fn p99_of_a_thousand_has_ten_beyond() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 989.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn small_sets_clamp_to_the_maximum() {
        let v = [3.0, 1.0, 2.0];
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.n, p99.beyond), (3.0, 3, 0));
        assert_eq!(median(&v), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn failures_sort_above_every_success() {
        let v = [f64::INFINITY, 1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.99).unwrap().value, f64::INFINITY);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 2.0);
    }

    #[test]
    fn digest_fits_a_double() {
        let d = digest52(u64::MAX);
        assert!(d < (1 << 52));
        assert_eq!(d as f64 as u64, d);
    }
}
