//! Small statistics helpers: exact percentiles over samples, medians,
//! quantiles read out of the runtime's log2 latency histogram, and the
//! seeded generator every workload draws its inputs from.

use mely_repro::core::metrics::LatencyHistogram;

/// The `q`-quantile of `samples` (nearest rank; sorts in place). 0.0 for
/// an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
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

/// The `q`-quantile of a [`LatencyHistogram`], in its own unit (cycles),
/// interpolated inside the log2 bucket that holds it as if latencies
/// were log-normal.
///
/// The histogram only answers "upper bound of the bucket holding rank
/// r"; this recovers each bucket's population by binary search over
/// ranks, then interpolates between the bucket's edges linearly in log
/// latency against the normal quantile of the cumulative share, which
/// is exact for log-normal latencies. Interpolating linearly in latency
/// against the share instead (Prometheus' `histogram_quantile`) assumes
/// latencies spread evenly across the bucket; SFS reads bunch near the
/// 1 ms edge, and there that estimate moved about four times as much as
/// throughput between runs. Shares are kept half a sample away from 0
/// and 1.
pub fn hist_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Upper bound of the bucket holding the sample of 1-based rank `r`.
    let bound_at = |r: u64| h.percentile((r as f64 - 0.5) / n as f64);
    let target = (q.clamp(0.0, 1.0) * n as f64).max(1.0);
    let mut first = 1u64;
    while first <= n {
        let upper = bound_at(first);
        // Last rank that still falls in the same bucket.
        let (mut lo, mut hi) = (first, n);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if bound_at(mid) == upper {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let last = lo;
        if target <= last as f64 {
            if upper == 0 {
                return 0.0;
            }
            let lower = (upper / 2 + 1) as f64;
            let share = |ranks: f64| (ranks / n as f64).clamp(0.5 / n as f64, 1.0 - 0.5 / n as f64);
            let z_lo = probit(share((first - 1) as f64));
            let z_hi = probit(share(last as f64));
            let inside = if z_hi > z_lo {
                (probit(share(target)) - z_lo) / (z_hi - z_lo)
            } else {
                1.0
            };
            return lower * (upper as f64 / lower).powf(inside);
        }
        first = last + 1;
    }
    h.percentile(1.0) as f64
}

/// The standard normal quantile of `p` in `(0, 1)`: Acklam's rational
/// approximation, relative error below 1.2e-9.
fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.38357751867269e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996,
        3.754408661907416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

/// The `keep` units during which the hypervisor took the least CPU time
/// from this machine, in their original order. A unit the host's
/// neighbours slowed measures them as much as the program; leaving the
/// noisiest out keeps one contended stretch from moving a run's medians.
pub fn least_contended<T>(units: Vec<T>, keep: usize, steal_frac: impl Fn(&T) -> f64) -> Vec<T> {
    let mut order: Vec<(usize, T)> = units.into_iter().enumerate().collect();
    order.sort_by(|a, b| steal_frac(&a.1).total_cmp(&steal_frac(&b.1)));
    order.truncate(keep);
    order.sort_by_key(|(i, _)| *i);
    order.into_iter().map(|(_, u)| u).collect()
}

/// SplitMix64: the seeded source of every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantile_stays_inside_the_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 1_000..2_000u64 {
            h.record(v);
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((512.0..=2047.0).contains(&p50), "{p50}");
        assert!(hist_quantile(&h, 0.99) >= p50);
    }

    #[test]
    fn probit_matches_normal_quantiles() {
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_963_985),
            (0.99, 2.326_347_874),
            (0.001, -3.090_232_306),
        ] {
            assert!((probit(p) - z).abs() < 1e-8, "probit({p}) = {}", probit(p));
        }
    }

    #[test]
    fn hist_quantile_recovers_a_log_normal_median() {
        // Log-normal samples with median 1000, bunched near the 1023
        // bucket edge: the estimate lands within 2% of the median.
        let mut h = LatencyHistogram::new();
        for i in 1..10_000 {
            let z = probit(i as f64 / 10_000.0);
            h.record((1000.0 * (0.2 * z).exp()) as u64);
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((p50 / 1000.0 - 1.0).abs() < 0.02, "{p50}");
    }

    #[test]
    fn least_contended_keeps_the_quietest_in_order() {
        let units = vec![(0, 0.3), (1, 0.0), (2, 0.1), (3, 0.0), (4, 0.2)];
        let kept = least_contended(units, 3, |u| u.1);
        assert_eq!(kept.iter().map(|u| u.0).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn percentile_and_median_agree_on_odd_counts() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&mut v, 0.5), 3.0);
    }
}
