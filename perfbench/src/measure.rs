//! The benchmark's own arithmetic: medians, supported percentiles, ratios
//! with their base, and span self time. Kept free of I/O so the tests
//! below pin it exactly.

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile of `xs` (`p` in `(0, 1)`), reported only when
/// at least [`MIN_BEYOND`] samples lie beyond its rank. `None` otherwise:
/// a p90 over 50 samples would rest on 5 values.
pub fn supported_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must be in (0, 1)");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// `num / base`, or 0 when the base is 0 (a ratio of nothing to nothing,
/// e.g. no timer ever armed).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// covered by the union of `children` (each `[start, end)`, clipped to the
/// parent, overlaps counted once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples 1..=100: nearest-rank p90 is 90 with 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&xs, 0.9), Some(90.0));
        // 99 samples: rank 90 leaves only 9 beyond.
        assert_eq!(supported_percentile(&xs[..99], 0.9), None);
        // p50 over 21 samples has exactly 10 beyond; over 20 it has 10
        // beyond rank 10 as well, but 19 leaves 9.
        let ys: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(supported_percentile(&ys, 0.5), Some(11.0));
        assert_eq!(supported_percentile(&ys[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&ys[..19], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(supported_percentile(&xs, 0.9), Some(180.0));
        assert_eq!(supported_percentile(&xs, 0.5), Some(100.0));
    }

    #[test]
    fn ratios_with_their_base() {
        // timer.suppress_ratio: stale re-arms over arms.
        assert_eq!(ratio(750.0, 1000.0), 0.75);
        // net.events_per_hop: events popped over hop-counted packets.
        assert_eq!(ratio(9_000.0, 2_000.0), 4.5);
        // shard.speedup: serial run seconds over sharded run seconds.
        assert_eq!(ratio(3.0, 2.0), 1.5);
        // An empty base reads as 0, never NaN or infinity.
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        // No children: the whole span.
        assert_eq!(self_time(10, 110, &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping and nested children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 50), (25, 30)]), 60);
        // Children outside the parent are clipped.
        assert_eq!(self_time(100, 200, &[(50, 120), (190, 300)]), 70);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
        // Unsorted input; touching intervals merge.
        assert_eq!(self_time(0, 100, &[(60, 70), (0, 10), (10, 20)]), 70);
    }
}
