//! Order statistics and span arithmetic.

/// The `q`-quantile (`q` in `[0, 1]`) of `xs`, interpolating linearly
/// between the two closest ranks (the rule of NumPy's default and of
/// `statistics.quantiles(method="inclusive")`). Zero for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// `num / den`, or zero when the denominator is zero or either side is
/// not finite: every ratio the benchmark prints must be a JSON number.
pub fn ratio(num: f64, den: f64) -> f64 {
    let r = num / den;
    if den == 0.0 || !r.is_finite() {
        0.0
    } else {
        r
    }
}

/// Nanoseconds of `[lo, hi)` covered by the union of `intervals`
/// (half-open `(start, end)` pairs, in any order, possibly overlapping).
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time of the span `[lo, hi)`: its duration minus the part of it
/// that its child spans cover.
pub fn self_time(lo: u64, hi: u64, children: &[(u64, u64)]) -> u64 {
    hi.saturating_sub(lo) - covered(children, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_of_one_to_ten_matches_inclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4, method="inclusive")
        // gives [3.25, 5.5, 7.75].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.25), 3.25);
        assert_eq!(percentile(&xs, 0.5), 5.5);
        assert_eq!(percentile(&xs, 0.75), 7.75);
    }

    #[test]
    fn ratio_guards_zero_and_non_finite() {
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(f64::INFINITY, 1.0), 0.0);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(&[], 0, 100), 0);
        // Disjoint.
        assert_eq!(covered(&[(10, 20), (30, 40)], 0, 100), 20);
        // Overlapping and nested, out of order.
        assert_eq!(covered(&[(30, 60), (10, 40), (35, 45)], 0, 100), 50);
        // Touching intervals merge without double counting.
        assert_eq!(covered(&[(10, 20), (20, 30)], 0, 100), 20);
        // Clipped to the window, and intervals outside it vanish.
        assert_eq!(covered(&[(0, 50), (90, 200), (300, 400)], 20, 100), 40);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two parallel kernels overlapping in [40, 60): union is [20, 80).
        assert_eq!(self_time(0, 100, &[(20, 60), (40, 80)]), 40);
        assert_eq!(self_time(0, 100, &[]), 100);
        // A child spilling past the parent is clipped, never negative.
        assert_eq!(self_time(10, 20, &[(0, 30)]), 0);
    }
}
