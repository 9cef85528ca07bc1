//! Order statistics and span arithmetic used by every report.
//!
//! Percentiles follow the choosing-metrics rule: a tail percentile is
//! only reported when at least ten samples lie beyond it, so `p99` needs
//! a thousand samples. Quartiles reproduce Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method),
//! so spreads printed here match the ones computed over many runs.

/// Smallest number of samples that must lie strictly beyond a reported
/// tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0–100) of `sorted` (ascending), or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = rank_of(q, n);
    (n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Nearest rank (1-based) of percentile `q` among `n` samples, in exact
/// per-mille integer arithmetic so `p99.9` of 10 000 samples is rank 9 990.
fn rank_of(q: f64, n: usize) -> usize {
    let permille = (q * 10.0).round() as usize;
    ((permille * n).div_ceil(1000)).clamp(1, n)
}

/// The highest of the usual tail percentiles that `n` samples support
/// (at least [`MIN_TAIL_SAMPLES`] beyond it), if any.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&q| n > 0 && n - rank_of(q, n) >= MIN_TAIL_SAMPLES)
}

/// Samples per latency window: the fewest whole deck passes whose p99
/// still has ten samples beyond it (13 × 80 = 1040). Each window then
/// holds every payload of the deck exactly 13 times, so its percentiles
/// do not move with the mix.
pub const WINDOW: usize = 13 * crate::workload::PASS;

/// Percentile `q` of each consecutive [`WINDOW`] of `samples` (in the
/// order they were taken; a partial tail window is dropped), then the
/// [`interquartile_mean`] over windows. A burst of outside interference
/// then moves the few windows it lands in, not the reported figure.
pub fn windowed(samples: &[f64], q: f64) -> Option<f64> {
    let per_window: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .filter_map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, q)
        })
        .collect();
    interquartile_mean(&per_window)
}

/// Mean of the middle half of `values`: the lowest and the highest
/// quarter (rounded down) are dropped (`None` when empty). Used instead
/// of the median to summarize a run's rounds or windows: the host this
/// benchmark was built on alternates between a fast and a ~1.4× slower
/// phase lasting seconds, and a median over rounds reports whichever
/// phase held the majority, jumping between the two from run to run,
/// where this mean moves with each phase's share of the run and still
/// drops isolated outliers.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Median by the usual midpoint rule (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (needs two values).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A span's self time: its duration minus the part of `[start, end)`
/// that the union of its children's intervals covers. Children may
/// overlap one another and may reach outside the parent (another
/// thread's clock read); only the covered part inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 99.0), Some(1980.0));
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn supported_tail_is_the_highest_with_ten_beyond() {
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windowed_percentile_is_the_interquartile_mean_over_full_windows() {
        // Four windows: 1..=WINDOW shifted by 0, 10 000, 20 000 and
        // 1 000 000; the partial fifth window is ignored, and the middle
        // half of the four is the second and third.
        let mut samples: Vec<f64> = Vec::new();
        for shift in [0.0, 10_000.0, 20_000.0, 1e6] {
            samples.extend(ramp(WINDOW).into_iter().rev().map(|v| v + shift));
        }
        samples.extend(vec![1e9; WINDOW - 1]);
        let rank = |q: f64| (q * WINDOW as f64 / 100.0).ceil();
        assert_eq!(windowed(&samples, 99.0), Some(15_000.0 + rank(99.0)));
        assert_eq!(windowed(&samples, 50.0), Some(15_000.0 + rank(50.0)));
        assert_eq!(windowed(&samples[..WINDOW - 1], 50.0), None);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 4.0, -50.0]), Some(3.0));
        // Eight values: two dropped at each end.
        let v = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -9.0];
        assert_eq!(interquartile_mean(&v), Some(3.5));
        // Fewer than four: nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // A child reaching outside the parent only covers its inside.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Nested and unordered children.
        assert_eq!(self_time(0, 100, &[(60, 90), (20, 30), (22, 28)]), 60);
        // Fully covered.
        assert_eq!(self_time(5, 9, &[(0, 100)]), 0);
    }
}
