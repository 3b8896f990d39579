//! Order statistics over latency samples.

use std::time::{Duration, Instant};

/// The `p`-th percentile (0–100) of `samples` by nearest rank on the
/// sorted samples, or `None` when there are none. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (p / 100.0 * (samples.len() - 1) as f64).round() as usize;
    Some(samples[rank.min(samples.len() - 1)])
}

/// The median of `samples` (the mean of the two middle values for an
/// even count), or `None` when there are none. Sorts in place.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    Some(if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    })
}

/// Splits the time from `start` into stretches of `window`, applies `f`
/// to the values of every stretch holding at least `min` of them, and
/// returns the `q`-th percentile of the results. Falls back to `f` over
/// all values when fewer than three stretches qualify.
pub fn windowed(
    samples: &[(Instant, f64)],
    start: Instant,
    window: Duration,
    min: usize,
    q: f64,
    f: impl Fn(&mut [f64]) -> Option<f64>,
) -> Option<f64> {
    let mut by_window: std::collections::BTreeMap<u128, Vec<f64>> = Default::default();
    for (at, v) in samples {
        let w = at.saturating_duration_since(start).as_nanos() / window.as_nanos();
        by_window.entry(w).or_default().push(*v);
    }
    let mut results: Vec<f64> = by_window
        .into_values()
        .filter(|v| v.len() >= min)
        .filter_map(|mut v| f(&mut v))
        .collect();
    if results.len() < 3 {
        let mut all: Vec<f64> = samples.iter().map(|(_, v)| *v).collect();
        return f(&mut all);
    }
    percentile(&mut results, q)
}

/// Events per second: the `q`-th percentile over the whole `window`s
/// from `start` to `end` of how many events each holds, or the overall
/// rate when fewer than three windows fit.
pub fn windowed_rate(
    events: &[Instant],
    start: Instant,
    end: Instant,
    window: Duration,
    q: f64,
) -> f64 {
    let whole = (end.saturating_duration_since(start).as_nanos() / window.as_nanos()) as usize;
    if whole < 3 {
        return events.len() as f64 / end.saturating_duration_since(start).as_secs_f64();
    }
    let mut counts = vec![0.0; whole];
    for at in events {
        let w = (at.saturating_duration_since(start).as_nanos() / window.as_nanos()) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1.0;
        }
    }
    percentile(&mut counts, q).expect("at least three windows") / window.as_secs_f64()
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut v, 50.0), Some(51.0));
        assert_eq!(percentile(&mut v, 90.0), Some(90.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut [7.5], 90.0), Some(7.5));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn windowed_takes_the_median_over_full_enough_windows() {
        let t0 = Instant::now();
        let s = |ms: u64, v: f64| (t0 + Duration::from_millis(ms), v);
        let w = Duration::from_secs(1);
        let p50 = |v: &mut [f64]| percentile(v, 50.0);
        // Windows 0, 1 and 3 hold two samples; window 2 one, which is
        // too few and left out; window 3 is disturbed.
        let samples = [
            s(10, 1.0),
            s(20, 1.0),
            s(1010, 2.0),
            s(1020, 2.0),
            s(2010, 50.0),
            s(3010, 90.0),
            s(3020, 90.0),
        ];
        assert_eq!(windowed(&samples, t0, w, 2, 50.0, p50), Some(2.0));
        assert_eq!(windowed(&samples, t0, w, 2, 0.0, p50), Some(1.0));
        assert_eq!(windowed(&samples, t0, w, 2, 100.0, p50), Some(90.0));
        // Fewer than three qualifying windows: all samples together.
        assert_eq!(windowed(&samples[..4], t0, w, 2, 50.0, p50), Some(2.0));
        assert_eq!(windowed(&samples[..3], t0, w, 2, 50.0, p50), Some(1.0));
        assert_eq!(windowed(&[], t0, w, 2, 50.0, p50), None);
    }

    #[test]
    fn windowed_rate_counts_whole_windows_only() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let w = Duration::from_millis(100);
        // Windows hold 3, 1, 2 and 3 events; the tail past 400 ms is not
        // a whole window.
        let events: Vec<Instant> = [5, 10, 20, 150, 210, 220, 305, 310, 320, 430]
            .into_iter()
            .map(at)
            .collect();
        assert_eq!(windowed_rate(&events, t0, at(450), w, 50.0), 30.0);
        assert_eq!(windowed_rate(&events, t0, at(450), w, 0.0), 10.0);
        assert_eq!(windowed_rate(&events, t0, at(250), w, 50.0), 40.0);
    }

    #[test]
    fn microseconds_keep_fractions() {
        assert_eq!(us(Duration::from_nanos(1_500)), 1.5);
    }
}
