//! Order statistics, exact-count comparison and span self-time.

use crate::trace::Span;
use std::collections::BTreeMap;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the driver's rule).
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The sample at quantile `q` (nearest rank: the smallest sample with
/// at least `q` of the samples at or below it).
pub fn percentile_of(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let ascending = sorted(samples);
    let rank = (q * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// The highest of 50 %, 90 %, 99 %, 99.9 %, 99.99 % that still has at
/// least ten samples beyond it; `None` below twenty samples.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    // (quantile, one sample in this many lies beyond it)
    [
        (0.9999, 10_000),
        (0.999, 1000),
        (0.99, 100),
        (0.9, 10),
        (0.5, 2),
    ]
    .into_iter()
    .find(|(_, one_in)| samples >= 10 * one_in)
    .map(|(q, _)| q)
}

/// Whether every repetition produced exactly the same counts.
pub fn counts_repeat<T: PartialEq>(repetitions: &[T]) -> bool {
    repetitions.windows(2).all(|w| w[0] == w[1])
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part of it that its child spans cover, summed over the spans of a
/// layer. Children of one parent never overlap (one driver thread), so
/// the covered part is the sum of their durations.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        *by_layer.entry(span.layer()).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_of(&v, 0.5), 500.0);
        assert_eq!(percentile_of(&v, 0.99), 990.0);
        assert_eq!(percentile_of(&v, 1.0), 1000.0);
        assert_eq!(percentile_of(&v, 0.0), 1.0);
        assert_eq!(percentile_of(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(400_000), Some(0.9999));
    }

    #[test]
    fn counts_must_repeat_exactly() {
        assert!(counts_repeat(&[(3u64, 7u64), (3, 7), (3, 7)]));
        assert!(!counts_repeat(&[(3u64, 7u64), (3, 8)]));
        assert!(counts_repeat::<u64>(&[]));
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        };
        let spans = [
            span("node.run", 0, 100, None),
            span("wire.encode", 10, 30, Some(0)),
            span("store.append", 40, 70, Some(0)),
            span("wire.crc", 45, 50, Some(2)),
            span("node.meet", 200, 210, None),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["node"], 100 - 20 - 30 + 10);
        assert_eq!(by_layer["wire"], 20 + 5);
        assert_eq!(by_layer["store"], 30 - 5);
    }
}
