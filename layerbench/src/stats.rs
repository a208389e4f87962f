//! Exact sample statistics: every timing quantile the benchmark prints is
//! computed from the raw samples, never from a bucketed histogram.

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// order statistics (Hyndman–Fan type 7, the NumPy and R default).
/// `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo]))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// A timing distribution as printed: median, 95th percentile and the
/// sample count they rest on.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub mean: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: samples.len(),
            p50: quantile(samples, 0.5)?,
            p95: quantile(samples, 0.95)?,
            mean: mean(samples)?,
        })
    }

    /// Samples strictly above the 95th percentile: the guide for whether a
    /// p95 rests on enough tail samples to mean anything.
    pub fn tail_samples(samples: &[f64], p95: f64) -> usize {
        samples.iter().filter(|&&s| s > p95).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_hand_computed_values() {
        // n = 4: h = 3q. q = 0.5 → h = 1.5 → 2 + 0.5·(3 − 2).
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.5));
        // q = 0.25 → h = 0.75 → 1 + 0.75·(2 − 1).
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.25), Some(1.75));
        // n = 20 (1..=20): q = 0.95 → h = 18.05 → 19 + 0.05·(20 − 19).
        let ramp: Vec<f64> = (1..=20).map(f64::from).collect();
        let p95 = quantile(&ramp, 0.95).unwrap();
        assert!((p95 - 19.05).abs() < 1e-12, "{p95}");
        // Odd count: the median is the middle order statistic exactly.
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        // Extremes are min and max; out-of-range q clamps.
        assert_eq!(quantile(&ramp, 0.0), Some(1.0));
        assert_eq!(quantile(&ramp, 1.0), Some(20.0));
        assert_eq!(quantile(&ramp, 7.0), Some(20.0));
        assert_eq!(quantile(&[42.0], 0.95), Some(42.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn summary_counts_its_samples() {
        let ramp: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&ramp).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        assert_eq!(s.mean, 100.5);
        // h = 199 · 0.95 = 189.05 → 190.05; ten samples (191..=200) above.
        assert!((s.p95 - 190.05).abs() < 1e-9);
        assert_eq!(Summary::tail_samples(&ramp, s.p95), 10);
    }
}
