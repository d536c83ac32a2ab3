//! Small numeric helpers shared by the detector and the experiment harness.

/// Arithmetic mean of a slice, or 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentile (0–100) of an *unsorted* slice by nearest-rank, or 0 if empty.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1]
}

/// Exponentially weighted moving average.
///
/// Used by the overload detector to smooth throughput/latency windows and by
/// DARC's per-class service-time profiles.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in (0, 1].
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in (0, 1].
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { alpha, value: None }
    }

    /// Feeds one observation and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// Current average, or `None` before the first observation.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Discards all state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn ewma_first_sample_is_identity() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.get(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.get(), Some(10.0));
    }

    #[test]
    fn ewma_converges_toward_constant_input() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        for _ in 0..50 {
            e.update(100.0);
        }
        assert!((e.get().unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn ewma_reset_clears_state() {
        let mut e = Ewma::new(0.3);
        e.update(7.0);
        e.reset();
        assert_eq!(e.get(), None);
    }
}
