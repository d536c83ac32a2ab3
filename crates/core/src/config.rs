//! Runtime configuration.

use serde::{Deserialize, Serialize};

/// Which cancellation policy the runtime uses (§3.5 and the §5.4 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Algorithm 1: non-dominated set + contention-weighted scalarization
    /// over future-scaled resource gains. The paper's default.
    MultiObjective,
    /// Ablation baseline 1 (§5.4): cancel the task with the highest gain on
    /// the single most contended resource.
    Heuristic,
    /// Ablation baseline 2 (§5.4): multi-objective, but gains use *current*
    /// resource usage instead of predicted future usage.
    CurrentUsage,
}

/// Overload-detector parameters (§3.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Width of a detection window in nanoseconds.
    pub window_ns: u64,
    /// How many closed windows of history the detector examines.
    pub history: usize,
    /// End-to-end latency SLO in nanoseconds: the
    /// [`LATENCY_QUANTILE`](crate::detect::LATENCY_QUANTILE) must stay
    /// under this bound.
    pub slo_latency_ns: u64,
    /// Minimum per-resource raw contention level for the estimator to
    /// confirm a *resource* overload (vs. regular overload).
    pub min_contention: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            window_ns: 10_000_000, // 10 ms — decisions at fine granularity (§3.4)
            history: 16,
            slo_latency_ns: 50_000_000, // 50 ms; experiments override this
            min_contention: 0.35,
        }
    }
}

/// Top-level Atropos configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AtroposConfig {
    /// Detector parameters.
    pub detector: DetectorConfig,
    /// Cancellation policy.
    pub policy: PolicyKind,
    /// Minimum interval between consecutive cancellations (ns). The paper
    /// (§5.3) enforces "a small time interval between consecutive
    /// cancellations" to avoid excessive termination; this is the
    /// aggressiveness/recovery trade-off behind the two missed-SLO cases.
    pub cancel_min_interval_ns: u64,
    /// Number of task-sharded ingest rings
    /// ([`LockFreeIngest`](crate::lockfree::LockFreeIngest); rounded up
    /// to a power of two). More rings reduce producer contention; the
    /// drain replays them all.
    pub ingest_stripes: usize,
    /// Per-ring record capacity. A full ring triggers a mid-window
    /// flush, or sheds the incoming record if the runtime state is busy.
    pub ingest_stripe_capacity: usize,
}

impl Default for AtroposConfig {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::default(),
            policy: PolicyKind::MultiObjective,
            cancel_min_interval_ns: 50_000_000, // 50 ms
            ingest_stripes: 8,
            ingest_stripe_capacity: 4096,
        }
    }
}

impl AtroposConfig {
    /// Sets the latency SLO, the signal every experiment varies (Fig. 12).
    pub fn with_slo_ns(mut self, slo_ns: u64) -> Self {
        self.detector.slo_latency_ns = slo_ns;
        self
    }

    /// Sets the cancellation policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Validates internal consistency.
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.detector.window_ns == 0 {
            return Err("detector.window_ns must be positive".into());
        }
        if self.detector.history < 2 {
            return Err("detector.history must be at least 2".into());
        }
        if !(1..=1024).contains(&self.ingest_stripes) {
            return Err("ingest_stripes must be in 1..=1024".into());
        }
        if self.ingest_stripe_capacity < 8 {
            return Err("ingest_stripe_capacity must be at least 8".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(AtroposConfig::default().validate().is_ok());
    }

    #[test]
    fn builders_apply() {
        let c = AtroposConfig::default()
            .with_slo_ns(123)
            .with_policy(PolicyKind::Heuristic);
        assert_eq!(c.detector.slo_latency_ns, 123);
        assert_eq!(c.policy, PolicyKind::Heuristic);
    }

    #[test]
    fn validate_rejects_zero_window() {
        let mut c = AtroposConfig::default();
        c.detector.window_ns = 0;
        assert!(c.validate().unwrap_err().contains("window_ns"));
    }

    #[test]
    fn validate_rejects_short_history() {
        let mut c = AtroposConfig::default();
        c.detector.history = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_ingest_shape() {
        let c = AtroposConfig {
            ingest_stripes: 0,
            ..Default::default()
        };
        assert!(c.validate().unwrap_err().contains("ingest_stripes"));
        let c = AtroposConfig {
            ingest_stripes: 4096,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AtroposConfig {
            ingest_stripe_capacity: 4,
            ..Default::default()
        };
        assert!(c.validate().unwrap_err().contains("stripe_capacity"));
    }
}
