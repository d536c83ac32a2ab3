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
    /// End-to-end latency SLO in nanoseconds (the quantile below must stay
    /// under this bound).
    pub slo_latency_ns: u64,
    /// Which latency quantile the SLO applies to (the paper uses p99).
    pub latency_quantile: f64,
    /// Throughput is considered "flat" if its relative window-over-window
    /// change is below this threshold while latency violates the SLO.
    pub throughput_flat_epsilon: f64,
    /// Minimum per-resource raw contention level for the estimator to
    /// confirm a *resource* overload (vs. regular overload).
    pub min_contention: f64,
    /// A candidate is also raised when the latest window's completions
    /// fall this fraction below the recent-history mean while work is in
    /// flight (a partial convoy's victims complete only after release, so
    /// the latency signal alone is too slow).
    pub throughput_drop_frac: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            window_ns: 10_000_000, // 10 ms — decisions at fine granularity (§3.4)
            history: 16,
            slo_latency_ns: 50_000_000, // 50 ms; experiments override this
            latency_quantile: 99.0,
            throughput_flat_epsilon: 0.05,
            min_contention: 0.35,
            throughput_drop_frac: 0.25,
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
    /// Interval of timestamp sampling under normal load (§3.2). Events
    /// within one interval share a timestamp; under overload the runtime
    /// switches to precise per-event timestamps.
    pub sample_interval_ns: u64,
    /// Number of task-sharded ingest rings
    /// ([`LockFreeIngest`](crate::lockfree::LockFreeIngest); rounded up
    /// to a power of two). More rings reduce producer contention; the
    /// drain replays them all.
    pub ingest_stripes: usize,
    /// Per-ring record capacity. A full ring triggers a mid-window
    /// flush, or sheds the incoming record if the runtime state is busy.
    pub ingest_stripe_capacity: usize,
    /// Number of consecutive overload-free windows after which canceled
    /// tasks are re-executed ("sustained resource availability", §4).
    pub reexec_quiet_windows: u32,
    /// Deadline after cancellation by which a task must be re-executed or
    /// it is dropped for missing its SLO (ns).
    pub reexec_deadline_ns: u64,
    /// Maximum wait for canceled *background* tasks, after which
    /// re-execution is forced regardless of load (ns).
    pub background_max_wait_ns: u64,
    /// Enables the coarse, potentially unsafe thread-level cancellation
    /// path (§3.6, the `pthread_cancel` analog). Off by default; only
    /// tasks explicitly marked as safe for it are affected.
    pub allow_thread_level_cancel: bool,
    /// Floor applied to task progress when scaling gains by
    /// `(1 - p) / p`, bounding the future-usage multiplier.
    pub progress_floor: f64,
    /// Progress assumed for tasks that never report progress.
    pub default_progress: f64,
}

impl Default for AtroposConfig {
    fn default() -> Self {
        Self {
            detector: DetectorConfig::default(),
            policy: PolicyKind::MultiObjective,
            cancel_min_interval_ns: 50_000_000, // 50 ms
            sample_interval_ns: 1_000_000,      // 1 ms
            ingest_stripes: 8,
            ingest_stripe_capacity: 4096,
            reexec_quiet_windows: 100, // 1 s of sustained availability
            reexec_deadline_ns: 800_000_000, // 0.8 s, then the task is dropped
            background_max_wait_ns: 10_000_000_000, // 10 s
            allow_thread_level_cancel: false,
            progress_floor: 0.02,
            default_progress: 0.5,
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
        if !(0.0..=100.0).contains(&self.detector.latency_quantile) {
            return Err("detector.latency_quantile must be in [0, 100]".into());
        }
        if !(1..=1024).contains(&self.ingest_stripes) {
            return Err("ingest_stripes must be in 1..=1024".into());
        }
        if self.ingest_stripe_capacity < 8 {
            return Err("ingest_stripe_capacity must be at least 8".into());
        }
        if self.progress_floor <= 0.0 || self.progress_floor >= 1.0 {
            return Err("progress_floor must be in (0, 1)".into());
        }
        if self.default_progress <= 0.0 || self.default_progress > 1.0 {
            return Err("default_progress must be in (0, 1]".into());
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

    #[test]
    fn validate_rejects_bad_quantile_and_progress() {
        let mut c = AtroposConfig::default();
        c.detector.latency_quantile = 150.0;
        assert!(c.validate().is_err());
        let c = AtroposConfig {
            progress_floor: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = AtroposConfig {
            default_progress: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
