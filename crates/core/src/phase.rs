//! The in-tree phase timer: what each stage of `tick()` costs in wall time.
//!
//! `tick()` reads `Instant::now()` once per phase boundary and folds each
//! span into a fixed log2 histogram — no allocation, nothing per task —
//! so the timer stays on in production and a slow tick can be attributed
//! without a profiler. The values are wall-clock and therefore not
//! deterministic: they are read through
//! [`AtroposRuntime::tick_phases`](crate::AtroposRuntime::tick_phases) and
//! never enter decision events or anything else golden-compared.

/// One stage of [`AtroposRuntime::tick`](crate::AtroposRuntime::tick), in
/// execution order. `Select` and `Actuate` run only on candidate ticks, so
/// they hold fewer samples than the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TickPhase {
    /// Replaying the buffered trace events into accounting.
    Drain,
    /// Closing the window on the visit set and counting in-flight units.
    Roll,
    /// The overload detector's evaluation of the closed window.
    Detect,
    /// Parking steady tasks and, on a candidate tick, bringing the policy
    /// index up to date (plus materializing the estimate for a recorder).
    Refresh,
    /// Algorithm 1 over the index, and the explanation pass when a
    /// recorder is attached.
    Select,
    /// The cancel manager: safeguards, the initiator callback, propagation.
    Actuate,
}

impl TickPhase {
    /// Every phase, in execution order.
    pub const ALL: [TickPhase; 6] = [
        TickPhase::Drain,
        TickPhase::Roll,
        TickPhase::Detect,
        TickPhase::Refresh,
        TickPhase::Select,
        TickPhase::Actuate,
    ];

    /// The phase's metric label.
    pub fn name(self) -> &'static str {
        match self {
            TickPhase::Drain => "drain",
            TickPhase::Roll => "roll",
            TickPhase::Detect => "detect",
            TickPhase::Refresh => "refresh",
            TickPhase::Select => "select",
            TickPhase::Actuate => "actuate",
        }
    }
}

/// Log2 buckets per phase: bucket `i` counts spans in `[2^i, 2^(i+1))` ns
/// (bucket 0 also holds zero).
pub const PHASE_BUCKETS: usize = 64;

/// Per-phase span histograms and sums since the runtime was built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickPhases {
    buckets: [[u64; PHASE_BUCKETS]; TickPhase::ALL.len()],
    sum_ns: [u64; TickPhase::ALL.len()],
}

impl Default for TickPhases {
    fn default() -> Self {
        TickPhases {
            buckets: [[0; PHASE_BUCKETS]; TickPhase::ALL.len()],
            sum_ns: [0; TickPhase::ALL.len()],
        }
    }
}

impl TickPhases {
    pub(crate) fn record(&mut self, phase: TickPhase, ns: u64) {
        let bucket = 63usize.saturating_sub(ns.leading_zeros() as usize);
        self.buckets[phase as usize][bucket] += 1;
        self.sum_ns[phase as usize] += ns;
    }

    /// The phase's log2 histogram.
    pub fn buckets(&self, phase: TickPhase) -> &[u64; PHASE_BUCKETS] {
        &self.buckets[phase as usize]
    }

    /// Spans recorded for the phase.
    pub fn count(&self, phase: TickPhase) -> u64 {
        self.buckets[phase as usize].iter().sum()
    }

    /// Total wall time spent in the phase (ns).
    pub fn sum_ns(&self, phase: TickPhase) -> u64 {
        self.sum_ns[phase as usize]
    }

    /// What was recorded after `earlier` was read from the same runtime.
    pub fn since(&self, earlier: &TickPhases) -> TickPhases {
        let mut out = self.clone();
        for p in 0..TickPhase::ALL.len() {
            out.sum_ns[p] -= earlier.sum_ns[p];
            for (b, e) in out.buckets[p].iter_mut().zip(&earlier.buckets[p]) {
                *b -= e;
            }
        }
        out
    }
}

/// The tick's stopwatch: one `Instant` read per phase boundary.
pub(crate) struct PhaseTimer(std::time::Instant);

impl PhaseTimer {
    pub(crate) fn start() -> Self {
        PhaseTimer(std::time::Instant::now())
    }

    /// Ends `phase` now and starts the next one at the same instant.
    pub(crate) fn lap(&mut self, phases: &mut TickPhases, phase: TickPhase) {
        let now = std::time::Instant::now();
        phases.record(phase, (now - self.0).as_nanos() as u64);
        self.0 = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_their_log2_bucket() {
        let mut p = TickPhases::default();
        for ns in [0, 1, 2, 3, 1024, 1 << 63] {
            p.record(TickPhase::Roll, ns);
        }
        let b = p.buckets(TickPhase::Roll);
        assert_eq!((b[0], b[1], b[10], b[63]), (2, 2, 1, 1));
        assert_eq!(p.count(TickPhase::Roll), 6);
        assert_eq!(p.count(TickPhase::Drain), 0);
    }

    #[test]
    fn since_subtracts_an_earlier_reading() {
        let mut p = TickPhases::default();
        p.record(TickPhase::Detect, 100);
        let before = p.clone();
        p.record(TickPhase::Detect, 300);
        p.record(TickPhase::Select, 7);
        let d = p.since(&before);
        assert_eq!(d.count(TickPhase::Detect), 1);
        assert_eq!(d.sum_ns(TickPhase::Detect), 300);
        assert_eq!(d.sum_ns(TickPhase::Select), 7);
    }
}
