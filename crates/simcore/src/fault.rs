//! Seeded fault-decision hooks for chaos testing.
//!
//! The chaos harness (`atropos-chaos`) perturbs the Atropos event
//! protocol — dropping frees, delaying ingest batches, failing cancel
//! initiators, skewing tick timing — and every perturbation must be a
//! pure function of the run seed so a failing fault plan replays
//! bit-for-bit. This module provides the two seeded primitives the
//! injector builds on:
//!
//! - [`FaultSite`]: one place faults can fire, with a firing probability
//!   and a budget (maximum number of firings), drawn against a
//!   [`SimRng`] sub-stream forked per site so adding a site never
//!   perturbs another site's decisions;
//! - [`TickJitter`]: a bounded, seeded skew applied to tick timing.
//!
//! Keeping these in the simulation kernel (rather than the chaos crate)
//! mirrors how the workload samplers live here: anything that consumes
//! randomness during a deterministic run must come from the kernel's
//! seed-stable streams.

use crate::rng::SimRng;

/// One fault-injection site: fires with `probability` per decision, at
/// most `budget` times over the run.
///
/// Each site forks its own RNG sub-stream, so decision sequences are
/// independent across sites and stable when sites are added or removed —
/// the property fault-plan shrinking relies on (removing one fault from a
/// plan must not re-randomize the remaining faults).
#[derive(Debug, Clone)]
pub struct FaultSite {
    rng: SimRng,
    probability: f64,
    budget: u64,
    fired: u64,
    decisions: u64,
}

impl FaultSite {
    /// Creates a site on its own sub-stream of `root`, identified by
    /// `stream` (use a distinct constant per fault kind).
    pub fn new(root: &mut SimRng, stream: u64, probability: f64, budget: u64) -> Self {
        Self {
            rng: root.fork(stream),
            probability,
            budget,
            fired: 0,
            decisions: 0,
        }
    }

    /// A site that never fires (the identity fault).
    pub fn disabled() -> Self {
        Self {
            rng: SimRng::new(0),
            probability: 0.0,
            budget: 0,
            fired: 0,
            decisions: 0,
        }
    }

    /// Decides whether the fault fires at this call site.
    ///
    /// Always consumes one RNG draw (even when the budget is exhausted),
    /// so the decision sequence for call `n` depends only on the seed and
    /// `n` — not on how many earlier calls fired.
    pub fn fires(&mut self) -> bool {
        self.decisions += 1;
        let hit = self.rng.chance(self.probability);
        if hit && self.fired < self.budget {
            self.fired += 1;
            return true;
        }
        false
    }

    /// Firings so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Decisions taken so far (firing or not).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

/// Seeded bounded jitter for tick timing: each sample is a skew in
/// `[0, max_skew_ns]` added to the nominal tick period.
///
/// Skew is additive-only (ticks fire late, never early): a supervisor
/// that is descheduled ticks late, but no real supervisor ticks before
/// its timer — and under a virtual clock a negative skew would mean time
/// running backwards.
#[derive(Debug, Clone)]
pub struct TickJitter {
    rng: SimRng,
    max_skew_ns: u64,
}

impl TickJitter {
    /// Creates a jitter source on its own sub-stream of `root`.
    pub fn new(root: &mut SimRng, stream: u64, max_skew_ns: u64) -> Self {
        Self {
            rng: root.fork(stream),
            max_skew_ns,
        }
    }

    /// A jitter source that always returns zero skew.
    pub fn disabled() -> Self {
        Self {
            rng: SimRng::new(0),
            max_skew_ns: 0,
        }
    }

    /// Samples the skew for the next tick (0 when disabled).
    pub fn next_skew_ns(&mut self) -> u64 {
        if self.max_skew_ns == 0 {
            return 0;
        }
        self.rng.below(self.max_skew_ns + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_is_deterministic_per_seed_and_stream() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut root = SimRng::new(seed);
            let mut site = FaultSite::new(&mut root, 1, 0.5, u64::MAX);
            (0..64).map(|_| site.fires()).collect()
        };
        assert_eq!(decide(7), decide(7));
        assert_ne!(decide(7), decide(8), "different seeds, different stream");
    }

    #[test]
    fn sites_are_independent_across_streams() {
        // Adding draws to one site must not change another site's stream.
        let mut root_a = SimRng::new(3);
        let mut a1 = FaultSite::new(&mut root_a, 1, 0.5, u64::MAX);
        let a2 = FaultSite::new(&mut root_a, 2, 0.5, u64::MAX);
        let mut root_b = SimRng::new(3);
        let mut b1 = FaultSite::new(&mut root_b, 1, 0.5, u64::MAX);
        for _ in 0..100 {
            b1.fires(); // extra draws on site 1 only
        }
        let b2 = FaultSite::new(&mut root_b, 2, 0.5, u64::MAX);
        let seq = |mut s: FaultSite| -> Vec<bool> { (0..32).map(|_| s.fires()).collect() };
        assert_eq!(seq(a2), seq(b2));
        let _ = a1.fires();
    }

    #[test]
    fn budget_caps_firings_without_desyncing_the_stream() {
        let mut root = SimRng::new(11);
        let mut capped = FaultSite::new(&mut root, 1, 1.0, 3);
        let fires: Vec<bool> = (0..10).map(|_| capped.fires()).collect();
        assert_eq!(fires.iter().filter(|f| **f).count(), 3);
        assert_eq!(capped.fired(), 3);
        assert_eq!(capped.decisions(), 10);
        // First `budget` decisions fire (p = 1.0), the rest are suppressed.
        assert_eq!(&fires[..3], &[true, true, true]);
        assert!(fires[3..].iter().all(|f| !f));
    }

    #[test]
    fn disabled_site_never_fires() {
        let mut s = FaultSite::disabled();
        assert!((0..100).all(|_| !s.fires()));
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let sample = |seed: u64| -> Vec<u64> {
            let mut root = SimRng::new(seed);
            let mut j = TickJitter::new(&mut root, 9, 5_000);
            (0..64).map(|_| j.next_skew_ns()).collect()
        };
        let a = sample(5);
        assert_eq!(a, sample(5));
        assert!(a.iter().all(|&s| s <= 5_000));
        assert!(a.iter().any(|&s| s > 0));
        let mut off = TickJitter::disabled();
        assert_eq!(off.next_skew_ns(), 0);
    }
}
