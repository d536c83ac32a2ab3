//! The open-loop arrival schedule of the two serving workloads, made from the
//! seed alone: Poisson victims and culprits on a jittered period.

use atropos_sim::SimRng;

pub const MS: u64 = 1_000_000;

/// Each culprit is pushed out from its nominal slot by a seeded
/// U[0, `CULPRIT_JITTER_NS`) so the tick phase it lands on is sampled, not
/// pinned.
pub const CULPRIT_JITTER_NS: u64 = 50 * MS;
/// No culprit is due this close to the end of the load, so its whole episode
/// (≈100 ms) is measured.
const CULPRIT_TAIL_GUARD_NS: u64 = 400 * MS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the schedule.
    pub due_ns: u64,
    pub culprit: bool,
}

/// Victims arrive as a Poisson process of mean gap `mean_gap_ns` over
/// `[0, warm_ns + load_ns)`; culprits every `culprit_every_ns` (plus jitter)
/// inside the measured part only. Arrivals come back in due order.
pub fn serving(
    seed: u64,
    mean_gap_ns: u64,
    culprit_every_ns: u64,
    warm_ns: u64,
    load_ns: u64,
) -> Vec<Arrival> {
    let mut root = SimRng::new(seed);
    let (mut victims, mut culprits) = (root.fork(1), root.fork(2));
    let end = warm_ns + load_ns;
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += victims.exp(mean_gap_ns as f64);
        if t as u64 >= end {
            break;
        }
        arrivals.push(Arrival {
            due_ns: t as u64,
            culprit: false,
        });
    }
    let mut slot = warm_ns + culprit_every_ns / 3;
    while slot + CULPRIT_JITTER_NS + CULPRIT_TAIL_GUARD_NS <= end {
        arrivals.push(Arrival {
            due_ns: slot + culprits.below(CULPRIT_JITTER_NS),
            culprit: true,
        });
        slot += culprit_every_ns;
    }
    arrivals.sort_by_key(|a| a.due_ns);
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = serving(7, 2 * MS, 300 * MS, 500 * MS, 5_000 * MS);
        assert_eq!(a, serving(7, 2 * MS, 300 * MS, 500 * MS, 5_000 * MS));
        assert_ne!(a, serving(8, 2 * MS, 300 * MS, 500 * MS, 5_000 * MS));
    }

    #[test]
    fn schedule_has_the_stated_shape() {
        let (every, warm, load) = (300 * MS, 500 * MS, 5_000 * MS);
        let a = serving(42, 2 * MS, every, warm, load);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let victims = a.iter().filter(|x| !x.culprit).count() as f64;
        let expected = (warm + load) as f64 / (2 * MS) as f64;
        assert!((victims - expected).abs() < 4.0 * expected.sqrt());
        let culprits: Vec<u64> = a.iter().filter(|x| x.culprit).map(|x| x.due_ns).collect();
        assert_eq!(culprits.len(), 15);
        assert!(culprits[0] >= warm && *culprits.last().unwrap() + 400 * MS <= warm + load);
        for (i, due) in culprits.iter().enumerate() {
            let slot = warm + every / 3 + i as u64 * every;
            assert!((slot..slot + CULPRIT_JITTER_NS).contains(due));
        }
        // A warm-up-only schedule carries no culprit.
        assert!(serving(42, 2 * MS, every, warm, 0)
            .iter()
            .all(|x| !x.culprit));
    }
}
