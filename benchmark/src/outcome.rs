//! What one workload run hands back to `main`, and the few process-level
//! readings every workload shares.

use std::collections::BTreeMap;

use crate::catalog;
use crate::spans::{self, Span};
use crate::stats;

/// The driver's arguments, as every workload receives them.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    /// How long to measure, in seconds.
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations offered, and those that failed (see README.md: a request
    /// never retired, a culprit never cancelled, a sim case under 0.9).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context for a reader: sample counts, percentile support.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::is_end_to_end(name) || catalog::is_per_layer(name),
            "{name} is not in the catalogue"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.errors.push(what());
        }
    }

    /// Sets `<prefix>_p50<suffix>` and `<prefix>_p<tail><suffix>` names from
    /// a sample, noting the count and whether the tail percentile has ten
    /// samples beyond it.
    pub fn set_percentiles(
        &mut self,
        p50: &'static str,
        tail: (&'static str, f64),
        samples: Vec<f64>,
    ) {
        let s = stats::sorted(samples);
        self.set(p50, stats::percentile(&s, 50.0));
        self.set(tail.0, stats::percentile(&s, tail.1));
        let verdict = if stats::supported(s.len(), tail.1) {
            "supported".to_string()
        } else {
            format!(
                "unsupported: p{} is the highest",
                stats::highest_supported(s.len())
            )
        };
        self.notes
            .push(format!("{}: n={} p{} {verdict}", tail.0, s.len(), tail.1));
    }

    /// Writes the traced run's spans out and reports how many there were.
    pub fn write_spans(&mut self, workload: &str, spans: &[Span]) {
        self.set("bench.spans", spans.len() as f64);
        match spans::write(workload, spans) {
            Ok(path) => self.notes.push(format!("spans: {}", path.display())),
            Err(e) => self.errors.push(format!("writing spans: {e}")),
        }
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// FNV-1a over the ordered cancelled keys, reduced so an `f64` carries it
/// exactly.
pub fn decision_hash(keys: impl IntoIterator<Item = u64>) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for key in keys {
        for byte in key.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % 1_000_000_000) as f64
}
