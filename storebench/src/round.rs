//! What one round reports, and the raw sums the traced rounds add up.

use std::collections::BTreeMap;
use std::time::Instant;

use mc_runtime::RuntimeTelemetry;

use crate::trace::Spans;

/// Which round to run and how.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    pub seed: u64,
    pub round: u64,
    /// Record spans and per-layer sums (and count register operations,
    /// which the caller arranges through the memory it passes).
    pub traced: bool,
    /// Time zero of the run's spans.
    pub epoch: Instant,
    /// Also run the checker's negative control on this round's history.
    pub control: bool,
    /// Count heap bytes from set-up to the end of the timed work (see
    /// `mem.rs`); the count slows allocation, so the round's times are
    /// not used.
    pub heap: bool,
}

impl RoundSpec {
    pub fn spans(&self, thread: u32) -> Spans {
        Spans::new(self.traced, thread, self.epoch)
    }
}

/// One round's end-to-end figures, its operation ledger, and (when traced)
/// its spans and raw per-layer sums.
pub struct RoundResult {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p99_us: f64,
    pub read_mean_ns: f64,
    /// In a heap round, the memory the store (or the log) took, in MB:
    /// the most heap bytes live from set-up to the end of the timed work,
    /// above those live before set-up, when the benchmark's own buffers
    /// were already allocated.
    pub peak_heap_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Commands re-submitted after a wait passed its deadline.
    pub resends: u64,
    /// Submissions among those overtaken that were never answered.
    pub stranded: u64,
    pub tally: Tally,
    pub spans: Spans,
}

/// Raw per-layer sums by name. Per-layer metrics are ratios of these sums
/// over all traced rounds, so every round weighs by the work it did.
#[derive(Debug, Default)]
pub struct Tally(BTreeMap<&'static str, f64>);

impl Tally {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_default();
        *slot = slot.max(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `numerator / denominator`, or 0 when nothing was counted.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.get(denominator);
        if d == 0.0 {
            0.0
        } else {
            self.get(numerator) / d
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        for (name, value) in other.0 {
            if name.starts_with("max.") {
                self.max(name, value);
            } else {
                self.add(name, value);
            }
        }
    }
}

/// The consensus-side counters a round reads from a telemetry handle.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsensusCounters {
    decide_calls: u64,
    decisions: u64,
    decide_ns: u64,
    decide_samples: u64,
    fast_path_hits: u64,
    stage_entries: u64,
    conciliator_rounds: u64,
    pool_hits: u64,
    pool_misses: u64,
}

impl ConsensusCounters {
    pub fn read(telemetry: &RuntimeTelemetry) -> ConsensusCounters {
        ConsensusCounters {
            decide_calls: telemetry.decide_calls(),
            decisions: telemetry.decisions(),
            decide_ns: telemetry.decide_latency_ns().sum(),
            decide_samples: telemetry.decide_latency_ns().count(),
            fast_path_hits: telemetry.fast_path_hits(),
            stage_entries: telemetry.stage_entries(),
            conciliator_rounds: telemetry.conciliator_rounds().sum(),
            pool_hits: telemetry.pool_hits(),
            pool_misses: telemetry.pool_misses(),
        }
    }

    /// Adds what was counted since `before` into `tally`; `pool` names the
    /// tally entries for the instance pool's hits and misses.
    pub fn tally_since(
        &self,
        before: &ConsensusCounters,
        pool: [&'static str; 2],
        tally: &mut Tally,
    ) {
        let d = |now: u64, then: u64| now.saturating_sub(then) as f64;
        tally.add("decide_calls", d(self.decide_calls, before.decide_calls));
        tally.add("decisions", d(self.decisions, before.decisions));
        tally.add("decide_ns", d(self.decide_ns, before.decide_ns));
        tally.add(
            "decide_samples",
            d(self.decide_samples, before.decide_samples),
        );
        tally.add(
            "fast_path_hits",
            d(self.fast_path_hits, before.fast_path_hits),
        );
        tally.add("stage_entries", d(self.stage_entries, before.stage_entries));
        tally.add(
            "conciliator_rounds",
            d(self.conciliator_rounds, before.conciliator_rounds),
        );
        let [hits, misses] = pool;
        tally.add(hits, d(self.pool_hits, before.pool_hits));
        tally.add(misses, d(self.pool_misses, before.pool_misses));
    }
}

/// Adds the register operations counted since `before` into `tally`.
pub fn tally_registers(before: [u64; 4], after: [u64; 4], tally: &mut Tally) {
    let names = [
        "reg.reads",
        "reg.writes",
        "reg.prob_writes",
        "reg.prob_writes_landed",
    ];
    for ((name, b), a) in names.into_iter().zip(before).zip(after) {
        tally.add(name, a.saturating_sub(b) as f64);
    }
}

/// The `q`-quantile of `samples` by nearest rank; sorts in place.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// The mean of `samples` without their slowest 1%, the operations the
/// scheduler preempted; sorts in place. Unlike the median, it moves
/// smoothly with the mix when the samples gather in two clusters, as
/// `kv_closed`'s reads do (about 165 and 310 ns), so it does not jump from
/// one cluster to the other between rounds.
pub fn trimmed_mean(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    let kept = &samples[..samples.len() - samples.len() / 100];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().map(|&ns| ns as f64).sum::<f64>() / kept.len() as f64
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut samples: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut samples, 0.5), 50.0);
        assert_eq!(quantile(&mut samples, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut slow_tail: Vec<u64> = (1..=99).chain([1_000_000]).collect();
        assert_eq!(trimmed_mean(&mut slow_tail), 50.0);
        assert_eq!(trimmed_mean(&mut []), 0.0);
    }
}
