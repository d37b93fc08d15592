//! Sample summaries under the percentile rule, and failure accounting.

use std::collections::BTreeMap;

/// Samples beyond a percentile needed before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// A reported value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    pub value: f64,
    pub samples: usize,
}

/// The median and p90 of `samples` where the rule allows them.
pub fn summarize(samples: &[f64]) -> (Option<Reported>, Option<Reported>) {
    let at = |q| {
        percentile(samples, q).map(|value| Reported {
            value,
            samples: samples.len(),
        })
    };
    (at(0.5), at(0.9))
}

/// Throughput robust to a transient stall: the completion times `ends`
/// (seconds from the phase start) are cut into `windows` runs of equal
/// op count, and the median of their rates is returned.
pub fn windowed_rate(ends: &[f64], windows: usize) -> f64 {
    let mut sorted = ends.to_vec();
    sorted.sort_by(f64::total_cmp);
    let per = sorted.len() / windows.max(1);
    if per == 0 {
        return f64::NAN;
    }
    let mut rates: Vec<f64> = (0..windows)
        .map(|w| {
            let start = if w == 0 { 0.0 } else { sorted[w * per - 1] };
            per as f64 / (sorted[(w + 1) * per - 1] - start)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[windows / 2]
}

/// Why an operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// Connect, write or read error, or an unparseable response.
    Transport,
    /// `503`: shed by admission control or over its fit deadline.
    Shed,
    /// Any other non-2xx status.
    Status,
    /// A 2xx response whose content failed a correctness check.
    Validation,
}

impl Failure {
    pub fn label(self) -> &'static str {
        match self {
            Failure::Transport => "transport",
            Failure::Shed => "shed",
            Failure::Status => "status",
            Failure::Validation => "validation",
        }
    }
}

/// Attempted and failed operations, failures by reason, plus the first
/// few failure messages for the report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: BTreeMap<Failure, u64>,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: Failure, message: String) {
        self.attempted += 1;
        *self.failed.entry(why).or_insert(0) += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), (Failure, String)>) {
        match outcome {
            Ok(()) => self.ok(),
            Err((why, message)) => self.fail(why, message),
        }
    }

    /// A check made outside any timed operation (set-up, final counts):
    /// it counts as one attempted operation of its own.
    pub fn check(&mut self, passed: bool, message: impl FnOnce() -> String) {
        if passed {
            self.ok();
        } else {
            self.fail(Failure::Validation, message());
        }
    }

    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed_total() as f64 / self.attempted as f64
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for (why, n) in other.failed {
            *self.failed.entry(why).or_insert(0) += n;
        }
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// Classifies an HTTP status: `None` for 2xx.
pub fn status_failure(status: u16) -> Option<Failure> {
    match status {
        200..=299 => None,
        503 => Some(Failure::Shed),
        _ => Some(Failure::Status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // BENCH_9's c=1 p99 was the maximum of 80 samples: refused here.
        assert_eq!(percentile(&xs[..80], 0.99), None);
    }

    #[test]
    fn percentile_ignores_input_order_and_carries_count() {
        let xs: Vec<f64> = (0..99).rev().map(f64::from).collect();
        let (p50, p90) = summarize(&xs);
        assert_eq!(
            p50,
            Some(Reported {
                value: 49.0,
                samples: 99
            })
        );
        assert_eq!(p90, None);
        let (_, p90) = summarize(
            &xs[..]
                .iter()
                .chain([99.0].iter())
                .copied()
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            p90,
            Some(Reported {
                value: 89.0,
                samples: 100
            })
        );
    }

    #[test]
    fn windowed_rate_ignores_one_stalled_window() {
        // 100 ops/s, except a 1 s stall before op 250.
        let ends: Vec<f64> = (1..=500)
            .map(|i| f64::from(i) / 100.0 + if i >= 250 { 1.0 } else { 0.0 })
            .collect();
        assert!((windowed_rate(&ends, 5) - 100.0).abs() < 1e-9);
        assert!(windowed_rate(&ends[..3], 5).is_nan());
    }

    #[test]
    fn fail_ratio_counts_sheds_statuses_and_validation() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.ok();
        }
        t.record(Err((status_failure(503).unwrap(), "shed".into())));
        t.record(Err((status_failure(404).unwrap(), "gone".into())));
        t.record(Err((Failure::Transport, "reset".into())));
        t.check(false, || "event_count 3 != 4".into());
        assert_eq!(status_failure(201), None);
        assert_eq!(t.attempted, 10);
        assert_eq!(t.failed_total(), 4);
        assert!((t.fail_ratio() - 0.4).abs() < 1e-15);
        assert_eq!(t.failed[&Failure::Shed], 1);
        assert_eq!(t.failed[&Failure::Validation], 1);

        let mut merged = Tally::default();
        merged.ok();
        merged.merge(t);
        assert_eq!((merged.attempted, merged.failed_total()), (11, 4));
    }
}
