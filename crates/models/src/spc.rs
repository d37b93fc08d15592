//! Control-chart statistics for SPC monitoring of an NHPP process.
//!
//! Two charting recipes from the SPC-for-software-reliability
//! literature, both plotting a probability against fixed 3σ-equivalent
//! control limits on the unit interval:
//!
//! * **Ordered statistics** (Rao et al., arXiv 1205.6440): the plotted
//!   statistic for the inter-failure gap `τ` after time `t` is the
//!   posterior probability of seeing the gap or shorter,
//!   `p = P(T ≤ τ | D) = 1 − E[R(t + τ | t) | D]` — the full posterior
//!   expectation, so parameter uncertainty widens the chart exactly as
//!   the fitted interval posterior supports.
//! * **MMLE-style plug-in** (arXiv 1111.1826): the same probability
//!   under the point-estimated model,
//!   `p̂ = 1 − exp(−ω̂·[G(t+τ) − G(t)])` with `(ω̂, β̂)` the posterior
//!   means standing in for the (modified) maximum-likelihood estimates.
//!   Sharper limits, no parameter-uncertainty inflation.
//!
//! `p` below the LCL means failures arrive much faster than the fitted
//! process predicts (reliability deterioration); above the UCL, much
//! slower (significant improvement). A [`RunTracker`] turns consecutive
//! out-of-control points on one side into a change-point signal.
//!
//! Both statistics are pure functions of `(posterior, t, τ)`, so they
//! inherit the posterior's determinism contract: bitwise identical
//! across thread counts.

use crate::model::GammaNhpp;
use crate::posterior::Posterior;
use crate::spec::ModelSpec;

/// SPC lower control limit on `P(T ≤ τ)` (3σ equivalent).
pub const SPC_LCL: f64 = 0.00135;
/// SPC centre line.
pub const SPC_CL: f64 = 0.5;
/// SPC upper control limit.
pub const SPC_UCL: f64 = 0.99865;

/// Which recipe produced a chart statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartScheme {
    /// Posterior-expected ordered-statistics chart.
    OrderedStatistics,
    /// Plug-in chart at the posterior-mean (MMLE-analogue) parameters.
    Mmle,
}

impl ChartScheme {
    /// Short keyword (`"os"` / `"mmle"`), as used in routes and CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChartScheme::OrderedStatistics => "os",
            ChartScheme::Mmle => "mmle",
        }
    }

    /// Parses the keyword form.
    ///
    /// # Errors
    ///
    /// A message naming the valid keywords.
    pub fn parse(text: &str) -> Result<ChartScheme, String> {
        match text {
            "os" => Ok(ChartScheme::OrderedStatistics),
            "mmle" => Ok(ChartScheme::Mmle),
            other => Err(format!("unknown chart scheme '{other}' (os | mmle)")),
        }
    }
}

/// Classification of one plotted point against the control limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartStatus {
    /// `p < LCL`: failures arriving faster than the fitted process.
    Deterioration,
    /// Within the limits.
    InControl,
    /// `p > UCL`: failures arriving slower than the fitted process.
    Improvement,
}

impl ChartStatus {
    /// Wire label, matching the one-shot `/spc` route's vocabulary.
    pub fn as_str(&self) -> &'static str {
        match self {
            ChartStatus::Deterioration => "deterioration-alarm",
            ChartStatus::InControl => "in-control",
            ChartStatus::Improvement => "improvement",
        }
    }

    /// Parses the wire label.
    ///
    /// # Errors
    ///
    /// A message naming the valid labels.
    pub fn parse(text: &str) -> Result<ChartStatus, String> {
        match text {
            "deterioration-alarm" => Ok(ChartStatus::Deterioration),
            "in-control" => Ok(ChartStatus::InControl),
            "improvement" => Ok(ChartStatus::Improvement),
            other => Err(format!("unknown chart status '{other}'")),
        }
    }

    /// Dense index (0/1/2) for counting arrays.
    pub fn index(&self) -> usize {
        match self {
            ChartStatus::Deterioration => 0,
            ChartStatus::InControl => 1,
            ChartStatus::Improvement => 2,
        }
    }
}

/// Ordered-statistics chart statistic: the posterior probability
/// `P(T ≤ τ | D)` of the observed gap or shorter.
pub fn ordered_statistic(posterior: &dyn Posterior, t_prev: f64, tau: f64) -> f64 {
    1.0 - posterior.reliability_point(t_prev, tau)
}

/// MMLE-style plug-in statistic: the same probability under the model
/// at the posterior-mean parameters. `NaN` when the posterior means do
/// not form a valid model (degenerate fit), which classifies as
/// in-control — an undefined statistic must not alarm.
pub fn mmle_statistic(spec: ModelSpec, posterior: &dyn Posterior, t_prev: f64, tau: f64) -> f64 {
    match GammaNhpp::new(spec, posterior.mean_omega(), posterior.mean_beta()) {
        Ok(model) => 1.0 - model.reliability(t_prev, tau),
        Err(_) => f64::NAN,
    }
}

/// Classifies a plotted statistic against the fixed limits. Non-finite
/// statistics are in-control: no evidence, no alarm.
pub fn classify(p: f64) -> ChartStatus {
    if p < SPC_LCL {
        ChartStatus::Deterioration
    } else if p > SPC_UCL {
        ChartStatus::Improvement
    } else {
        ChartStatus::InControl
    }
}

/// Change-point detector: counts consecutive out-of-control points on
/// one side of the chart and fires once when the run reaches the
/// configured length. A single stray point (expected at ~0.27% of
/// in-control points by construction of the 3σ limits) does not fire;
/// a sustained run is a regime shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunTracker {
    side: Option<ChartStatus>,
    len: u32,
}

impl RunTracker {
    /// A tracker with no active run.
    pub fn new() -> RunTracker {
        RunTracker::default()
    }

    /// Observes one point. Returns the run's side exactly once, at the
    /// moment the run reaches `threshold` consecutive out-of-control
    /// points on that side; an in-control point (or a side switch)
    /// resets the run.
    pub fn observe(&mut self, status: ChartStatus, threshold: u32) -> Option<ChartStatus> {
        match status {
            ChartStatus::InControl => {
                self.side = None;
                self.len = 0;
                None
            }
            side => {
                if self.side == Some(side) {
                    self.len = self.len.saturating_add(1);
                } else {
                    self.side = Some(side);
                    self.len = 1;
                }
                (self.len == threshold.max(1)).then_some(side)
            }
        }
    }

    /// The active out-of-control run, if any: `(side, length)`.
    pub fn current(&self) -> Option<(ChartStatus, u32)> {
        self.side.map(|side| (side, self.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A posterior concentrated exactly at (ω, β): both schemes then
    /// agree and equal the plug-in probability.
    struct PointMass {
        omega: f64,
        beta: f64,
    }

    impl Posterior for PointMass {
        fn method_name(&self) -> &'static str {
            "POINT"
        }
        fn mean_omega(&self) -> f64 {
            self.omega
        }
        fn mean_beta(&self) -> f64 {
            self.beta
        }
        fn var_omega(&self) -> f64 {
            0.0
        }
        fn var_beta(&self) -> f64 {
            0.0
        }
        fn covariance(&self) -> f64 {
            0.0
        }
        fn central_moment_omega(&self, _k: u32) -> f64 {
            0.0
        }
        fn quantile_omega(&self, _p: f64) -> f64 {
            self.omega
        }
        fn quantile_beta(&self, _p: f64) -> f64 {
            self.beta
        }
        fn ln_joint_density(&self, _omega: f64, _beta: f64) -> Option<f64> {
            None
        }
        fn reliability_point(&self, t: f64, u: f64) -> f64 {
            GammaNhpp::new(ModelSpec::goel_okumoto(), self.omega, self.beta)
                .unwrap()
                .reliability(t, u)
        }
        fn reliability_quantile(&self, t: f64, u: f64, _p: f64) -> f64 {
            self.reliability_point(t, u)
        }
    }

    #[test]
    fn schemes_agree_on_a_point_mass_posterior() {
        let posterior = PointMass {
            omega: 40.0,
            beta: 1e-5,
        };
        let spec = ModelSpec::goel_okumoto();
        for (t, tau) in [(0.0, 1e4), (5e4, 2e3), (1e5, 5e4)] {
            let os = ordered_statistic(&posterior, t, tau);
            let mmle = mmle_statistic(spec, &posterior, t, tau);
            assert!((os - mmle).abs() < 1e-12, "t={t} tau={tau}: {os} vs {mmle}");
            assert!((0.0..=1.0).contains(&os));
        }
    }

    #[test]
    fn statistic_is_monotone_in_the_gap_and_hits_the_limits() {
        let posterior = PointMass {
            omega: 40.0,
            beta: 1e-5,
        };
        // A vanishing gap is maximally surprising on the fast side, a
        // huge gap on the slow side.
        let tiny = ordered_statistic(&posterior, 1e4, 1e-6);
        let huge = ordered_statistic(&posterior, 1e4, 1e9);
        assert!(tiny < SPC_LCL, "tiny gap statistic {tiny}");
        assert!(huge > SPC_UCL, "huge gap statistic {huge}");
        assert_eq!(classify(tiny), ChartStatus::Deterioration);
        assert_eq!(classify(huge), ChartStatus::Improvement);
        assert_eq!(classify(0.5), ChartStatus::InControl);
        // No evidence, no alarm.
        assert_eq!(classify(f64::NAN), ChartStatus::InControl);
    }

    #[test]
    fn mmle_statistic_survives_a_degenerate_posterior() {
        struct Degenerate;
        impl Posterior for Degenerate {
            fn method_name(&self) -> &'static str {
                "BAD"
            }
            fn mean_omega(&self) -> f64 {
                f64::NAN
            }
            fn mean_beta(&self) -> f64 {
                f64::NAN
            }
            fn var_omega(&self) -> f64 {
                0.0
            }
            fn var_beta(&self) -> f64 {
                0.0
            }
            fn covariance(&self) -> f64 {
                0.0
            }
            fn central_moment_omega(&self, _k: u32) -> f64 {
                0.0
            }
            fn quantile_omega(&self, _p: f64) -> f64 {
                0.0
            }
            fn quantile_beta(&self, _p: f64) -> f64 {
                0.0
            }
            fn ln_joint_density(&self, _o: f64, _b: f64) -> Option<f64> {
                None
            }
            fn reliability_point(&self, _t: f64, _u: f64) -> f64 {
                f64::NAN
            }
            fn reliability_quantile(&self, _t: f64, _u: f64, _p: f64) -> f64 {
                f64::NAN
            }
        }
        let p = mmle_statistic(ModelSpec::goel_okumoto(), &Degenerate, 1.0, 1.0);
        assert!(p.is_nan());
        assert_eq!(classify(p), ChartStatus::InControl);
    }

    #[test]
    fn run_tracker_fires_once_per_run_at_the_threshold() {
        let mut tracker = RunTracker::new();
        let d = ChartStatus::Deterioration;
        let i = ChartStatus::InControl;
        assert_eq!(tracker.observe(d, 3), None);
        assert_eq!(tracker.observe(d, 3), None);
        assert_eq!(tracker.observe(d, 3), Some(d), "fires at the threshold");
        assert_eq!(tracker.observe(d, 3), None, "does not re-fire");
        assert_eq!(tracker.current(), Some((d, 4)));
        assert_eq!(tracker.observe(i, 3), None, "in-control resets");
        assert_eq!(tracker.current(), None);
        // A side switch starts a fresh run.
        let u = ChartStatus::Improvement;
        assert_eq!(tracker.observe(d, 2), None);
        assert_eq!(tracker.observe(u, 2), None);
        assert_eq!(tracker.observe(u, 2), Some(u));
        // Threshold 1 alarms on the first point of each run only.
        let mut eager = RunTracker::new();
        assert_eq!(eager.observe(d, 1), Some(d));
        assert_eq!(eager.observe(d, 1), None);
    }

    #[test]
    fn scheme_and_status_round_trip_their_labels() {
        for scheme in [ChartScheme::OrderedStatistics, ChartScheme::Mmle] {
            assert_eq!(ChartScheme::parse(scheme.as_str()), Ok(scheme));
        }
        for status in [
            ChartStatus::Deterioration,
            ChartStatus::InControl,
            ChartStatus::Improvement,
        ] {
            assert_eq!(ChartStatus::parse(status.as_str()), Ok(status));
        }
        assert!(ChartScheme::parse("nope").is_err());
        assert!(ChartStatus::parse("nope").is_err());
    }
}
